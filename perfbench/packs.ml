(* The hand-written ground truth and accuracy floor of a domain pack
   (examples/packs/<domain>/), read with the repo's own pack loader.
   Answers are scored against it, never against the engine's own
   output. *)

module Domain = Dggt_domains.Domain

let fail e = failwith (Dggt_pack.Err.to_string e)

(* queries.tsv: the evaluation queries with their ground-truth codelets *)
let queries dir =
  match Dggt_pack.Queryfile.load (Filename.concat dir "queries.tsv") with
  | Ok entries -> List.map (fun (e : Dggt_pack.Queryfile.entry) -> e.query) entries
  | Error e -> fail e

(* the pack's evaluation envelope: [expect-accuracy] in domain.pack *)
let accuracy_floor dir =
  let path = Filename.concat dir "domain.pack" in
  match Result.bind (Dggt_pack.Manifest.load path) (fun m -> Dggt_pack.Manifest.num_value m "expect-accuracy") with
  | Ok (Some f) -> f
  | Ok None -> failwith (path ^ ": no expect-accuracy")
  | Error e -> fail e

(* [Domain.check] on a codelet received as text *)
let correct d q code = Domain.check d (Result.to_option (Dggt_core.Tree2expr.parse code)) q
