open Dggt_util
open Dggt_core

(* The pre-claims grammar-based pruning, kept verbatim as the oracle for
   [bench pathmerge] and the semiring property suite: the full pairwise
   conflict table ({!Dggt_grammar.Pathvote.conflict_table}) is built up
   front and every candidate is checked against each chosen path. *)

type t = { table : (int * int, unit) Hashtbl.t }

let prepare g epaths =
  let numbered = List.map (fun (p : Edge2path.epath) -> (p.Edge2path.id, p.Edge2path.path)) epaths in
  { table = Dggt_grammar.Pathvote.conflict_table g numbered }

let conflicts_with t p chosen =
  List.exists (fun q -> Hashtbl.mem t.table (min p q, max p q)) chosen

let combos ?budget t ~enabled groups =
  let total = Listutil.cartesian_count groups in
  let out = ref [] in
  let rec go acc acc_ids = function
    | [] -> out := List.rev acc :: !out
    | g :: rest ->
        List.iter
          (fun (p : Edge2path.epath) ->
            (match budget with Some b -> Budget.check b | None -> ());
            if (not enabled) || not (conflicts_with t p.Edge2path.id acc_ids) then
              go (p :: acc) (p.Edge2path.id :: acc_ids) rest)
          g
  in
  go [] [] groups;
  (List.rev !out, total)
