(* The standing byte-identity gate: one MD5 per benchmark query, committed
   in [query_digests.txt]. Each digest covers what a client can observe of
   the query with no wall-clock budget: the Plain outcome (code, CGT
   size, failure, timeout flag), the ranked k=5 list (code, size,
   coverage, score), the candidate frames streamed while that ranked run
   walks the chart, and the [Stats] of both runs. A performance change
   that keeps every line keeps every answer, every streamed frame and
   every counter.

   The default run checks every tenth query; DGGT_GOLDEN_FULL=1 checks
   all 300. A mismatch names the query and prints its new line, so an
   intended output change is re-pinned by copying the printed lines. *)

module Engine = Dggt_core.Engine
module Stats = Dggt_core.Stats
module Domain = Dggt_domains.Domain

let domains = [ Dggt_domains.Text_editing.domain; Dggt_domains.Astmatcher.domain ]

let stats_fields (s : Stats.t) =
  String.concat " "
    (List.map string_of_int
       [
         s.Stats.dep_edges; s.orig_paths; s.paths_after_reloc; s.orphan_count;
         s.reloc_graphs; s.combos_total; s.combos_after_gprune;
         s.combos_after_sprune; s.combos_merged; s.hisyn_combos_enumerated;
         s.hisyn_combos_possible; s.dgg_nodes; s.dgg_edges; s.dgg_improvements;
       ])

let opt f = function Some x -> f x | None -> "-"

(* Everything the digest covers, one fact per line; scores print in hex
   so the text is exact. *)
let observed ses text =
  let b = Buffer.create 512 in
  let add fmt = Printf.bprintf b (fmt ^^ "\n") in
  let plain = Engine.respond ses { Engine.input = Engine.Text text; mode = Engine.Plain } in
  add "plain %s | %s | %s | %b" (opt Fun.id plain.Engine.code)
    (opt string_of_int plain.Engine.cgt_size) (opt Fun.id plain.Engine.failure)
    plain.Engine.timed_out;
  add "plain stats %s" (stats_fields plain.Engine.stats);
  let frames = ref [] in
  let ranked =
    Engine.respond
      ~on_candidate:(fun c -> frames := c :: !frames)
      ses
      { Engine.input = Engine.Text text; mode = Engine.Ranked 5 }
  in
  List.iter
    (fun (r : Engine.ranked) ->
      add "ranked %s | %d | %d | %h" r.Engine.code r.Engine.size r.Engine.coverage
        r.Engine.score)
    ranked.Engine.ranked;
  List.iter
    (fun (c : Engine.candidate) ->
      add "frame %d | %s | %d | %d | %h | %d" c.Engine.rank c.Engine.code c.Engine.size
        c.Engine.coverage c.Engine.score c.Engine.revision)
    (List.rev !frames);
  add "ranked stats %s" (stats_fields ranked.Engine.stats);
  Buffer.contents b

let session dom =
  Domain.configure dom { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = None }

(* "<domain> <index> <md5> <query text>", index 0-based in query order *)
let line (dom : Domain.t) ses i (q : Domain.query) =
  Printf.sprintf "%s %03d %s %s" dom.Domain.name i
    (Digest.to_hex (Digest.string (observed ses q.Domain.text)))
    q.Domain.text

(* next to the test executable (dune copies it there), or in the source
   tree when run from elsewhere *)
let pinned_file name =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) name in
  let rec up d =
    let f = Filename.concat (Filename.concat d "test") name in
    if Sys.file_exists f then Some f
    else
      let p = Filename.dirname d in
      if p = d then None else up p
  in
  if Sys.file_exists beside then Some beside else up (Sys.getcwd ())

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_digests () =
  let path =
    match pinned_file "query_digests.txt" with
    | Some p -> p
    | None -> Alcotest.fail "query_digests.txt not found"
  in
  let committed = Array.of_list (read_lines path) in
  let stride = if Sys.getenv_opt "DGGT_GOLDEN_FULL" = Some "1" then 1 else 10 in
  let offset = ref 0 and checked = ref 0 and differ = ref [] in
  List.iter
    (fun (dom : Domain.t) ->
      let ses = session dom in
      List.iteri
        (fun i (q : Domain.query) ->
          if i mod stride = 0 then begin
            incr checked;
            let now = line dom ses i q in
            let pinned =
              if !offset + i < Array.length committed then committed.(!offset + i) else ""
            in
            if now <> pinned then begin
              Printf.eprintf "digest differs: %s query %d %S\nnew line:\n%s\n%!"
                dom.Domain.name i q.Domain.text now;
              differ := q.Domain.text :: !differ
            end
          end)
        dom.Domain.queries;
      offset := !offset + List.length dom.Domain.queries)
    domains;
  Alcotest.(check int) "one committed line per query" !offset (Array.length committed);
  if !differ <> [] then
    Alcotest.failf "%d of %d checked queries changed output, first %S" (List.length !differ)
      !checked (List.hd (List.rev !differ))

(* The fuel unit, pinned end to end: [query_steps.txt] holds, per query,
   the budget steps T its Plain run takes ("<domain> <index> <T> <query
   text>"). With [max_steps = Some T] and no wall clock the run completes;
   when T > 0, T - 1 steps time it out. A change that moves where or how
   often the engine ticks its budget moves some T; a mismatch bisects for
   the query's current T and prints its new line. *)
let completes ses text steps =
  let ses = Engine.with_cfg (fun c -> { c with Engine.max_steps = Some steps }) ses in
  not (Engine.respond ses { Engine.input = Engine.Text text; mode = Engine.Plain }).Engine.timed_out

(* the least step count that completes: double until a run completes,
   then bisect between the last failure and it *)
let fuel ses text =
  if completes ses text 0 then 0
  else
    let rec up hi = if completes ses text hi then hi else up (2 * hi) in
    let rec bisect lo hi =
      if hi - lo <= 1 then hi
      else
        let mid = (lo + hi) / 2 in
        if completes ses text mid then bisect lo mid else bisect mid hi
    in
    let hi = up 1 in
    bisect (hi / 2) hi

let test_steps () =
  let path =
    match pinned_file "query_steps.txt" with
    | Some p -> p
    | None -> Alcotest.fail "query_steps.txt not found"
  in
  let committed = Array.of_list (read_lines path) in
  let stride = if Sys.getenv_opt "DGGT_GOLDEN_FULL" = Some "1" then 1 else 10 in
  let offset = ref 0 and checked = ref 0 and differ = ref [] in
  List.iter
    (fun (dom : Domain.t) ->
      let ses = session dom in
      List.iteri
        (fun i (q : Domain.query) ->
          if i mod stride = 0 then begin
            incr checked;
            let line t = Printf.sprintf "%s %03d %d %s" dom.Domain.name i t q.Domain.text in
            let pinned =
              if !offset + i < Array.length committed then committed.(!offset + i) else ""
            in
            let holds =
              match String.split_on_char ' ' pinned with
              | _ :: _ :: t :: _ -> (
                  match int_of_string_opt t with
                  | Some t ->
                      pinned = line t
                      && completes ses q.Domain.text t
                      && (t = 0 || not (completes ses q.Domain.text (t - 1)))
                  | None -> false)
              | _ -> false
            in
            if not holds then begin
              Printf.eprintf "step count differs: %s query %d %S\nnew line:\n%s\n%!"
                dom.Domain.name i q.Domain.text (line (fuel ses q.Domain.text));
              differ := q.Domain.text :: !differ
            end
          end)
        dom.Domain.queries;
      offset := !offset + List.length dom.Domain.queries)
    domains;
  Alcotest.(check int) "one committed line per query" !offset (Array.length committed);
  if !differ <> [] then
    Alcotest.failf "%d of %d checked queries changed step count, first %S"
      (List.length !differ) !checked (List.hd (List.rev !differ))

let suite =
  [
    Alcotest.test_case
      "per-query output digests (every tenth query; DGGT_GOLDEN_FULL=1 for all)"
      `Quick test_digests;
    Alcotest.test_case
      "per-query step counts (every tenth query; DGGT_GOLDEN_FULL=1 for all)"
      `Quick test_steps;
  ]
