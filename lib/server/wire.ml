open Dggt_core
module J = Jsonio
module Trace = Dggt_obs.Trace

(* The one place response payloads are rendered. Both delivery modes —
   fixed v1 JSON bodies and SSE frames — go through these functions, so
   the streamed [event: done] payload is the same bytes a non-streaming
   caller would have received; the shapes cannot drift apart. *)

let api_version = 1

let stats_json (s : Stats.t) =
  let i n = J.Num (float_of_int n) in
  J.Obj
    [
      ("dep_edges", i s.Stats.dep_edges);
      ("orig_paths", i s.Stats.orig_paths);
      ("paths_after_reloc", i s.Stats.paths_after_reloc);
      ("orphan_count", i s.Stats.orphan_count);
      ("reloc_graphs", i s.Stats.reloc_graphs);
      ("combos_total", i s.Stats.combos_total);
      ("combos_after_gprune", i s.Stats.combos_after_gprune);
      ("combos_after_sprune", i s.Stats.combos_after_sprune);
      ("combos_merged", i s.Stats.combos_merged);
      ("hisyn_combos_enumerated", i s.Stats.hisyn_combos_enumerated);
      ("hisyn_combos_possible", i s.Stats.hisyn_combos_possible);
      ("dgg_nodes", i s.Stats.dgg_nodes);
      ("dgg_edges", i s.Stats.dgg_edges);
      ("dgg_improvements", i s.Stats.dgg_improvements);
    ]

(* the real n-best entries, rank + the tie-break quantities the client
   would otherwise have to re-derive *)
let ranked_json (rs : Engine.ranked list) =
  J.Arr
    (List.mapi
       (fun i (r : Engine.ranked) ->
         J.Obj
           [
             ("rank", J.Num (float_of_int (i + 1)));
             ("code", J.Str r.Engine.code);
             ("size", J.Num (float_of_int r.Engine.size));
             ("coverage", J.Num (float_of_int r.Engine.coverage));
             ("score", J.Num r.Engine.score);
           ])
       rs)

(* protocol v1 compatibility: [alternatives] keeps its historical shape (a
   bare code-string array) and the richer [ranked] field appears only when
   an n-best was computed (k > 1) — a k=1 payload is byte-identical to the
   pre-semiring one. *)
let outcome_json ~domain ~engine ~query ~cached ~alternatives
    (o : Engine.outcome) =
  J.Obj
    ([
       ("v", J.Num (float_of_int api_version));
       ("ok", J.Bool (o.Engine.code <> None));
       ("domain", J.Str domain);
       ("engine", J.Str engine);
       ("query", J.Str query);
       ("code", J.opt (fun s -> J.Str s) o.Engine.code);
       ("cgt_size", J.opt (fun n -> J.Num (float_of_int n)) o.Engine.cgt_size);
       ( "alternatives",
         J.Arr
           (List.map (fun (r : Engine.ranked) -> J.Str r.Engine.code)
              alternatives) );
     ]
    @ (if alternatives = [] then []
       else [ ("ranked", ranked_json alternatives) ])
    @ [
        ("time_s", J.Num o.Engine.time_s);
        ("timed_out", J.Bool o.Engine.timed_out);
        ("failure", J.opt (fun s -> J.Str s) o.Engine.failure);
        ("cached", J.Bool cached);
        ("stats", stats_json o.Engine.stats);
      ])

(* the [/rank] payload; also the stream's terminal frame for rank
   requests. [timed_out] appears only when true, so every body of a run
   that finished is unchanged. *)
let rank_json ?(timed_out = false) ~domain ~query ~k ~cached
    (candidates : Engine.ranked list) =
  J.Obj
    ([
       ("v", J.Num (float_of_int api_version));
       ("ok", J.Bool (candidates <> []));
     ]
    @ (if timed_out then [ ("timed_out", J.Bool true) ] else [])
    @ [
        ("domain", J.Str domain);
        ("query", J.Str query);
        ("k", J.Num (float_of_int k));
        ( "candidates",
          J.Arr
            (List.map
               (fun (r : Engine.ranked) -> J.Str r.Engine.code)
               candidates) );
        ("ranked", ranked_json candidates);
        ("cached", J.Bool cached);
      ])

let reuse_json (r : Dggt_inc.Reuse.t) =
  let open Dggt_inc.Reuse in
  let i n = J.Num (float_of_int n) in
  let stage (s : stage) =
    J.Obj [ ("reused", i s.reused); ("computed", i s.computed) ]
  in
  J.Obj
    [
      ("revision", i r.revision);
      ("splice", J.Bool r.splice);
      ( "tokens",
        J.Obj
          [
            ("kept", i r.tokens_kept);
            ("added", i r.tokens_added);
            ("removed", i r.tokens_removed);
          ] );
      ( "edges",
        J.Obj
          [
            ("kept", i r.edges_kept);
            ("added", i r.edges_added);
            ("removed", i r.edges_removed);
          ] );
      ("words", stage r.words);
      ("pairs", stage r.pairs);
      ("dgg_rows", stage r.dgg_rows);
      ("reuse_ratio", J.Num (overall_ratio r));
    ]

let with_fields v extra =
  match v with
  | J.Obj f -> J.Obj (f @ extra)
  | other -> J.Obj (("outcome", other) :: extra)

let value_json = function
  | Trace.Bool b -> J.Bool b
  | Trace.Int n -> J.Num (float_of_int n)
  | Trace.Float f -> J.Num f
  | Trace.Str s -> J.Str s

let event_json (e : Trace.event) =
  J.Obj
    [
      ("id", J.Num (float_of_int e.Trace.id));
      ("parent", J.opt (fun p -> J.Num (float_of_int p)) e.Trace.parent);
      ("stage", J.Str e.Trace.stage);
      ("start_s", J.Num e.Trace.start_s);
      ("dur_s", J.Num e.Trace.dur_s);
      (* note keys repeat (one per decision) — an array of pairs, not an
         object *)
      ( "notes",
        J.list
          (fun (k, v) -> J.Obj [ ("key", J.Str k); ("value", value_json v) ])
          e.Trace.notes );
    ]

let error_json msg = J.to_string (J.Obj [ ("error", J.Str msg) ])

(* ------------------------------------------------------------------ *)
(* SSE framing                                                        *)
(* ------------------------------------------------------------------ *)

let sse_frame ~event v =
  Printf.sprintf "event: %s\ndata: %s\n\n" event (J.to_string v)

(* one [event: candidate] revision *)
let candidate_json (c : Engine.candidate) =
  J.Obj
    [
      ("v", J.Num (float_of_int api_version));
      ("rank", J.Num (float_of_int c.Engine.rank));
      ("revision", J.Num (float_of_int c.Engine.revision));
      ("code", J.Str c.Engine.code);
      ("size", J.Num (float_of_int c.Engine.size));
      ("coverage", J.Num (float_of_int c.Engine.coverage));
      ("score", J.Num c.Engine.score);
    ]

(* a mid-stream failure (headers already went out as 200, so the status
   travels in the frame) *)
let stream_error_json ~status msg =
  J.Obj
    [
      ("v", J.Num (float_of_int api_version));
      ("ok", J.Bool false);
      ("status", J.Num (float_of_int status));
      ("error", J.Str msg);
    ]
