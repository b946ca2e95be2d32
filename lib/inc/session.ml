open Dggt_nlu
module Engine = Dggt_core.Engine
module Stats = Dggt_core.Stats
module Word2api = Dggt_core.Word2api
module Trace = Dggt_obs.Trace

type wentry = { wv : Word2api.candidate list; mutable wstamp : int }
type pentry = { pv : Dggt_grammar.Gpath.t list; mutable pstamp : int }

type revision = {
  tokens : Token.t list;
  pruned : Depgraph.t;
  outcome : Engine.outcome;
  cfg : Engine.config;
}

type t = {
  base : Engine.session;
  mu : Mutex.t; (* guards the tables and the run counters *)
  words : (string * string, wentry) Hashtbl.t; (* (lemma, pos) -> candidates *)
  pairs : (string * string, pentry) Hashtbl.t; (* (src, dst) -> paths *)
  mutable run : int; (* stamp of the current compute run (liveness) *)
  mutable w_reused : int;
  mutable w_computed : int;
  mutable p_reused : int;
  mutable p_computed : int;
  mutable table_cfg : Engine.config option; (* cfg the entries were built under *)
  mutable prev : revision option;
  mutable revs : int;
}

let create base =
  {
    base;
    mu = Mutex.create ();
    words = Hashtbl.create 64;
    pairs = Hashtbl.create 64;
    run = 0;
    w_reused = 0;
    w_computed = 0;
    p_reused = 0;
    p_computed = 0;
    table_cfg = None;
    prev = None;
    revs = 0;
  }

let revisions t = t.revs

(* The hooks layer the session tables over whatever cache the target already
   has: a session miss falls through to it before computing. The compute (or
   fallback) runs outside the lock — EdgeToPath may probe from pool workers,
   and a search can be slow. A racing writer for the same key is benign: both
   computed the same deterministic value. *)

let word_hook t ~lemma ~pos compute =
  let key = (lemma, Pos.to_string pos) in
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.words key with
  | Some e ->
      e.wstamp <- t.run;
      t.w_reused <- t.w_reused + 1;
      Mutex.unlock t.mu;
      e.wv
  | None ->
      Mutex.unlock t.mu;
      let v =
        match t.base.Engine.target.Engine.caches.Engine.word2api with
        | Some lookup -> lookup ~lemma ~pos compute
        | None -> compute ()
      in
      Mutex.lock t.mu;
      t.w_computed <- t.w_computed + 1;
      (match Hashtbl.find_opt t.words key with
      | Some e -> e.wstamp <- t.run
      | None -> Hashtbl.replace t.words key { wv = v; wstamp = t.run });
      Mutex.unlock t.mu;
      v

let pair_hook t ~src ~dst compute =
  let key = (src, dst) in
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.pairs key with
  | Some e ->
      e.pstamp <- t.run;
      t.p_reused <- t.p_reused + 1;
      Mutex.unlock t.mu;
      e.pv
  | None ->
      Mutex.unlock t.mu;
      let v =
        match t.base.Engine.target.Engine.caches.Engine.edge2path with
        | Some lookup -> lookup ~src ~dst compute
        | None -> compute ()
      in
      Mutex.lock t.mu;
      t.p_computed <- t.p_computed + 1;
      (match Hashtbl.find_opt t.pairs key with
      | Some e -> e.pstamp <- t.run
      | None -> Hashtbl.replace t.pairs key { pv = v; pstamp = t.run });
      Mutex.unlock t.mu;
      v

let hooked_target t =
  {
    t.base.Engine.target with
    Engine.caches =
      {
        Engine.word2api = Some (word_hook t);
        edge2path = Some (pair_hook t);
      };
  }

(* Result-affecting config fields, compared field by field. [unit_filter]
   and [trace] are deliberately left out: both are closures (structural
   (=) would raise Invalid_argument) and [trace] never changes the
   synthesized bytes; [unit_filter] is pinned at session creation
   (documented in the mli). *)
let stage_cfg_equal (a : Engine.config) (b : Engine.config) =
  a.Engine.algorithm = b.Engine.algorithm
  && a.Engine.timeout_s = b.Engine.timeout_s
  && a.Engine.max_steps = b.Engine.max_steps
  && a.Engine.top_k = b.Engine.top_k
  && a.Engine.path_limits = b.Engine.path_limits
  && a.Engine.gprune = b.Engine.gprune
  && a.Engine.sprune = b.Engine.sprune
  && a.Engine.orphan_reloc = b.Engine.orphan_reloc
  && a.Engine.defaults = b.Engine.defaults
  && a.Engine.stop_verbs = b.Engine.stop_verbs

(* The memo-table entries depend on one knob: EdgeToPath searches are
   limit-bounded (the WordToAPI threshold is a constant); any other
   config change leaves them valid. *)
let tables_valid_for t (cfg : Engine.config) =
  match t.table_cfg with
  | None -> true
  | Some c -> c.Engine.path_limits = cfg.Engine.path_limits

(* Keep only the entries the current run touched: session memory stays
   bounded by the live query's footprint. *)
let prune_stale t =
  let ws =
    Hashtbl.fold (fun k e acc -> if e.wstamp <> t.run then k :: acc else acc)
      t.words []
  in
  List.iter (Hashtbl.remove t.words) ws;
  let ps =
    Hashtbl.fold (fun k e acc -> if e.pstamp <> t.run then k :: acc else acc)
      t.pairs []
  in
  List.iter (Hashtbl.remove t.pairs) ps

let trace_reuse (cfg : Engine.config) (r : Reuse.t) =
  Trace.span cfg.Engine.trace "IncrementalReuse" (fun sp ->
      Trace.int sp "revision" r.Reuse.revision;
      Trace.bool sp "splice" r.Reuse.splice;
      Trace.int sp "tokens_kept" r.Reuse.tokens_kept;
      Trace.int sp "tokens_added" r.Reuse.tokens_added;
      Trace.int sp "tokens_removed" r.Reuse.tokens_removed;
      Trace.int sp "edges_kept" r.Reuse.edges_kept;
      Trace.int sp "edges_added" r.Reuse.edges_added;
      Trace.int sp "edges_removed" r.Reuse.edges_removed;
      Trace.int sp "words_reused" r.Reuse.words.Reuse.reused;
      Trace.int sp "words_computed" r.Reuse.words.Reuse.computed;
      Trace.int sp "pairs_reused" r.Reuse.pairs.Reuse.reused;
      Trace.int sp "pairs_computed" r.Reuse.pairs.Reuse.computed;
      Trace.int sp "dgg_rows_reused" r.Reuse.dgg_rows.Reuse.reused;
      Trace.int sp "dgg_rows_computed" r.Reuse.dgg_rows.Reuse.computed)

let query ?tweak t q =
  let cfg =
    match tweak with None -> t.base.Engine.cfg | Some f -> f t.base.Engine.cfg
  in
  let t0 = Unix.gettimeofday () in
  let tokens = Tokenizer.tokenize q in
  let parsed = Engine.parse cfg q in
  let pruned = Engine.prune cfg parsed in
  let td, ed =
    match t.prev with
    | None ->
        ( { Diff.kept = 0; added = List.length tokens; removed = 0; pairs = [] },
          {
            Diff.e_kept = 0;
            e_added = List.length pruned.Depgraph.edges;
            e_removed = 0;
          } )
    | Some r ->
        ( Diff.tokens ~prev:r.tokens ~next:tokens,
          Diff.edges ~prev:r.pruned ~next:pruned )
  in
  let splice =
    match t.prev with
    | Some r ->
        (not r.outcome.Engine.timed_out)
        && stage_cfg_equal r.cfg cfg
        && Diff.equivalent ~prev:r.pruned ~next:pruned
    | None -> false
  in
  t.revs <- t.revs + 1;
  let outcome, words, pairs, dgg_rows =
    if splice then (
      let r = Option.get t.prev in
      let outcome =
        {
          r.outcome with
          Engine.time_s = Unix.gettimeofday () -. t0;
          stats = Stats.copy r.outcome.Engine.stats;
        }
      in
      ( outcome,
        { Reuse.reused = 0; computed = 0 },
        { Reuse.reused = 0; computed = 0 },
        { Reuse.reused = outcome.Engine.stats.Stats.dgg_nodes; computed = 0 } ))
    else (
      Mutex.lock t.mu;
      if not (tables_valid_for t cfg) then (
        Hashtbl.reset t.words;
        Hashtbl.reset t.pairs);
      t.run <- t.run + 1;
      t.w_reused <- 0;
      t.w_computed <- 0;
      t.p_reused <- 0;
      t.p_computed <- 0;
      Mutex.unlock t.mu;
      let outcome = Engine.synthesize_pruned cfg (hooked_target t) pruned in
      Mutex.lock t.mu;
      prune_stale t;
      t.table_cfg <- Some cfg;
      let words = { Reuse.reused = t.w_reused; computed = t.w_computed } in
      let pairs = { Reuse.reused = t.p_reused; computed = t.p_computed } in
      Mutex.unlock t.mu;
      ( outcome,
        words,
        pairs,
        { Reuse.reused = 0; computed = outcome.Engine.stats.Stats.dgg_nodes } ))
  in
  let reuse =
    {
      Reuse.revision = t.revs;
      splice;
      tokens_kept = td.Diff.kept;
      tokens_added = td.Diff.added;
      tokens_removed = td.Diff.removed;
      edges_kept = ed.Diff.e_kept;
      edges_added = ed.Diff.e_added;
      edges_removed = ed.Diff.e_removed;
      words;
      pairs;
      dgg_rows;
    }
  in
  trace_reuse cfg reuse;
  t.prev <- Some { tokens; pruned; outcome; cfg };
  (outcome, reuse)

let respond ?on_candidate ?tweak t req =
  (* serve one-shot requests (ranked hints, streams) through the session
     tables, but put the last revision's reuse accounting back afterwards *)
  Mutex.lock t.mu;
  let saved = (t.w_reused, t.w_computed, t.p_reused, t.p_computed) in
  Mutex.unlock t.mu;
  let cfg =
    match tweak with None -> t.base.Engine.cfg | Some f -> f t.base.Engine.cfg
  in
  let res =
    Engine.respond ?on_candidate
      { Engine.cfg; target = hooked_target t }
      req
  in
  Mutex.lock t.mu;
  let wr, wc, pr, pc = saved in
  t.w_reused <- wr;
  t.w_computed <- wc;
  t.p_reused <- pr;
  t.p_computed <- pc;
  Mutex.unlock t.mu;
  res

let reset t =
  Mutex.lock t.mu;
  Hashtbl.reset t.words;
  Hashtbl.reset t.pairs;
  t.table_cfg <- None;
  Mutex.unlock t.mu;
  t.prev <- None;
  t.revs <- 0
