(** The end-to-end synthesis driver: query text in, codelet out.

    Runs the six-step pipeline with either engine for step 5:

    + dependency parsing ({!Dggt_nlu.Depparser});
    + query-graph pruning ({!Queryprune}), plus removal of words the
      WordToAPI step cannot cover;
    + WordToAPI ({!Word2api});
    + EdgeToPath ({!Edge2path});
    + PathMerging — {!Hisyn} (exhaustive baseline) or {!Dggt}; orphans are
      root-anchored (HISyn) or relocated ({!Orphan}, DGGT);
    + TreeToExpression ({!Tree2expr}) with query-literal binding.

    The {e what} to synthesize against is a {!target} — the domain's
    compiled grammar automaton and API document plus optional per-stage
    caches — built
    once per domain; the {e how} is a {!config}. Every stage emits a
    {!Dggt_obs.Trace} span when [config.trace] is set, recording its
    decisions (word→API candidates with scores, per-edge path counts,
    relocation choices, DGG [min_size] updates); with [trace = None] the
    instrumentation is a single pattern match per stage and the pipeline
    behaves exactly as before.

    Timeouts follow the paper's protocol: a wall-clock budget (default
    20 s) checked inside the enumeration loops; an exhausted budget makes
    the query a timeout (counted as an error, time capped at the limit). *)

type algorithm = Hisyn_alg | Dggt_alg

type lookups = {
  word2api :
    (lemma:string ->
    pos:Dggt_nlu.Pos.t ->
    (unit -> Word2api.candidate list) ->
    Word2api.candidate list)
    option;  (** {!Word2api.build}'s [lookup] hook *)
  edge2path :
    (src:string ->
    dst:string ->
    (unit -> Dggt_grammar.Gpath.t list) ->
    Dggt_grammar.Gpath.t list)
    option;  (** {!Edge2path.build}'s [pair_lookup] hook *)
}
(** Optional memoization hooks threaded into the per-stage builders. Both
    stages compute query-independent facts — a word's candidate APIs and the
    grammar paths between an API pair — so a serving layer can back these
    with shared caches and skip recomputation on repeat traffic. The hooks
    receive a [compute] thunk and must return its (possibly cached) result;
    cache keys must cover everything scoring depends on besides the
    arguments: the document/grammar and the configuration. *)

type target = {
  autom : Dggt_autom.Autom.t;
      (** the grammar compiled into state tables
          ({!Dggt_autom.Autom.compile}): EdgeToPath runs on its
          transition tables and cross-query path memo, and the grammar
          graph every other stage reads is its own
          ({!Dggt_autom.Autom.graph}) *)
  doc : Apidoc.t;
  caches : lookups;
      (** per-stage memoization; no hook = compute everything. Part
          of the target, not the config: installing caches means building
          a different target, never mutating how the engine runs. *)
}
(** What to synthesize against. Build one per domain (automaton and
    document are immutable and shared freely across threads) and reuse
    it for every query — {!Dggt_domains.Domain.configure} returns a
    ready {!session}. *)

val target : ?caches:lookups -> Dggt_autom.Autom.t -> Apidoc.t -> target
(** [caches] defaults to no hooks: every stage computes. *)

type config = {
  algorithm : algorithm;
  timeout_s : float option;   (** None = no wall-clock limit *)
  max_steps : int option;     (** deterministic budget for tests *)
  top_k : int;                (** WordToAPI candidate fan-out *)
  path_limits : Dggt_grammar.Gpath.limits;
  gprune : bool;              (** grammar-based pruning (DGGT) *)
  sprune : bool;              (** size-based pruning (DGGT) *)
  orphan_reloc : bool;        (** orphan relocation (DGGT); false falls
                                  back to HISyn's root anchoring *)
  defaults : (string * string) list;
      (** nonterminal -> default codelet for argument completion
          ({!Tree2expr.of_cgt}); [] for domains without required args *)
  unit_filter : (string -> bool) option;
      (** restricts the candidate APIs of a conditional clause's subject
          (the iterated unit) to scope-like APIs; None = no restriction *)
  stop_verbs : string list;
      (** imperative root verbs with no API meaning in the domain ("find",
          "list" for code search): dropped before WordToAPI *)
  trace : Dggt_obs.Trace.sink option;
      (** stage-level tracing sink; [None] (the default) is the zero-cost
          off switch. Sinks are single-request: build one per call. *)
}
(** How to run. The WordToAPI score threshold
    ({!Dggt_nlu.Similarity.min_score}) and the cap on orphan-relocation
    variants (8) are constants of their stages, and the PathMerge
    objective follows the request's {!mode}. Parallelism note: the engine computes one query strictly
    sequentially — [BENCH_parallel.json] showed intra-query fan-out of
    the per-pair searches running 0.6–0.9x {e slower} than sequential,
    so that knob is gone. Throughput comes from running {e whole
    queries} concurrently (the server's worker pool,
    {!Dggt_eval.Runner}'s [pool]); per-query search cost is attacked by
    the compiled automaton ([target.autom]) instead. *)

val default : algorithm -> config
(** 20 s timeout, top_k 4, default path limits, all optimizations on,
    tracing off. *)

type ranked = {
  expr : Tree2expr.expr;
  code : string;   (** [Tree2expr.to_string] of [expr] *)
  size : int;      (** CGT size in APIs *)
  coverage : int;  (** query words the candidate interprets *)
  score : float;   (** WordToAPI score of its assignment *)
}
(** One entry of an n-best list. *)

type outcome = {
  expr : Tree2expr.expr option;  (** the synthesized codelet *)
  code : string option;          (** [Tree2expr.to_string] of [expr] *)
  cgt_size : int option;
  ranked : ranked list;
      (** the n-best list, best first — populated by [Ranked]-mode
          {!respond} (its head is [code] whenever a codelet was found);
          [[]] in [Plain] mode and on timeout *)
  time_s : float;                (** wall-clock, capped at the limit on
                                     timeout *)
  timed_out : bool;
  failure : string option;       (** set when no codelet was produced *)
  stats : Stats.t;
}

type session = { cfg : config; target : target }
(** A ready-to-run pairing of the {e how} ({!config}) with the {e what}
    ({!target}). {!Dggt_domains.Domain.configure} returns one; callers that
    need a variant configuration (a trace sink, a different timeout) update
    [cfg] with {!with_cfg} — the target, holding the forced grammar and the
    shared caches, is reused as is. *)

val with_cfg : (config -> config) -> session -> session
(** [with_cfg f s] is [{ s with cfg = f s.cfg }]. *)

(** {2 The request shape}

    The one query entry point, for every delivery mode. A {!request}
    says {e what} to answer ([input]: the query text) and {e in which
    shape} ([mode]: the plain single-codelet outcome, or an n-best list
    of [k] ranked candidates);
    {!respond} executes it over a {!session}. Streaming is not a third
    mode but a delivery option of the same request: pass [on_candidate]
    and [Ranked]-mode responses additionally emit every improving
    root-cell candidate while the chart walk runs — the returned outcome
    (with its final [ranked] list) is byte-identical with and without
    the callback. *)

type input = Text of string  (** run the full pipeline from stage 1 *)

type mode =
  | Plain
      (** one codelet; [outcome.ranked] is [[]]. PathMerge runs under
          {!Semiring.Min_size}, the paper's objective. *)
  | Ranked of int
      (** up to [k] candidate codelets (paper §VII-B.4), best first, in
          [outcome.ranked] — the full DGGT pipeline run under
          {!Semiring.Top_k}[ k] (the algorithm is forced to [Dggt_alg]),
          so the list is a real n-best read off the finished chart,
          sorted by {!Dggt.root_compare} and duplicate-free (by code).
          The head is pinned to the [Plain] codelet — an invariant, not
          a sorting accident: root selection compares scores exactly
          while cell order uses the 1e-9 epsilon, so an epsilon-tied
          sibling could otherwise sort first (see DESIGN.md). [k <= 1]
          degenerates to the {!Semiring.Min_size} chart. Timeouts yield
          [ranked = []] with [timed_out] set. *)

type request = { input : input; mode : mode }

type candidate = {
  rank : int;      (** 1-based position in the live n-best at emission *)
  code : string;
  size : int;      (** CGT size in APIs *)
  coverage : int;  (** query words the candidate interprets *)
  score : float;   (** WordToAPI score of its assignment *)
  revision : int;  (** monotone per-request emission counter, from 1 *)
}
(** One streamed emission: the chart walk found a candidate that entered
    (or moved up in) the current top-[k]. Revisions are strictly
    increasing; ranks are positions in the {e live} list, so a later
    revision can demote an earlier code. Candidates are interim — under
    orphan relocation each variant streams its own improvements — and
    only the terminal [outcome.ranked] list is authoritative. *)

val respond : ?on_candidate:(candidate -> unit) -> session -> request -> outcome
(** Execute one request. Never raises (callback exceptions excepted —
    [on_candidate] runs on the synthesizing thread, inside the budget'd
    region, and is only consulted in [Ranked] mode: [Plain] requests
    have no n-best to improve, so the callback never fires there). *)

type merge_fn =
  budget:Dggt_util.Budget.t ->
  stats:Stats.t ->
  gprune:bool ->
  sprune:bool ->
  ?trace:Dggt_obs.Trace.span ->
  Dggt_grammar.Ggraph.t ->
  Dggt_nlu.Depgraph.t ->
  Word2api.t ->
  Edge2path.t ->
  Synres.t option
(** The PathMerge seam: the signature of a step-5 implementation as the
    DGGT pipeline calls it (once per relocation variant). *)

val synthesize_with_merge : merge:merge_fn -> config -> target -> string -> outcome
(** A [Plain] text {!respond} with a replacement PathMerge spliced into
    the DGGT pipeline (the algorithm is forced to [Dggt_alg]; orphan relocation,
    variant selection, budget and timeout handling are unchanged). Used
    by [bench pathmerge] and the property suite to run the pre-semiring
    reference walk ({!Dggt_eval.Refmerge}) against the semiring one on
    identical inputs. Never raises. *)

(** {2 Stage boundaries}

    The incremental layer ({!Dggt_inc.Session}) needs to stop the pipeline
    between stages: parse and prune first, compare the pruned graph against
    the previous revision's, and only run the expensive stages 3-6 when the
    comparison says it must. A [Plain] {!respond} to [Text q] is exactly
    [synthesize_pruned cfg target (prune cfg (parse cfg q))]; splitting
    the call changes nothing about the result or the emitted trace
    spans. *)

val parse : config -> string -> Dggt_nlu.Depgraph.t
(** Stage 1 alone (emits the DependencyParse span when tracing). *)

val prune : config -> Dggt_nlu.Depgraph.t -> Dggt_nlu.Depgraph.t
(** Stage 2 alone — POS pruning plus the domain's stop-verb drop (emits the
    QueryPrune span when tracing). *)

val synthesize_pruned : config -> target -> Dggt_nlu.Depgraph.t -> outcome
(** Stages 3-6 over an already-pruned dependency graph. The pruned graph
    (node lemmas/POS/literals in order, edge list in order, root position)
    together with the target and the config determines the outcome's
    codelet and statistics completely — the invariant the incremental
    splice rests on. Never raises. *)

val stage_names : string list
(** The span names of the six pipeline stages, in pipeline order:
    DependencyParse, QueryPrune, WordToAPI, EdgeToPath, PathMerge,
    TreeToExpr. Sub-spans (OrphanRelocation, OrphanAnchor) nest under
    PathMerge and are not listed. *)
