(** An incremental synthesis session: as-you-type queries against one domain.

    A session remembers the previous revision of the query — its token
    stream, pruned dependency graph and outcome — together with the
    WordToAPI candidate sets and EdgeToPath path tables it computed, keyed
    by what the computes actually depend on (lemma+POS for words, API pair
    for paths). A revised query then pays only for what the edit dirtied:

    - {b words/pairs}: stage 3/4 lookups hit the session tables through the
      engine's transparent {!Dggt_core.Engine.lookups} hooks, so reuse
      cannot change a single byte of the result — a hook returns exactly
      what the compute thunk would have;
    - {b whole suffix (splice)}: when the new pruned graph is
      {!Diff.equivalent} to the previous one (e.g. the edit only touched
      words that pruning drops, or whitespace/punctuation), stages 3-6 are
      skipped wholesale and the previous outcome is replayed with fresh
      [time_s] and a {!Dggt_core.Stats.copy} of the counters. This leans on
      the determinism invariant documented at
      {!Dggt_core.Engine.synthesize_pruned}.

    Anything finer — splicing individual DGG rows across a {e changed}
    pruned graph — is unsound here: PathMerge tie-breaks on DGG node
    creation order, which partial reuse would perturb. So the dirtying rule
    is deliberately coarse: {e any} pruned-graph change recomputes stages
    5-6 (with stages 3-4 still served from the tables). The equivalence
    property test over random edit scripts pins byte-identical outcomes
    either way.

    Thread-safety: the lookup hooks are mutex-guarded (the EdgeToPath stage
    may probe them from pool workers); {!query}/{!respond}/{!reset} calls on
    one session must themselves be serialized by the caller (the server
    holds a per-session lock; the repl is single-threaded). *)

type t

val create : Dggt_core.Engine.session -> t
(** Wrap a configured domain session. The session's own memo tables layer
    {e on top of} any caches already installed in the target: a session
    miss falls through to the shared cache before computing. The config's
    [unit_filter] must not change across revisions of one session (it is a
    closure, so compatibility cannot be checked; every other
    result-affecting field is). *)

val revisions : t -> int
(** Number of {!query} calls answered so far. *)

val query :
  ?tweak:(Dggt_core.Engine.config -> Dggt_core.Engine.config) ->
  t ->
  string ->
  Dggt_core.Engine.outcome * Reuse.t
(** Synthesize one revision of the query. [tweak] adjusts the base config
    for this call (trace sink, timeout); changing [path_limits]
    invalidates the memo tables, and any result-affecting
    change disables the splice — both keep the equivalence guarantee.
    Emits an ["IncrementalReuse"] span (after the stage spans) when tracing
    is on. Never raises. *)

val respond :
  ?on_candidate:(Dggt_core.Engine.candidate -> unit) ->
  ?tweak:(Dggt_core.Engine.config -> Dggt_core.Engine.config) ->
  t ->
  Dggt_core.Engine.request ->
  Dggt_core.Engine.outcome
(** {!Dggt_core.Engine.respond} through the session's memo tables:
    one-shot requests (ranked hints, streamed candidates) that do not
    advance the revision history or disturb the last {!query}'s reuse
    accounting. [on_candidate] is the streaming hook — see
    {!Dggt_core.Engine.respond}; [tweak] adjusts the base config for this
    call (trace sink, timeout) exactly as in {!query}. *)

val reset : t -> unit
(** Drop the revision history and memo tables; the next {!query} computes
    from scratch. *)
