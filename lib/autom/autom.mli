(** The compiled grammar automaton: {!Dggt_grammar.Ggraph} precompiled
    into immutable state tables, so EdgeToPath's per-query path work
    becomes table lookups instead of repeated graph-walking. It is the
    engine's only path search.

    {!compile} runs once per grammar — at pack-load / registry-swap time,
    never per request — and produces:

    - {e transition tables}: the reversed search's parent transitions as
      flat int arrays indexed by node id — one bounds-checked array read
      per step where the interpreted walk paid a list traversal and an
      edge-record load;
    - {e distance rows}: the shortest-path row of every API node and the
      grammar root, precomputed — the search's branch-and-bound test is
      an O(1) array read with no memo mutex;
    - a {e path memo}: enumerated path sets keyed by
      [(src, dst, limits)], shared across queries (the per-pair path set
      is query-independent), mutex-guarded and bounded.

    The searches are {e byte-identical} to the interpreted reversed DFS
    kept as the oracle [Dggt_eval.Refgpath] — same paths, same order,
    same truncation under every limit — because they port the same
    iterative-deepening control flow (step budget counted per visit,
    distance-based branch cut, round structure) onto the compiled
    tables. The equivalence is property-tested on random grammars and on
    every API pair of the built-in domains.

    The automaton is immutable after compile (the memo is internally
    synchronized): share one freely across worker domains. *)

type t

val compile :
  ?trace:Dggt_obs.Trace.sink -> ?memo_cap:int -> Dggt_grammar.Ggraph.t -> t
(** Build the state tables for a grammar graph. Cost is one pass over
    the parent lists plus one BFS per API node and the root —
    milliseconds even on the 505-API matcher grammar; amortized across
    every query served against the pack. Emits an [AutomatonCompile]
    span (node/edge/API counts, digest) when [trace] is given. [memo_cap]
    (default 65536) bounds the path-memo entry count; a full memo stops
    inserting (results are still computed and returned), so behavior
    stays deterministic. *)

val graph : t -> Dggt_grammar.Ggraph.t
(** The graph the automaton was compiled from. The engine synthesizes
    against this graph ([Dggt_core.Engine.target]), so an automaton and
    the graph it searches cannot disagree. *)

val digest : t -> string
(** Hex digest over the grammar graph's structure (node kinds, edges,
    root). Two automatons of structurally identical grammars share it —
    what [GET /version] reports and the registry cache keys on. *)

val compile_time_s : t -> float
(** Wall-clock seconds {!compile} took. *)

(** {2 Path enumeration (EdgeToPath)}

    Both searches run the compiled table walk, memoized per
    [(src, dst, limits)]; [limits] defaults to
    {!Dggt_grammar.Gpath.default_limits}. *)

val paths_between_apis :
  ?limits:Dggt_grammar.Gpath.limits ->
  t ->
  src_api:string ->
  dst_api:string ->
  Dggt_grammar.Gpath.t list
(** All simple grammar paths from API [src_api] down to API [dst_api],
    ancestor first — byte-identical to [Refgpath.search_between_apis];
    unknown names yield []. [src_api = dst_api] yields the single
    one-node path. *)

val paths_from_root :
  ?limits:Dggt_grammar.Gpath.limits -> t -> dst:int -> Dggt_grammar.Gpath.t list
(** All simple paths from the grammar root down to API node [dst] —
    byte-identical to [Refgpath.search_from_root] (the HISyn orphan
    treatment's root-anchored search). A [dst] that is not an API node
    yields []. *)

(** {2 Introspection} *)

type memo_counters = { hits : int; misses : int; entries : int }

val memo_counters : t -> memo_counters
(** Lifetime hit/miss counts and current entry count of the path memo
    (feeds the server's [dggt_cache_*{cache="autom_memo"}] series). *)

val memo_words : t -> int
(** The words of heap the path memo keeps alive: its table, keys and
    path lists, counted by a walk over them ([Obj.reachable_words]),
    exact and independent of when the GC last ran. The walk visits every
    memoized path under the memo's lock; for benchmarks, not for a
    serving path. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: nodes, APIs, transitions, distance rows, digest
    prefix, compile time. *)
