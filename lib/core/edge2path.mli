(** Step 4: EdgeToPath — candidate grammar paths per dependency edge.

    For every edge (n1 -> n2) of the pruned dependency graph and every pair
    (a, b) of candidate APIs of n1 and n2, the reversed all-path search
    collects the grammar paths a ~> b. A dependent with no path for any
    candidate pair is an {e orphan} (paper §V-B).

    Paths carry integer ids, unique within a map and numbered from 0
    ({!id_bound}); they carry no display label. *)

type epath = {
  id : int;             (** unique within this map *)
  edge : Dggt_nlu.Depgraph.edge;
  gov_api : string option; (** None for root-anchored orphan paths *)
  dep_api : string;
  path : Dggt_grammar.Gpath.t;
}

type t

val build :
  ?limits:Dggt_grammar.Gpath.limits ->
  ?pair_lookup:
    (src:string ->
    dst:string ->
    (unit -> Dggt_grammar.Gpath.t list) ->
    Dggt_grammar.Gpath.t list) ->
  Dggt_autom.Autom.t ->
  Dggt_nlu.Depgraph.t ->
  Word2api.t ->
  t
(** Computes candidate paths for every edge, searched on the compiled
    automaton ({!Dggt_autom.Autom.paths_between_apis}, memoized across
    queries). Orphan dependents are only {e detected} here; how they are
    handled differs per engine: the HISyn baseline re-anchors them at the
    grammar root ({!anchor_orphans}), DGGT relocates them ({!Orphan}).

    [pair_lookup] is a memoization hook for the per-pair all-path search:
    when given, the paths for [(src_api, dst_api)] come from
    [pair_lookup ~src ~dst compute] instead of a direct search. The search
    depends only on the grammar graph, the API pair and [limits] — both
    query-independent — so a serving layer can back the hook with a cache
    keyed [(domain, src, dst)] and reuse results across requests. *)

val paths_of_edge : t -> Dggt_nlu.Depgraph.edge -> epath list
val orphans : t -> int list
(** Dependent node ids whose edge has no candidate path, token order. *)

val total_path_count : t -> int
(** Cached at construction — O(1), safe to poll per request (the tracer
    does). *)

val id_bound : t -> int
(** Every path id of the map is below it: ids are numbered from 0, so a
    walk can keep per-path facts in an array of this length. *)

val anchor_orphans :
  ?limits:Dggt_grammar.Gpath.limits ->
  Dggt_autom.Autom.t ->
  Dggt_nlu.Depgraph.t ->
  Word2api.t ->
  t ->
  Dggt_nlu.Depgraph.t * t
(** The HISyn treatment: every orphan becomes a child of the dependency
    root, with candidate paths searched from the {e grammar root} down to
    the orphan's APIs ([gov_api = None]). Returns the rewritten dependency
    graph and the extended map. The root-anchored searches run on the
    automaton ({!Dggt_autom.Autom.paths_from_root}); [pair_lookup] does
    not see them. *)
