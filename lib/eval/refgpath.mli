(** Reference EdgeToPath search: the interpreted reversed all-path DFS
    the engine ran before {!Dggt_autom.Autom} compiled it into state
    tables, preserved as an executable oracle. The automaton's searches
    must be byte-identical to these — same paths, same order, same
    truncation under every limit; [test autom] checks it on random
    grammars and every API pair of the built-in domains, and
    [bench automaton] runs whole query sets through it via the
    {!Dggt_core.Engine.lookups} [edge2path] hook ({!lookups}). Keep the
    searches frozen. *)

val search_between_apis :
  ?limits:Dggt_grammar.Gpath.limits ->
  Dggt_grammar.Ggraph.t ->
  src_api:string ->
  dst_api:string ->
  Dggt_grammar.Gpath.t list
(** All simple paths from API [src_api] down to API [dst_api], found by
    iterative-deepening reversed DFS; unknown names yield [], and
    [src_api = dst_api] the single one-node path. *)

val search_from_root :
  ?limits:Dggt_grammar.Gpath.limits ->
  Dggt_grammar.Ggraph.t ->
  dst:int ->
  Dggt_grammar.Gpath.t list
(** The same search from the grammar's start nonterminal down to API
    node [dst]; a [dst] that is not an API node has no path. *)

val lookups : Dggt_domains.Domain.t -> Dggt_core.Engine.lookups
(** Engine lookups whose [edge2path] hook answers every pair search with
    {!search_between_apis} on the domain's graph under its path limits,
    ignoring the automaton's compute. Through
    {!Dggt_eval.Runner.run_domain}'s [caches] this is the reference
    pipeline: DGGT with orphan relocation issues only pair searches, so
    none of them reaches the automaton. *)
