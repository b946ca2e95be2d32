(** Reference PathMerge: the pre-semiring DFS-of-record walk, preserved as
    an executable oracle. [bench pathmerge] and the semiring property tests
    run it through {!Dggt_core.Engine.synthesize_with_merge} and demand the
    outcome (code, CGT size, failure, timeout, statistics — including
    [dgg_improvements]) be byte-identical to the semiring walk under
    {!Dggt_core.Semiring.Min_size}. Keep this file frozen: it encodes the
    historical [update_min] replacement rule (coverage desc, size asc,
    score desc with the 1e-9 epsilon, {!Dggt_core.Cgt.compare} asc) that
    the semiring's [compare_cand] must reproduce. Grammar pruning,
    size pruning and the well-formedness check run on the frozen
    references {!Refgprune}, {!Refsprune} and {!Refcgt}. *)

val synthesize :
  budget:Dggt_util.Budget.t ->
  stats:Dggt_core.Stats.t ->
  gprune:bool ->
  sprune:bool ->
  ?trace:Dggt_obs.Trace.span ->
  Dggt_grammar.Ggraph.t ->
  Dggt_nlu.Depgraph.t ->
  Dggt_core.Word2api.t ->
  Dggt_core.Edge2path.t ->
  Dggt_core.Synres.t option
(** One PathMerge run over an already-pruned dependency graph with its
    WordToAPI and EdgeToPath tables. Mutates [stats] exactly as the
    semiring walk does and emits the same trace notes. Raises
    {!Dggt_util.Budget.Exhausted} on budget overrun (the caller —
    {!Dggt_core.Engine.synthesize_with_merge} — turns that into a
    timeout outcome, as the engine does for the production walk). *)
