(** Dynamic grammar graph-based translation — the paper's Algorithm 1.

    DGGT replaces HISyn's global combination enumeration with dynamic
    programming over the pruned dependency graph, processed bottom-up:

    - a leaf word's candidate APIs seed singleton partial CGTs;
    - a governor with a single child (Case I) extends each child partial
      CGT along each candidate grammar path, keeping the smallest per
      (word, API) pair;
    - a governor with sibling children (Case II) enumerates only the
      per-level combinations of its children's paths — grammar-based and
      size-based pruning run {e before} prefix trees are merged — and
      counts each merged survivor as a partial-CGT node;
    - the optimal global CGT is read off the root word's best API node
      (the memoized cell makes the paper's backtrack a lookup).

    The walk is one generic chart traversal over the {!Semiring} algebra,
    instantiated per objective. It always extends by each child's best
    candidate, so the candidate stream into every cell — and therefore
    the winning CGT, the statistics and the emitted trace notes — is
    identical for every objective; {!Semiring.Top_k} merely retains more
    of that stream per cell.

    Complexity: O(sum over levels of p^e) instead of O(product). *)

val synthesize_with_graph :
  ?objective:Semiring.t ->
  budget:Dggt_util.Budget.t ->
  stats:Stats.t ->
  ?gprune:bool ->
  ?sprune:bool ->
  ?trace:Dggt_obs.Trace.span ->
  ?on_improve:(Semiring.cand -> unit) ->
  Dggt_grammar.Ggraph.t ->
  Dggt_nlu.Depgraph.t ->
  Word2api.t ->
  Edge2path.t ->
  Synres.t option * Dgg.t
(** The answer and the constructed dynamic grammar graph (read by the
    ranked mode and tests). Both pruning optimizations default to
    enabled; [objective] defaults to {!Semiring.Min_size}. Raises
    {!Dggt_util.Budget.Exhausted} on budget exhaustion. Returns the graph
    structure statistics through [stats]. When [trace] is given (the
    engine's open PathMerge span), decision-level notes are recorded on
    it: per-governor combination counts before/after each pruning pass,
    [min_size] improvements per (word, API) memo, and the final DGG level
    sizes.

    [on_improve] is the streaming emission seam: it fires inside the
    chart walk each time a {e root} cell's best-first bounded cell
    changes — i.e. whenever one of the root dependency word's API-node
    cells (exactly the cells {!ranked_of_graph} later reads the n-best
    off) accepts a new best candidate. The callback receives the
    candidate that caused the change, in walk order: a strictly
    improving sequence per root cell, whose last emission per cell is
    that cell's final best. It must not mutate the graph; it runs on
    the synthesizing thread, so a slow callback slows the walk. [None]
    (the default) is a single closure check per improvement. *)

val governor_groups :
  Dgg.t ->
  Edge2path.t ->
  Dggt_nlu.Depgraph.t ->
  int ->
  (string * Edge2path.epath list list) list
(** [governor_groups dyng e2p dg id] are the sibling groups the chart
    walk hands {!Gprune.combos} at dependency node [id], given the graph
    as it stands when [id] is processed (its children's cells are final
    by then, so the finished graph gives the same answer). A child edge's
    usable paths are those whose dependent interpretation has a solved
    API node. Per governor API they name (first-seen order), one group
    per child edge with a usable path, in child-edge order, holding that
    edge's paths from the API or from no API (a root-anchored orphan path
    joins every group). A governor is listed only when none of its groups
    is empty. *)

val child_extra : Dgg.t -> Edge2path.epath -> int
(** The per-path extra weight the walk hands {!Gprune.prepare}: the size
    of the path's dependent interpretation beyond the API the path
    already counts ([Dgg.size - 1] of its solved API node, 0 when
    unsolved). *)

val root_compare : Dgg.node * Semiring.cand -> Dgg.node * Semiring.cand -> int
(** The final selection order over root-level candidates: coverage
    (descending), size, exact score (descending), [Cgt.compare], node
    creation order. This is the historical pre-semiring root selection;
    it refines {!Semiring.compare_cand} by replacing the score epsilon
    with exact comparison and adding the node-id tail. *)

val ranked_of_graph : Dgg.t -> root:int -> Semiring.cand list
(** The paper's §VII-B.4 usage mode: every candidate retained by the root
    word's API-node cells, best first under {!root_compare} (cell rank
    breaks residual ties). Under {!Semiring.Top_k} this is a real n-best
    list — up to k candidates per root interpretation, not one; its head
    is the walk's answer. Read-only: call after
    {!synthesize_with_graph} on the finished graph. *)
