(** Step 2: query-graph pruning.

    Removes the words that carry no domain semantics — determiners that are
    not quantifiers, prepositions left unconsumed by collapsing, pronouns,
    punctuation, copulas, generic stopwords — and splices their children up
    to the removed node's governor so the graph stays connected.

    Quantifying determiners ("every", "each", "all") survive: they map to
    iteration APIs in the editing domain. *)

val prune : Dggt_nlu.Depgraph.t -> Dggt_nlu.Depgraph.t
(** The root is preserved unless itself prunable (e.g. a stopword like
    "want" in "I want to delete ..."), in which case the most verb-like
    child is promoted. Pruning an empty or fully-prunable graph yields a
    graph with the original root only. *)

val drop_nodes : Dggt_nlu.Depgraph.t -> int list -> Dggt_nlu.Depgraph.t
(** Splice out the given nodes (children reattach to the governor, a
    dropped root promotes a child), used by the engine to remove words the
    WordToAPI step could not cover. Dropping the last remaining node is a
    no-op. *)
