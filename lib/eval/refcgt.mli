(** Reference CGT tree check: the quadratic in-degree fold
    {!Dggt_core.Cgt} used before its one-pass [is_tree] and [root],
    preserved as an executable oracle. {!Refmerge} runs on it, and the
    property suite holds the one-pass check to it on random edge
    subsets. Keep this file frozen. *)

val is_tree : Dggt_grammar.Ggraph.t -> Dggt_core.Cgt.t -> bool
val root : Dggt_grammar.Ggraph.t -> Dggt_core.Cgt.t -> int option

val well_formed : Dggt_grammar.Ggraph.t -> Dggt_core.Cgt.t -> bool
(** [is_tree && Cgt.is_grammar_valid]. *)
