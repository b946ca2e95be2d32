(** Reference CGT checks: the quadratic in-degree fold, the per-call
    production table and the node-set API count {!Dggt_core.Cgt} used
    before its one-pass scratch check, preserved as an executable oracle.
    {!Refmerge} runs on them, and the property suite holds the one-pass
    check to them on random edge subsets. Keep this file frozen. *)

val api_size : Dggt_grammar.Ggraph.t -> Dggt_core.Cgt.t -> int
(** Number of distinct API nodes covered. *)

val is_tree : Dggt_grammar.Ggraph.t -> Dggt_core.Cgt.t -> bool
val root : Dggt_grammar.Ggraph.t -> Dggt_core.Cgt.t -> int option

val is_grammar_valid : Dggt_grammar.Ggraph.t -> Dggt_core.Cgt.t -> bool
(** Each node's outgoing edges belong to one production. *)

val well_formed : Dggt_grammar.Ggraph.t -> Dggt_core.Cgt.t -> bool
(** [is_tree && is_grammar_valid]. *)
