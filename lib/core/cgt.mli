(** Code generation trees (CGTs).

    A CGT is a subgraph of the grammar graph, represented as the set of
    grammar-graph edges it uses plus any isolated nodes (a zero-length
    grammar path contributes a node but no edge). Candidate CGTs arise by
    merging grammar paths — merging fuses shared nodes and edges, which is
    exactly set union here.

    A CGT is {e well-formed} when (i) it is a tree: every used node has at
    most one incoming used edge and all nodes are reachable from a single
    root; and (ii) it is {e grammar-valid}: each node's outgoing used edges
    belong to a single production (one "or"-alternative per nonterminal,
    one production per head API). Its size is the number of API nodes it
    covers — the quantity both engines minimize. *)

type t

val empty : t
val is_empty : t -> bool
val of_paths : Dggt_grammar.Ggraph.t -> Dggt_grammar.Gpath.t list -> t
val merge : t -> t -> t
val merge_path : t -> Dggt_grammar.Gpath.t -> t
val edge_ids : t -> int list
val edge_count : t -> int
val mem_edge : t -> int -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val nodes : Dggt_grammar.Ggraph.t -> t -> int list
val api_size : Dggt_grammar.Ggraph.t -> t -> int
(** Number of distinct API nodes covered. *)

val is_tree : Dggt_grammar.Ggraph.t -> t -> bool
(** One pass over the edges (in-degree and successor tables), then one
    DFS from the root. The empty CGT is a tree. *)

val is_grammar_valid : Dggt_grammar.Ggraph.t -> t -> bool
val well_formed : Dggt_grammar.Ggraph.t -> t -> bool
(** [is_tree && is_grammar_valid]. The empty CGT is well-formed. *)

val root : Dggt_grammar.Ggraph.t -> t -> int option
(** The unique node without an incoming edge, when the CGT is a nonempty
    tree; [None] otherwise. *)

val pp : Dggt_grammar.Ggraph.t -> Format.formatter -> t -> unit
