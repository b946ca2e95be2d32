(** Code generation trees (CGTs).

    A CGT is a subgraph of the grammar graph, represented as the set of
    grammar-graph edges it uses plus any isolated nodes (a zero-length
    grammar path contributes a node but no edge): two sorted,
    duplicate-free arrays of ids. Candidate CGTs arise by merging grammar
    paths — merging fuses shared nodes and edges, so it is the union of
    both id sets, taken by one linear merge.

    A CGT is {e well-formed} when (i) it is a tree: every used node has at
    most one incoming used edge and all nodes are reachable from a single
    root; and (ii) it is {e grammar-valid}: each node's outgoing used edges
    belong to a single production (one "or"-alternative per nonterminal,
    one production per head API). Its size is the number of API nodes it
    covers — the quantity both engines minimize. *)

type t

val empty : t
val is_empty : t -> bool
val of_paths : Dggt_grammar.Gpath.t list -> t

val merge : t -> t -> t
(** The union. Returns an operand itself when the other adds nothing. *)

val node : int -> t
(** The CGT of one grammar node and no edge (a lone API: a leaf's seed,
    a single-word answer). *)

val of_ids : edges:int list -> lone:int list -> t
(** The CGT of any edge ids and lone node ids, in any order, repeats
    allowed: a subgraph no grammar path need span, such as the tree
    check's test shapes. *)

val merge_path : t -> Dggt_grammar.Gpath.t -> t
(** Adds a path's edges, or its one node when it has no edge. *)

val fuse : t -> Dggt_grammar.Gpath.t -> t -> t
(** [fuse t p u] is [merge (merge_path t p) u], in one merge. It merges
    the path's [edges] as they are, which {!Dggt_grammar.Gpath} keeps
    strictly ascending: no copy or sort per call. *)

val edge_ids : t -> int list
(** Ascending. *)

val lone_ids : t -> int list
(** Nodes contributed without an edge (they may also be edge ends),
    ascending. *)

val mem_edge : t -> int -> bool
val equal : t -> t -> bool

val compare : t -> t -> int
(** Edge ids first, then lone ids, each compared lexicographically in
    ascending order with a prefix before its extensions: the order of
    [Set.Make(Int).compare] on the same sets. *)

(** {2 The tree check}

    Every question below is answered by one pass over a CGT's edges and
    lone nodes: it rejects a node with two incoming edges (fan-in) and a
    node whose outgoing edges belong to two productions, counts nodes,
    edges and API nodes, and records each node's parent. A CGT without
    fan-in has exactly [nodes - edges] parentless nodes, so
    [nodes - edges = 1] leaves one root, and the CGT is a tree exactly
    when every node's parent chain reaches that root (no cycle); the
    chains are walked once, each node marked as it is settled. *)

type scratch
(** Arrays sized by the grammar's node count, reset between passes by a
    generation stamp, so a pass allocates nothing. A scratch belongs to
    one synthesis: never share one between concurrent requests (or
    threads). A pass visits the edges, then the lone nodes, each in
    ascending id order. *)

val scratch : Dggt_grammar.Ggraph.t -> scratch
val graph : scratch -> Dggt_grammar.Ggraph.t

val check : scratch -> t -> int
(** The API size of a well-formed CGT, [-1] for any other. The pass stops
    at the first fan-in or production clash. The empty CGT is
    well-formed, of size 0. *)

val well_formed : scratch -> t -> bool
(** [check s t >= 0]. *)

val api_size : scratch -> t -> int
(** Number of distinct API nodes covered, well-formed or not. *)

val root : scratch -> t -> int option
(** The unique node without an incoming edge, when the CGT is a nonempty
    tree (grammar-valid or not); [None] otherwise. *)

val is_tree : scratch -> t -> bool
(** The empty CGT is a tree. *)
