(** The dynamic grammar graph (paper §IV-B.1).

    Three node kinds: the start node; API nodes N_(dep word, API); and
    partial-CGT nodes, one per merged combination of sibling paths. Two
    edge kinds: path edges (one per grammar path of a combination, or per
    single child edge) and auxiliary zero-length edges (start -> API,
    partial-CGT node -> its root API).

    Only the API nodes are stored. Every one owns a chart cell
    ({!Semiring.Cell.t}) memoizing the best partial CGT(s) from the
    start node to itself under the graph's objective — the dynamic
    programming state that lets DGGT assemble the global optimum without
    re-merging shared substructure. The DP state is sealed: only
    {!improved} (the semiring accumulation) writes a cell; everything
    else goes through the read-only accessors below.

    The start node, the partial-CGT nodes and the edges are counted, not
    stored: the walk reads a combination's candidate once, offering it to
    the governor's API node, so nothing ever reads the combination's own
    node, the start node or the edges again. Node ids follow creation
    order with the start node (id 0) and the combination nodes counted
    in. *)

type node
(** An API node: a candidate API for one dependency node. *)

type t

val create : Semiring.t -> t
(** A fresh graph whose cells accumulate under the given objective: the
    start node alone. *)

val id : node -> int

val dep : node -> int
(** The dependency node the API node interprets. *)

val add_api : t -> dep:int -> api:string -> node
(** Returns the existing node when (dep, api) was added before. *)

val find_api : t -> dep:int -> api:string -> node option

val count_edge : t -> unit
(** One edge into an API node: a seeded leaf's auxiliary edge from the
    start node, or a single child edge's path edge (Case I). *)

val count_combination : t -> paths:int -> unit
(** One merged combination of [paths] sibling paths (Case II): its
    partial-CGT node, a path edge per path and the auxiliary edge to the
    governor's API node. *)

val improved : node -> Semiring.cand -> bool
(** Accumulate a candidate into the node's cell ({!Semiring.Cell.plus}).
    Returns [true] when the node's best candidate changed — the tracing
    layer records exactly these [min_size] improvements. The only cell
    mutator. *)

val best : node -> Semiring.cand option
(** The node's optimal partial CGT, when one has been derived. *)

val solved : node -> bool
(** Has any candidate reached this node? *)

val size : node -> int
(** [size] of {!best}; [max_int] when unsolved (the historical
    [min_size] sentinel). *)

val choices : node -> Semiring.cand list
(** All retained candidates, best first (more than one only under
    {!Semiring.Top_k}). *)

val nodes : t -> node list
(** The API nodes, in creation order. *)

val node_count : t -> int
(** Every node, the start node and the combination nodes included. *)

val edge_count : t -> int

val api_nodes_of_dep : t -> int -> node list
(** All API nodes registered for a dependency node, insertion order. *)
