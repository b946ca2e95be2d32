(** The dynamic grammar graph (paper §IV-B.1).

    Three node kinds: the start node; API nodes N_(dep word, API); and
    partial-CGT nodes recording one surviving path combination of sibling
    edges. Two edge kinds: path edges (carrying the epath id of the grammar
    path they represent) and auxiliary zero-length edges (start -> API,
    PCGT -> its root API).

    Every node owns a chart cell ({!Semiring.Cell.t}) memoizing the best
    partial CGT(s) from the start node to itself under the graph's
    objective — the dynamic programming state that lets DGGT assemble the
    global optimum without re-merging shared substructure. The DP state is
    sealed: only {!improved} (the semiring accumulation) writes a cell;
    everything else goes through the read-only accessors below. *)

type node_kind =
  | Start
  | ApiN of { dep : int; api : string }
      (** candidate API [api] for dependency node [dep] *)
  | PcgtN of { dep : int; api : string; idx : int }
      (** [idx]-th surviving combination for governor [dep] resolved as
          [api] *)

type node

type edge = { src : int; dst : int; epath : int option (** None = auxiliary *) }

type t

val create : Semiring.t -> t
(** A fresh graph whose cells accumulate under the given objective. The
    start node holds the empty derivation (size 0). *)

val start : t -> node
val id : node -> int
val kind : node -> node_kind

val add_api : t -> dep:int -> api:string -> node
(** Returns the existing node when (dep, api) was added before. *)

val find_api : t -> dep:int -> api:string -> node option
val add_pcgt : t -> dep:int -> api:string -> idx:int -> node
val add_edge : t -> src:node -> dst:node -> epath:int option -> unit

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
val edges : t -> edge list
val node_count : t -> int
val edge_count : t -> int

val api_nodes_of_dep : t -> int -> node list
(** All API nodes registered for a dependency node, insertion order. *)
