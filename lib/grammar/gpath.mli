(** Grammar paths, the unit of the reversed all-path search (paper
    step 4).

    A grammar path is a simple directed path in the grammar graph from an
    ancestor node down to a descendant API node. Its {e size} is the number
    of API nodes it traverses (the unit in which CGT sizes are measured).

    The search itself is [Dggt_autom.Autom]: it runs {e reversed},
    starting from the descendant API and walking parent edges until the
    requested ancestor is reached — the direction HISyn uses because the
    dependent word's APIs are the anchors (paper §II step 4).

    A path is stored as what PathMerge reads of it, built once by {!make}
    when the search emits the path and shared from then on (the
    automaton memoizes path lists across queries): the edges' claims for
    grammar-based pruning, the API node ids for size-based pruning, and
    the edge ids in ascending order for the CGT merge. The node chain is
    not stored; {!nodes} derives it. *)

type t = private {
  claims : int array;
      (** one claim per edge, in path order (ancestor first): the edge's
          source node and production, packed into one int. Read it with
          {!claim_node} and {!claim_prod}; two claims are equal exactly
          when their nodes and productions are. *)
  apis : int array;  (** the API node ids along the path, in path order *)
  edges : int array;
      (** the edge ids, strictly ascending (a simple path uses an edge
          once); [length edges = length claims] *)
}

val make : Ggraph.t -> nodes:int array -> edges:int array -> t
(** [make g ~nodes ~edges] is the path whose node chain is [nodes] and
    whose edge [j] joins [nodes.(j)] to [nodes.(j + 1)], both in path
    order. Claim [j] packs [nodes.(j)] with edge [j]'s production, read
    from {!Ggraph.edge}. Raises [Invalid_argument] when [nodes] is not
    one longer than [edges], when a node or production id does not fit
    a claim (ids of at most [(Sys.int_size - 1) / 2] bits do), or when
    the last node is not an API node. *)

val claim_node : int -> int
(** The source node of a claim. *)

val claim_prod : int -> int
(** The production of a claim. *)

(** {2 Conflicts}

    Two paths conflict when they claim one node with different
    productions ({!Pathvote.conflicts}). These run the test over node-indexed
    arrays the caller owns, here where a claim is unpacked inline. *)

val hold : stamp:int array -> held:int array -> pass:int -> t -> unit
(** For each node [p] claims: [stamp.(node) <- pass] and [held.(node)]
    gets [p]'s claim on it. *)

val clashes : stamp:int array -> held:int array -> pass:int -> t -> bool
(** Whether [p] claims a node whose [stamp] is [pass] with another
    production than its [held] claim: a conflict with the path last held
    under [pass]. Claims are read in path order, top first, and the test
    stops at the first clash. *)

val nodes : t -> int array
(** The node chain, ancestor first: the claims' source nodes, then the
    last API. Allocated on each call; for tests and display. *)

val size : t -> int
(** Number of APIs on the path: [Array.length apis]. *)

type limits = {
  max_nodes : int;  (** maximum path length in nodes (cycle cap) *)
  max_paths : int;  (** maximum number of paths returned per query *)
  max_steps : int;  (** DFS state budget per search *)
}

val default_limits : limits
(** [{ max_nodes = 24; max_paths = 400; max_steps = 200_000 }] — generous
    enough for both benchmark domains; the caps only guard against
    pathological grammars (recursion makes the path set infinite, and on
    dense grammars the visited-set constraint makes exhaustive simple-path
    search explode). The search runs iterative deepening, so short paths
    are always found before any cap bites. *)
