(** Grammar paths, the unit of the reversed all-path search (paper
    step 4).

    A grammar path is a simple directed path in the grammar graph from an
    ancestor node down to a descendant API node. Its {e size} is the number
    of API nodes it traverses (the unit in which CGT sizes are measured).

    The search itself is [Dggt_autom.Autom]: it runs {e reversed},
    starting from the descendant API and walking parent edges until the
    requested ancestor is reached — the direction HISyn uses because the
    dependent word's APIs are the anchors (paper §II step 4). *)

type t = {
  nodes : int array;  (** node ids, ancestor first *)
  edges : int array;  (** edge ids; [length edges = length nodes - 1] *)
  apis : string array; (** names of the API nodes along the path, in order *)
}

val size : t -> int
(** Number of APIs on the path. *)

val top : t -> int
(** First node id. *)

val pp : Ggraph.t -> Format.formatter -> t -> unit

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
