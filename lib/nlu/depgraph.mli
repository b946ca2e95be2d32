(** Query dependency graphs.

    Node identifiers are the token indices of the underlying query, so they
    remain stable across pruning. The structure is a rooted tree in the
    common case, but parser output may leave extra or missing edges — the
    synthesis pipeline (orphan relocation) is designed to cope. *)

type node = {
  id : int;            (** token index *)
  text : string;       (** surface form *)
  lemma : string;      (** dictionary form, lowercase *)
  pos : Pos.t;
  lit : string option; (** literal payload for quoted strings and numbers *)
}

type edge = { gov : int; dep : int; label : Dep.t }

type t = {
  nodes : node list;   (** in token order *)
  edges : edge list;
  root : int;          (** node id of the root word *)
}

val node : t -> int -> node
(** Raises [Not_found] for an id not in the graph. *)

val node_opt : t -> int -> node option
val mem : t -> int -> bool
val children : t -> int -> edge list
(** Outgoing edges of a governor, in token order of the dependents. *)

val parent : t -> int -> edge option
(** First incoming edge, if any. *)

val depth : t -> int -> int
(** Edge distance from the root; nodes unreachable from the root get the
    depth they would have if attached to the root (i.e. 1 + their own
    subtree is still traversed from them). *)

val levels : t -> edge list list
(** Edges grouped by the depth of their governor: element [l] holds the
    edges from depth-[l] governors to depth-[l+1] dependents (level l+1 in
    the paper's numbering). Deepest group last. Edges unreachable from the
    root are placed according to {!depth} of their governor. *)

val is_tree : t -> bool
(** True when every node except the root has exactly one parent and all
    nodes are reachable from the root. *)

val remove_node : t -> int -> t
(** Removes the node and all edges touching it. *)

val to_string : t -> string
