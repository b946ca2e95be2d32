(** Grammar graphs (paper §II, §IV-A).

    The grammar graph is the CFG rendered as a directed graph with three
    node kinds:

    - {e nonterminal nodes}, one per nonterminal;
    - {e derivation nodes}, one per production of a nonterminal that has
      several productions and a multi-symbol right-hand side;
    - {e API nodes}, one per terminal.

    Edge structure encodes the paper's two edge flavours. Edges out of a
    nonterminal with several productions are "or" edges ([alt = true]):
    mutually exclusive alternatives. All other edges are concatenation
    edges. Additionally, a production whose right-hand side begins with an
    API terminal ("head API", e.g. [insert ::= INSERT insert_arg]) hangs the
    remaining symbols {e under the API node}, so that grammar paths descend
    from an API to the APIs of its arguments — the shape the reversed
    all-path search of EdgeToPath expects.

    Every edge carries its production id; a valid code generation tree uses
    at most one production per node (which subsumes the "conflicting or
    edges" rule of grammar-based pruning). *)

type node_kind =
  | Nt of string
  | Deriv of int  (** production id *)
  | Api of string

type node = { id : int; kind : node_kind }

type edge = {
  id : int;
  src : int;
  dst : int;
  prod : int;    (** production this edge realizes *)
  pos : int;     (** position of [dst] within the production's RHS *)
  alt : bool;    (** true when [src] is a nonterminal with alternatives *)
}

type t = private {
  cfg : Cfg.t;
  nodes : node array;       (** indexed by node id *)
  edges : edge array;       (** indexed by edge id *)
  children : int list array; (** node id -> outgoing edge ids, by (prod, pos) *)
  parents : int list array;  (** node id -> incoming edge ids *)
  succ : int array array;
      (** node id -> destination node ids of [children], same order: the
          flat successor table the distance BFS walks *)
  api_index : (string, int) Hashtbl.t;
      (** API name -> node id; built once in {!build}, read-only after *)
  api_heads : (string, Cfg.production) Hashtbl.t;
      (** API name -> its head production ({!head_production}); built
          once in {!build}, read-only after *)
  nt_index : (string, int) Hashtbl.t;
      (** nonterminal name -> node id; built once in {!build} *)
  root : int;               (** node of the start nonterminal *)
  dist_mu : Mutex.t;        (** guards [dists] *)
  dists : (int, int array) Hashtbl.t;
      (** per-source shortest-path memo ({!distance}); mutex-guarded so a
          graph can be shared by concurrent synthesis workers *)
}

val build : Cfg.t -> t

val node_name : t -> int -> string
(** Nonterminal/API name; derivation nodes render as "lhs#k". *)

val api_node : t -> string -> int option
(** Hash lookup in [api_index] — O(1), safe from any domain. *)

val head_production : t -> string -> Cfg.production option
(** The API's unique head production: the one production whose
    right-hand side starts with the API and has arguments ([None] when no
    production or several do). Hash lookup, safe from any domain. *)

val nt_node : t -> string -> int option
val is_api : t -> int -> bool
val api_nodes : t -> (string * int) list

val out_edges : t -> int -> edge list
val in_edges : t -> int -> edge list
val edge : t -> int -> edge

val node_count : t -> int
val edge_count : t -> int

val reachable : t -> int -> int -> bool
(** [reachable g a b]: is there a directed path from node [a] to node [b]?
    (Used by orphan relocation's ancestor test.) Memoized per source. *)

val distance : t -> int -> int -> int
(** Length (in edges) of the shortest directed path from [a] to [b];
    [max_int] when unreachable. Memoized per source — the all-path search
    uses it to cut branches that cannot complete within the length cap. *)

val dist_from : t -> int -> int array
(** The whole distance row for source [a]: [(dist_from g a).(b) =
    distance g a b]. One memo lookup (one mutex acquisition) for the
    entire row — hot loops that probe many targets against one source
    (the all-path DFS) should hoist this instead of calling {!distance}
    per probe. The returned array is shared with the memo: treat it as
    read-only. *)

val dist_rows : t -> int array -> int array array
(** [dist_rows g srcs] is [Array.map (dist_from g) srcs]: the same rows,
    memoized the same way, computed with one BFS queue for the whole
    batch. The automaton compile precomputes its rows this way. *)
