(** Path-voted grammar graph (paper §IV-A) and conflict detection.

    Labelling each grammar-graph edge with the candidate paths that cover it
    yields the path-voted grammar graph. Grammar-based pruning reads the
    alternative ("or") choices off this structure: if two paths vote for
    edges out of the same node that belong to {e different productions},
    the paths can never coexist in one grammatically valid CGT. *)

type vote = { edge : int; paths : int list }
(** Edge id with the external ids of the paths covering it. *)

val votes : (int * Gpath.t) list -> vote list
(** Build the vote table from externally-numbered paths. Edges appear in
    ascending id order; each edge's path list preserves input order. *)

val conflicts : Ggraph.t -> (int * Gpath.t) list -> (int * int) list
(** All conflict path pairs [(p, q)], [p < q]: the two paths use edges out
    of a common node carrying different production ids. This is the
    paper's conflicting-"or"-edges condition, generalized to head-API
    argument edges (an API node cannot head two different productions in
    one tree). *)

val conflict_table : Ggraph.t -> (int * Gpath.t) list -> (int * int, unit) Hashtbl.t
(** Same pairs as {!conflicts}, as a hash set for O(1) membership tests.
    Production pruning ([Dggt_core.Gprune]) checks per-node claims
    instead; the reference pruning and the tests use this table. *)
