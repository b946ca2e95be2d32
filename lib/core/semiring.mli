(** The PathMerge semiring: the algebra the DGGT dynamic program runs
    over, factored out of the chart walk so min-size and top-k ranked
    synthesis are instantiations of one DP (see DESIGN.md).

    A {e candidate} is a partial CGT with its bookkeeping (API size, the
    word→API assignment that produced it, the assignment's WordToAPI
    score). The walk combines candidates multiplicatively along grammar
    paths ({!times}, identity {!one}) and accumulates alternatives
    additively into per-node {!Cell.t}s ({!plus}, identity {!zero}).

    The {!Min_size} instantiation retains one candidate per cell under
    {!compare_cand} — byte-identical to the historical mutable
    [min_size]/[min_cgt] memo by construction. {!Top_k} retains a bounded
    best-first list per cell, which is what makes real n-best enumeration
    (and streaming ranked suggestions) a read off the finished chart
    instead of a re-run. *)

type cand = {
  size : int;  (** [Cgt.api_size] of [cgt] (0 while partial) *)
  cgt : Cgt.t;
  assignment : (int * string) list;
      (** dependency word -> API, innermost child first *)
  score : float;  (** [Word2api.assignment_score] of [assignment] *)
}

type t = Min_size | Top_k of int
(** The objective. Structural equality is meaningful (used by the
    incremental session's configuration comparison). *)

val to_string : t -> string

val coverage : cand -> int
(** Number of query words the candidate interprets. *)

val compare_cand : cand -> cand -> int
(** The documented tie-break as a total order, best first: coverage
    (descending), then size, then score (descending, scores within 1e-9
    considered equal), then [Cgt.compare]. [compare_cand a b < 0] is
    exactly the historical [update_min] "a is strictly better than b". *)

val one : cand
(** Multiplicative identity: the empty partial candidate. *)

val times : cand -> path:Dggt_grammar.Gpath.t -> child:cand -> cand
(** Fuse one sibling grammar path and its child's memoized candidate into
    the accumulator, preserving the historical merge and assignment
    order. The caller recomputes [size]/[score] when the combination is
    complete. *)

(** A chart cell: the bounded best-first accumulation of candidates at
    one DGG node. Only {!plus} mutates a cell — the walk is the sole
    writer; everything else reads. *)
module Cell : sig
  type nonrec cand = cand
  type t

  val best : t -> cand option
  val solved : t -> bool
  val choices : t -> cand list
  (** All retained candidates, best first: at most 1 under [Min_size],
      [max k 1] under [Top_k k]. *)

  val plus : t -> cand -> bool
  (** Accumulate; [true] iff the cell's best candidate changed. Ties keep
      the incumbent; exact duplicates are dropped. A candidate no better
      than a full cell's last entry returns [false] without allocating. *)
end

val zero : t -> Cell.t
(** Additive identity: a fresh empty cell for the objective. *)

val plus : Cell.t -> cand -> bool
(** Alias of {!Cell.plus}. *)
