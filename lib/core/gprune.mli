(** Grammar-based pruning (paper §V-A).

    Given the candidate paths of a set of sibling dependency edges, two
    paths form a {e conflict pair} when they vote for different
    alternatives of the same grammar node ({!Dggt_grammar.Pathvote}). A
    combination containing a conflict pair can never merge into a
    grammatically valid CGT, so such combinations are pruned {e before}
    they are enumerated: the combination generator extends a partial
    combination only with paths that do not conflict with any already
    chosen one.

    No pair table is built. Each path {e claims} the (grammar node,
    production) of every edge it leaves; the enumeration counts the
    claims of the paths chosen so far and skips a path that claims a node
    an earlier path holds with a different production. Grammar paths are
    simple (no node repeats, so a path claims each node at most once),
    which makes this exactly {!Dggt_grammar.Pathvote.conflicts}. *)

type t

val prepare : Dggt_grammar.Ggraph.t -> Edge2path.epath list -> t
(** Record the claims of the given sibling-edge paths, keyed by epath id
    (ids must be distinct). A path not given here claims nothing. *)

val combos :
  ?budget:Dggt_util.Budget.t ->
  t ->
  enabled:bool ->
  Edge2path.epath list list ->
  Edge2path.epath list list * int
(** [combos t ~enabled groups] enumerates one-path-per-group combinations
    in lexicographic order, skipping (when [enabled]) every combination
    containing a conflict pair. Returns the surviving combinations and
    the total combination count before pruning (the product of group
    sizes, saturating). The budget is ticked once for every path tried at
    every level of the enumeration, before its conflict check: a path
    skipped for a conflict costs one step, and the levels below it cost
    nothing. *)
