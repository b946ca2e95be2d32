(** Combination enumeration with grammar-based (paper §V-A) and size-based
    (paper §V-C) pruning.

    {b Grammar-based pruning.} Given the candidate paths of a set of
    sibling dependency edges, two paths form a {e conflict pair} when they
    vote for different alternatives of the same grammar node
    ({!Dggt_grammar.Pathvote}). A combination containing a conflict pair
    can never merge into a grammatically valid CGT, so such combinations
    are pruned {e before} they are enumerated: the enumeration extends a
    partial combination only with paths that do not conflict with any
    already chosen one.

    No pair table is built. Each path {e claims} the (grammar node,
    production) of every edge it leaves, and two paths conflict when they
    claim one node with different productions. Grammar paths are simple
    (no node repeats, so a path claims each node at most once), which
    makes this exactly {!Dggt_grammar.Pathvote.conflicts}. The
    enumeration keeps, for every later level, a bitset of the paths that
    conflict with no path chosen so far. Choosing a path clears its
    conflicts from those bitsets; its conflicts with each later level are
    computed once per enumeration, on its first choice, by stamping its
    claims into a node-indexed claim array and testing every later
    path's claims against it ({!Dggt_grammar.Gpath.hold},
    {!Dggt_grammar.Gpath.clashes}). The claims are the path's own
    ({!Dggt_grammar.Gpath.t}[.claims]), built once when the search
    emitted it. A level is then walked over the set bits
    of its bitset, a word at a time: a conflicting path is never visited.

    {b Size-based pruning.} For a combination c = \{p_1, ..., p_n\} of
    grammar paths, before any merging happens its merged size is bounded
    by

    {v |union of the paths' APIs|  <=  size(c)  <=  sum(size(p_i)) - (n-1) v}

    (the lower bound when every shared API fuses, the upper when only the
    common root does — the bound presumes the combination's paths share
    their governor API, which holds for the sibling-edge combinations DGGT
    builds). With per-path extra weight [extra] (the dependent subtree's
    contribution in DGGT), both bounds shift by the same sum, so the bound
    stays sound. A combination whose lower bound exceeds the smallest
    upper bound among all conflict-free combinations cannot be minimal
    and is dropped without building its prefix tree.

    The enumeration keeps per-API use counts as it descends and pops, so
    a finished combination's bounds cost nothing beyond the walk: the
    number of APIs in use plus the extras is its lower bound, the summed
    sizes minus [n - 1] its upper. It keeps a combination only while its
    lower bound is at most the running minimum of upper bounds, then
    filters the kept ones once against the final minimum. *)

type t
(** The walk's state: each path's [extra], read the first time the path
    takes part in a size-pruned enumeration and kept by epath id (ids
    must be distinct), plus arrays sized by the grammar's node count and
    the bitset storage, reused by every enumeration. What depends on the
    path alone — its claims, its API node ids and its size — is read
    from its {!Dggt_grammar.Gpath.t} and never computed here. One [t]
    serves a whole chart walk; it belongs to one synthesis, like
    {!Cgt.scratch}. *)

val prepare :
  ?extra:(Edge2path.epath -> int) -> Dggt_grammar.Ggraph.t -> t
(** [extra p] (default 0) is added to both size bounds of every
    combination containing [p]. It is read once per path, at the path's
    first size-pruned enumeration, and must not change after that. *)

type result = {
  kept : Edge2path.epath list list;
      (** surviving combinations, in lexicographic order *)
  total : int;
      (** the product of group sizes before any pruning (saturating) *)
  conflict_free : int;
      (** combinations that passed grammar-based pruning (all of them
          when it is off), before size-based pruning *)
}

val combos :
  ?budget:Dggt_util.Budget.t ->
  t ->
  gprune:bool ->
  sprune:bool ->
  Edge2path.epath list list ->
  result
(** [combos t ~gprune ~sprune groups] enumerates one-path-per-group
    combinations in lexicographic order, skipping (under [gprune]) every
    combination containing a conflict pair, and dropping (under
    [sprune]) every conflict-free combination whose lower size bound
    exceeds the least upper bound among them: the product's pairwise
    conflict filter followed by the size filter over its survivors. The
    budget is charged when the enumeration enters a level, one step per
    path of the level, conflicting ones included ({!Dggt_util.Budget.spend}):
    a path skipped for a conflict costs one step, and the levels below it
    cost nothing. Size pruning adds no step. Without size pruning no
    [extra] is read. *)
