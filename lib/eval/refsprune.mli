(** Reference size-based pruning (paper §V-C): the list filter PathMerge
    applied to the grammar-pruned combinations before the size bounds
    moved into {!Dggt_core.Gprune.combos}, preserved as an executable
    oracle.
    {!Refmerge} runs on it, so [bench pathmerge] and the semiring suite
    hold the fused enumeration to this filter: same survivors in the same
    order. The bounds are documented in {!Dggt_core.Gprune}. Keep this
    file frozen. *)

type bounds = { lo : int; hi : int }

val bounds_of :
  extra:(Dggt_core.Edge2path.epath -> int) -> Dggt_core.Edge2path.epath list -> bounds
(** Bounds for one combination. [extra p] is added to both bounds (0 for
    the plain HISyn setting; the dependent's [min_size - 1] in DGGT). *)

val prune :
  enabled:bool ->
  extra:(Dggt_core.Edge2path.epath -> int) ->
  Dggt_core.Edge2path.epath list list ->
  Dggt_core.Edge2path.epath list list
(** Keep only combinations whose lower bound does not exceed the global
    minimum upper bound. Order is preserved. When [enabled] is false the
    input is returned unchanged. *)
