(** Reference grammar-based pruning: the pairwise conflict-table
    enumeration {!Dggt_core.Gprune} used before it switched to per-node
    claims, preserved as an executable oracle. {!Refmerge} runs on it, so
    [bench pathmerge] and the semiring suite hold the claim-based
    enumeration to this one: same survivors in the same order, same
    budget ticks. Keep this file frozen. *)

type t

val prepare : Dggt_grammar.Ggraph.t -> Dggt_core.Edge2path.epath list -> t
(** Build every conflicting epath-id pair of the given paths. *)

val combos :
  ?budget:Dggt_util.Budget.t ->
  t ->
  enabled:bool ->
  Dggt_core.Edge2path.epath list list ->
  Dggt_core.Edge2path.epath list list * int
(** {!Dggt_core.Gprune.combos}'s contract, checking each candidate against
    every chosen path in the pair table. *)
