open Dggt_core

(* The pre-change size-based pruning, kept verbatim as the oracle for
   [bench pathmerge] and the property suite: every conflict-free
   combination is materialised, its bounds rebuilt from an API id set, and
   the list filtered against the least upper bound. {!Dggt_core.Gprune}
   now computes the same bounds inside its enumeration. *)

module IS = Set.Make (Int)

type bounds = { lo : int; hi : int }

let bounds_of ~extra combo =
  let n = List.length combo in
  let union_apis =
    List.fold_left
      (fun acc (p : Edge2path.epath) ->
        Array.fold_left (fun acc a -> IS.add a acc) acc p.Edge2path.path.Dggt_grammar.Gpath.apis)
      IS.empty combo
  in
  let sum_sizes =
    List.fold_left
      (fun acc (p : Edge2path.epath) ->
        acc + Dggt_grammar.Gpath.size p.Edge2path.path)
      0 combo
  in
  let extras = List.fold_left (fun acc p -> acc + extra p) 0 combo in
  { lo = IS.cardinal union_apis + extras; hi = sum_sizes - (n - 1) + extras }

let prune ~enabled ~extra combos =
  if (not enabled) || combos = [] then combos
  else begin
    let with_bounds = List.map (fun c -> (c, bounds_of ~extra c)) combos in
    let min_hi =
      List.fold_left (fun acc (_, b) -> min acc b.hi) max_int with_bounds
    in
    List.filter_map
      (fun (c, b) -> if b.lo > min_hi then None else Some c)
      with_bounds
  end
