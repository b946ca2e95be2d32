(* The PathMerge algebra. One candidate shape, one comparison, one cell
   accumulator — the DGGT chart walk is written once against this module
   and instantiated per objective (see DESIGN.md "Semiring PathMerge").

   The MinSize instantiation must be byte-identical to the historical
   ad-hoc memo (mutable min_size/min_cgt/assignment/score on every DGG
   node, replaced via update_min). Two things carry that proof:

   - [compare_cand] is the total order whose strict "less than" is exactly
     update_min's "better than" predicate, including the 1e-9 score
     epsilon and the CGT structural tie-break;
   - [Cell.plus] with a retention limit of 1 degenerates to "replace the
     stored candidate iff the new one is strictly better", which is
     update_min verbatim. *)

type cand = {
  size : int;
  cgt : Cgt.t;
  assignment : (int * string) list;
  score : float;
}

type t = Min_size | Top_k of int

let retained = function Min_size -> 1 | Top_k k -> max k 1

let to_string = function
  | Min_size -> "min-size"
  | Top_k k -> Printf.sprintf "top-%d" k

let coverage c = List.length c.assignment

(* Coverage first (a partial CGT that interprets more of the query's words
   wins), then size, then the WordToAPI score of the assignment (scores
   within 1e-9 are equal — they come from summed floats), then CGT
   structure — the structural tie-break keeps DGGT and the HISyn baseline
   on the same tree among equal optima. *)
let compare_cand a b =
  match compare (coverage b) (coverage a) with
  | 0 -> (
      match compare a.size b.size with
      | 0 ->
          if a.score > b.score +. 1e-9 then -1
          else if b.score > a.score +. 1e-9 then 1
          else Cgt.compare a.cgt b.cgt
      | c -> c)
  | c -> c

(* The multiplicative identity: extending [one] by a grammar path yields
   the path's own partial CGT. *)
let one = { size = 0; cgt = Cgt.empty; assignment = []; score = 0.0 }

(* [times]: fuse an accumulated partial candidate with one sibling path
   and that child's memoized candidate. The merge order (path into the
   accumulator first, then the child's CGT; child assignment consed in
   front) reproduces the historical fold exactly — assignment order feeds
   Word2api.assignment_score, whose float summation order must not
   change. The CGT union is one merge of all three. Size and score are
   recomputed by the caller once the whole combination is fused ([times]
   is associative on the CGT component only, which is all the walk
   accumulates). *)
let times acc ~path ~child =
  {
    size = 0;
    cgt = Cgt.fuse acc.cgt path child.cgt;
    assignment = child.assignment @ acc.assignment;
    score = 0.0;
  }

module Cell = struct
  type nonrec cand = cand

  type t = {
    limit : int;
    mutable cands : cand list;  (* sorted best-first *)
    mutable count : int;  (* length of [cands], at most [limit] *)
  }

  let best c = match c.cands with [] -> None | h :: _ -> Some h
  let solved c = c.cands <> []
  let choices c = c.cands

  let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> assert false
  let rec drop_last = function [] | [ _ ] -> [] | y :: rest -> y :: drop_last rest

  exception Duplicate

  (* [x] before the first entry it beats; a full cell loses its last *)
  let rec ins x ~full = function
    | [] -> [ x ]
    | y :: rest as l ->
        let cmp = compare_cand x y in
        if cmp < 0 then x :: (if full then drop_last l else l)
        else if cmp = 0 && y.assignment = x.assignment then raise_notrace Duplicate
        else y :: ins x ~full rest

  (* [plus]: accumulate a candidate. Returns [true] iff the cell's best
     changed — the signal the tracing layer records as a min_size
     improvement. Ties insert AFTER existing equals (the historical memo
     kept the incumbent on an exact tie); an exact duplicate (same order
     class and same assignment) is dropped. A candidate no better than a
     full cell's last entry (at limit 1, its head) cannot enter it, so
     [plus] returns before it allocates. "No better than the last" stands
     for "no better than any entry" because the cell is sorted and
     [compare_cand] is transitive, which its 1e-9 score tie is while
     scores within 1e-9 of each other form classes (DESIGN.md, "Semiring
     PathMerge"). *)
  let plus c x =
    let full = c.count >= c.limit in
    if full && compare_cand x (last c.cands) >= 0 then false
    else
      match ins x ~full c.cands with
      | l ->
          c.cands <- l;
          if not full then c.count <- c.count + 1;
          (* [x] is new, so it heads the cell only if it beat the head *)
          List.hd l == x
      | exception Duplicate -> false
end

(* The additive identity: a cell holding no derivation. *)
let zero obj = { Cell.limit = retained obj; cands = []; count = 0 }

let plus = Cell.plus
