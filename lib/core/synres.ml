(** Result of one synthesis engine run: the winning CGT, its API size, and
    the dependency-word-to-API assignment used to bind query literals. *)

type t = { cgt : Cgt.t; size : int; assignment : (int * string) list }

(* Two different query words must not resolve to the same API: a CGT holds
   each grammar node once, so fusing two mentions silently drops one of
   them (and scrambles literal payloads). The chart walk asks this of
   every combination, so it compares pairs in place rather than build a
   table; an assignment has a few entries. *)
let rec clashes node api = function
  | [] -> false
  | (n, a) :: rest -> (n <> node && String.equal a api) || clashes node api rest

let rec injective = function
  | [] -> true
  | (node, api) :: rest -> (not (clashes node api rest)) && injective rest
