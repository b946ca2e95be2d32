(* Order statistics for the benchmark's latency samples. Every timing the
   benchmark reports is an order statistic of its samples, never a mean. *)

(* nearest-rank percentile of an ascending array: the smallest sample with
   at least p% of the samples at or below it *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pstats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 50.0

(* samples strictly beyond the nearest-rank p-th percentile *)
let beyond n p =
  n - int_of_float (Float.ceil (float_of_int p /. 100.0 *. float_of_int n))

(* The tail percentile of a run of [n] samples: the highest whole
   percentile that still has at least ten samples beyond it, so the tail
   is never decided by one or two outliers. Runs too short to have ten
   samples beyond their median report the median. *)
let tail_percentile n =
  if n <= 20 then 50
  else
    let p = ref (100 * (n - 10) / n) in
    (* guard float rounding in [beyond] at exact boundaries *)
    while !p > 50 && beyond n !p < 10 do
      decr p
    done;
    !p

(* The median of each item's samples, items in the order they first
   appear. A run replays the same items (a stream's query, a session
   revision) once per pass, so an item's median leaves out the stalls a
   busy host puts on single requests and keeps what the item costs. *)
let item_medians samples =
  let by_item = Hashtbl.create 1024 and order = ref [] in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt by_item k with
      | Some vs -> Hashtbl.replace by_item k (v :: vs)
      | None ->
          Hashtbl.add by_item k [ v ];
          order := k :: !order)
    samples;
  List.rev_map (fun k -> median (Hashtbl.find by_item k)) !order

(* the highest percentile of [xs] with at least ten values beyond it *)
let tail xs = percentile (sorted_of_list xs) (float_of_int (tail_percentile (List.length xs)))
