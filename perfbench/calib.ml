(* The host's speed, measured by a fixed unit of CPU work in the
   benchmark's own code. Shared hosts change speed by themselves, in
   phases lasting seconds to minutes. The benchmark times this unit
   around each timed run and prints it with the result, so that a run
   made on a slow or swinging host shows as such. The unit never changes,
   so its time tracks the host and not the program under test. *)

(* One unit: short-lived allocation, string hashing and updates of a
   table of 8,192 keys. Its working set of about a megabyte makes it more
   sensitive to a loaded neighbour than the engine is (in one slow phase
   of the host it read twice its usual time where the engine's own work
   took 1.55 times as long), which suits a record of the host: it sees
   the host move before the workload does. *)
let unit_work () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 40_000 do
    let k = string_of_int (i land 8191) in
    let l = List.init 6 (fun j -> i + j) in
    acc := !acc + List.fold_left ( + ) 0 l + String.length k;
    Hashtbl.replace h k !acc
  done;
  !acc + Hashtbl.length h

let units = 40

(* the median time of one unit over [units] back-to-back units, in ms *)
let probe () =
  let times =
    List.init units (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (unit_work ()));
        (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  Pstats.median times

(* how far apart probe times are: the largest over the smallest, less 1 *)
let drift times =
  (List.fold_left Float.max 0.0 times /. List.fold_left Float.min Float.infinity times) -. 1.0
