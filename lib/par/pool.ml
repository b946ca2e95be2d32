(* A pool of up to [nworkers] OCaml 5 domains over a mutex/condvar work
   queue. A worker is spawned when a job finds no idle worker to take
   it, not before, and [trim] retires the workers that sat idle through
   a whole trim period: every OCaml 5 minor collection stops every
   domain, so a domain with no work would only slow the domains that
   have some.

   Two usage modes share the workers:

   - [submit]: fire-and-forget jobs behind a bounded queue (the serving
     layer's backpressure primitive — lib/server/deadline_pool.ml is a thin
     wrapper adding deadlines);
   - [map_ordered]: fork/join fan-out that blocks the caller until every
     element is mapped, returning results in input order.

   map_ordered is claim-based: each task index is claimed exactly once
   (under the pool mutex) by whichever participant gets there first, and
   the *calling* thread participates too. That makes it deadlock-free
   under nesting — a pool worker whose job itself calls map_ordered on
   the same pool drains its own batch instead of waiting for a free
   worker — and means the combinator still completes (sequentially) on a
   stopped pool or a pool of one busy worker. *)

type job = { bounded : bool; run : unit -> unit }

(* one worker's state, read and written under the pool mutex *)
type worker = {
  mutable active : bool; (* took a job since the previous [trim] *)
  mutable waiting : bool; (* blocked on [nonempty], counted in [idle] *)
  mutable retiring : bool; (* out of [live]: exit at the next wake-up *)
}

type stats = { live : int; spawned : int; retired : int }

type t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  cap : int; (* bound on queued [submit] jobs; internal jobs are exempt *)
  nworkers : int;
  mutable bounded_depth : int;
  mutable stopping : bool;
  mutable idle : int; (* live workers waiting for a job *)
  mutable live : (worker * unit Domain.t) list;
  mutable spawns : int;
  mutable retirements : int;
}

let worker_loop t w =
  Mutex.lock t.mu;
  let rec loop () =
    if w.retiring || (t.stopping && Queue.is_empty t.queue) then
      Mutex.unlock t.mu
    else
      match Queue.take_opt t.queue with
      | Some j ->
          if j.bounded then t.bounded_depth <- t.bounded_depth - 1;
          w.active <- true;
          Mutex.unlock t.mu;
          (try j.run () with _ -> ());
          Mutex.lock t.mu;
          loop ()
      | None ->
          t.idle <- t.idle + 1;
          w.waiting <- true;
          Condition.wait t.nonempty t.mu;
          (* [trim] has already taken a retired worker out of [idle] *)
          if not w.retiring then begin
            t.idle <- t.idle - 1;
            w.waiting <- false
          end;
          loop ()
  in
  loop ()

let create ?workers ?(capacity = 64) () =
  let nworkers =
    match workers with
    | Some n when n > 0 -> min n 64
    | _ -> max 1 (min 64 (Domain.recommended_domain_count ()))
  in
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    cap = max 1 capacity;
    nworkers;
    bounded_depth = 0;
    stopping = false;
    idle = 0;
    live = [];
    spawns = 0;
    retirements = 0;
  }

(* under [t.mu], after a job was queued: spawn a worker when the queue
   holds more jobs than there are idle workers to take them (an idle
   worker already signalled still counts until it wakes) and fewer than
   [nworkers] are live; otherwise wake an idle worker, or leave the job
   to the next busy worker that finishes. A new worker counts as active,
   so the next [trim] spares it even if another worker took its job. *)
let wake_locked t =
  if Queue.length t.queue > t.idle && List.length t.live < t.nworkers then begin
    let w = { active = true; waiting = false; retiring = false } in
    match Domain.spawn (fun () -> worker_loop t w) with
    | d ->
        t.live <- (w, d) :: t.live;
        t.spawns <- t.spawns + 1
    | exception e ->
        Mutex.unlock t.mu;
        raise e
  end
  else Condition.signal t.nonempty

let workers t = t.nworkers
let capacity t = t.cap

let submit t run =
  Mutex.lock t.mu;
  if t.stopping || t.bounded_depth >= t.cap then begin
    Mutex.unlock t.mu;
    `Rejected
  end
  else begin
    Queue.push { bounded = true; run } t.queue;
    t.bounded_depth <- t.bounded_depth + 1;
    wake_locked t;
    Mutex.unlock t.mu;
    `Accepted
  end

(* Internal jobs bypass the capacity bound: map_ordered's correctness
   does not depend on them running (the caller claims whatever the
   workers don't), so rejecting them would only serialize the map. *)
let enqueue t run =
  Mutex.lock t.mu;
  let accepted = not t.stopping in
  if accepted then begin
    Queue.push { bounded = false; run } t.queue;
    wake_locked t
  end;
  Mutex.unlock t.mu;
  accepted

let submit_exempt = enqueue

let depth t =
  Mutex.lock t.mu;
  let n = t.bounded_depth in
  Mutex.unlock t.mu;
  n

let stats t =
  Mutex.lock t.mu;
  let s =
    { live = List.length t.live; spawned = t.spawns; retired = t.retirements }
  in
  Mutex.unlock t.mu;
  s

(* A waiting worker that took no job since the previous trim retires.
   With jobs queued, none does: a worker signalled for one is still
   [waiting] until it wakes, and retiring it would strand the job. The
   broadcast wakes the retired workers (the others go back to waiting);
   they leave without the mutex held, so they are joined outside it. *)
let trim t =
  Mutex.lock t.mu;
  let retire, keep =
    if Queue.is_empty t.queue then
      List.partition (fun (w, _) -> w.waiting && not w.active) t.live
    else ([], t.live)
  in
  List.iter (fun (w, _) -> w.active <- false) keep;
  if retire <> [] then begin
    List.iter (fun (w, _) -> w.retiring <- true) retire;
    let n = List.length retire in
    t.live <- keep;
    t.idle <- t.idle - n;
    t.retirements <- t.retirements + n;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.mu;
  List.iter (fun (_, d) -> Domain.join d) retire

let map_ordered t f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let bmu = Mutex.create () in
    let all_done = Condition.create () in
    let next = ref 0 in
    let completed = ref 0 in
    let claim () =
      Mutex.lock bmu;
      let i = !next in
      if i < n then incr next;
      Mutex.unlock bmu;
      if i < n then Some i else None
    in
    let step i =
      let r = try Ok (f arr.(i)) with e -> Error e in
      results.(i) <- Some r;
      Mutex.lock bmu;
      incr completed;
      if !completed = n then Condition.broadcast all_done;
      Mutex.unlock bmu
    in
    (* one queue entry per task keeps enqueueing O(1) per task while
       letting however many workers are idle join in; entries finding the
       batch already fully claimed are no-ops *)
    for _ = 1 to min n (t.nworkers) do
      ignore
        (enqueue t (fun () ->
             let rec drain () =
               match claim () with
               | Some i ->
                   step i;
                   drain ()
               | None -> ()
             in
             drain ()))
    done;
    (* the caller helps: claims remaining tasks itself, then waits for
       the stragglers other participants claimed *)
    let rec help () =
      match claim () with
      | Some i ->
          step i;
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock bmu;
    while !completed < n do
      Condition.wait all_done bmu
    done;
    Mutex.unlock bmu;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false (* completed = n implies all filled *))
         results)
  end

let shutdown t =
  Mutex.lock t.mu;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  let ds = t.live in
  t.live <- [];
  Mutex.unlock t.mu;
  if not already then List.iter (fun (_, d) -> Domain.join d) ds
