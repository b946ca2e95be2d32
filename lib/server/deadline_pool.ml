(* A thin deadline-aware facade over the shared parallelism primitive
   (Dggt_par.Pool): the domain spawning, work queue, capacity bound and
   graceful shutdown all live there, this module only adds the serving
   layer's clock. Dggt_par stays stdlib-only, so the wall-clock
   (Unix.gettimeofday) comparison happens here, when a worker dequeues
   the job — a request whose client has already given up is dropped
   without reaching the engine — and so does the period on which idle
   workers retire. *)

(* The trim period. A worker that took no job for a whole period
   retires, so an idle worker lives 50–100 ms. On 2 vCPUs (OCaml 5.1.1)
   a domain spawn plus join costs ~130 µs of wall time, while an idle
   domain adds ~0.25 ms of barrier wait to each minor collection of a
   busy one (EXPERIMENTS.md, "Idle workers retire"): an idle worker
   costs more than its respawn after a single collection. The period
   only has to be long against the gaps between a loaded server's jobs,
   so that a worker with steady work never retires (a trial that retired
   workers at their first idle moment cut typing's qps by two thirds). *)
let trim_period_s = 0.05

type t = {
  pool : Dggt_par.Pool.t;
  mu : Mutex.t; (* guards [closing]; [resume] signals under it *)
  resume : Condition.t;
  mutable closing : bool;
  mutable trimmer : Thread.t option;
}

(* The trimmer, a systhread of domain 0, trims every period while any
   worker is live and parks once none is: its wake-ups take domain 0's
   runtime lock, which cost a server whose requests all run there
   (cache hits, streams) 4–6% of its throughput. A queued job may have
   spawned a worker, so every accepted submit resumes it; the check of
   [live] and the wait are one step under [mu], so no resume is lost. *)
let trim_loop t =
  let rec go () =
    Thread.delay trim_period_s;
    Dggt_par.Pool.trim t.pool;
    Mutex.lock t.mu;
    while (not t.closing) && (Dggt_par.Pool.stats t.pool).Dggt_par.Pool.live = 0
    do
      Condition.wait t.resume t.mu
    done;
    let closing = t.closing in
    Mutex.unlock t.mu;
    if not closing then go ()
  in
  go ()

let create ?workers ?(capacity = 64) () =
  let workers =
    match workers with Some n when n > 0 -> Some (min n 64) | _ -> None
  in
  let t =
    {
      pool = Dggt_par.Pool.create ?workers ~capacity ();
      mu = Mutex.create ();
      resume = Condition.create ();
      closing = false;
      trimmer = None;
    }
  in
  t.trimmer <- Some (Thread.create trim_loop t);
  t

let resume_trimmer t =
  Mutex.lock t.mu;
  Condition.signal t.resume;
  Mutex.unlock t.mu

let workers t = Dggt_par.Pool.workers t.pool
let capacity t = Dggt_par.Pool.capacity t.pool

let submit t ?deadline ~run ~expired () =
  let job () =
    match deadline with
    | Some d when Unix.gettimeofday () > d -> expired ()
    | _ -> run ()
  in
  let r = Dggt_par.Pool.submit t.pool job in
  if r = `Accepted then resume_trimmer t;
  r

let submit_exempt t job =
  let accepted = Dggt_par.Pool.submit_exempt t.pool job in
  if accepted then resume_trimmer t;
  accepted

let depth t = Dggt_par.Pool.depth t.pool
let stats t = Dggt_par.Pool.stats t.pool

let shutdown t =
  Mutex.lock t.mu;
  t.closing <- true;
  Condition.signal t.resume;
  let trimmer = t.trimmer in
  t.trimmer <- None;
  Mutex.unlock t.mu;
  Option.iter Thread.join trimmer;
  Dggt_par.Pool.shutdown t.pool
