(* A thin deadline-aware facade over the shared parallelism primitive
   (Dggt_par.Pool): the domain spawning, work queue, capacity bound and
   graceful shutdown all live there, this module only adds the serving
   layer's deadline semantics. Dggt_par stays stdlib-only, so the
   wall-clock (Unix.gettimeofday) comparison happens here, when a worker
   dequeues the job — a request whose client has already given up is
   dropped without reaching the engine. *)

type t = Dggt_par.Pool.t

let create ?workers ?(capacity = 64) () =
  let workers =
    match workers with Some n when n > 0 -> Some (min n 64) | _ -> None
  in
  Dggt_par.Pool.create ?workers ~capacity ()

let workers = Dggt_par.Pool.workers
let capacity = Dggt_par.Pool.capacity

let submit t ?deadline ~run ~expired () =
  let job () =
    match deadline with
    | Some d when Unix.gettimeofday () > d -> expired ()
    | _ -> run ()
  in
  Dggt_par.Pool.submit t job

let submit_exempt = Dggt_par.Pool.submit_exempt
let depth = Dggt_par.Pool.depth
let shutdown = Dggt_par.Pool.shutdown
