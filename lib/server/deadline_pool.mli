(** Fixed worker pool over a bounded request queue.

    Workers are OCaml 5 domains — a facade over the repo-wide pool
    primitive {!Dggt_par.Pool} — so synthesis jobs run in parallel on
    multicore hardware while the connection threads (plain systhreads)
    only do I/O. The queue is bounded: {!submit} refuses new work when it
    is full — the server turns that into a [503] with [Retry-After]
    instead of letting latency pile up. Each job may carry an absolute
    deadline; a job whose deadline passed while it sat in the queue is
    {e dropped} (its [expired] callback runs instead of [run]), so a
    request the client has already given up on never reaches the
    engine. While any worker is live, one systhread of domain 0 (started
    by {!create}) trims the pool every 50 ms ({!Dggt_par.Pool.trim}), so
    a worker that had no job for a whole period retires and an idle one
    lives 50–100 ms: a server whose work runs elsewhere (streams, on the
    connection threads) runs on domain 0 alone, and its trimmer sleeps
    until the next job. *)

type t

val create : ?workers:int -> ?capacity:int -> unit -> t
(** Up to [workers] live worker domains, each spawned when queued jobs
    outnumber idle workers ({!Dggt_par.Pool.create}), and the trimmer
    thread. [workers] defaults to
    {!Stdlib.Domain.recommended_domain_count} (clamped to [1, 64]);
    [capacity] is the bound on {e queued} (not yet running) jobs, default
    64. *)

val workers : t -> int
val capacity : t -> int

val submit :
  t -> ?deadline:float -> run:(unit -> unit) -> expired:(unit -> unit) ->
  unit -> [ `Accepted | `Rejected ]
(** [`Rejected] when the queue is full or the pool is shutting down.
    [deadline] is an absolute {!Unix.gettimeofday} instant; exactly one of
    [run]/[expired] is called, from a worker domain. Exceptions escaping
    either callback are swallowed (the worker survives); callbacks should
    do their own error reporting. *)

val submit_exempt : t -> (unit -> unit) -> bool
(** {!Dggt_par.Pool.submit_exempt}: a job with no deadline that a full
    queue never refuses; [false] when the pool is shutting down. *)

val depth : t -> int
(** Jobs currently waiting in the queue (the metrics gauge). *)

val stats : t -> Dggt_par.Pool.stats
(** Live workers, spawns and retirements (the metrics series). *)

val shutdown : t -> unit
(** Stop the trimmer, stop accepting work, let the workers drain the
    queue, join them. Idempotent. *)
