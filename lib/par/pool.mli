(** A stdlib-only pool of OCaml 5 domains ({!Stdlib.Domain}) over a
    mutex/condvar work queue — the repo's one shared parallelism
    primitive.

    Two entry points share the same workers:

    - {!submit} — fire-and-forget jobs behind a {e bounded} queue; the
      serving layer builds its backpressure (503 shedding) on the
      [`Rejected] case.
    - {!map_ordered} — fork/join fan-out over a list; results come back
      in {e input order}, so a deterministic [f] gives byte-identical
      output regardless of worker count or scheduling. The calling
      thread participates in the work (claim-based batches), which makes
      nested use on the same pool deadlock-free and keeps the combinator
      total even on a stopped pool.

    The pool performs no I/O and takes no clock: deadline semantics live
    in the callers (lib/server/deadline_pool.ml wraps jobs with a
    [Unix.gettimeofday] check), and the caller that wants idle workers
    gone calls {!trim} on its own period. *)

type t

val create : ?workers:int -> ?capacity:int -> unit -> t
(** A pool of up to [workers] live domains, default
    {!Stdlib.Domain.recommended_domain_count}, clamped to [1, 64]. A
    worker domain is spawned when a job is queued, the queue holds more
    jobs than there are idle workers to take them, and fewer than
    [workers] are live; {!trim} retires the idle ones. So a domain that
    has never had work, or has had none for a trim period, does not
    exist: in OCaml 5 every minor collection stops every domain, and
    idle ones would slow the busy ones. [capacity] (default 64) bounds
    {e queued} {!submit} jobs only — {!map_ordered} tasks are exempt,
    since their completion never depends on queue admission. *)

val workers : t -> int
val capacity : t -> int

val submit : t -> (unit -> unit) -> [ `Accepted | `Rejected ]
(** [`Rejected] when the bounded queue is full or the pool is shutting
    down. Exceptions escaping the job are swallowed (the worker
    survives); jobs should do their own error reporting. *)

val submit_exempt : t -> (unit -> unit) -> bool
(** Queue a job the capacity bound does not count, so a full queue never
    refuses it: how a server runs its own work (building its domains)
    beside the requests it sheds. [false] when the pool is shutting
    down. Exceptions escaping the job are swallowed, as for {!submit}. *)

val depth : t -> int
(** {!submit} jobs currently waiting in the queue (the metrics gauge). *)

val trim : t -> unit
(** Retire every worker that is waiting for a job and took none since
    the previous [trim] (or since it was spawned), then join them. A
    worker running a job is never retired, and none is while jobs wait
    in the queue. Called every period [p], an idle worker lives between
    [p] and [2p]; the next job that finds no idle worker spawns a
    replacement. Safe from any thread, concurrently with every other
    operation. *)

type stats = {
  live : int;  (** workers spawned and not retired or shut down *)
  spawned : int;  (** workers ever spawned *)
  retired : int;  (** workers {!trim} retired *)
}

val stats : t -> stats

val map_ordered : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_ordered t f xs] applies [f] to every element of [xs], fanning
    the applications across the pool's domains plus the calling thread,
    and returns the results in input order. Blocks until every element
    is done. If any application raises, the exception raised is the one
    from the {e earliest} failing input (deterministic), re-raised after
    the whole batch settles. [f] must be safe to call from any domain. *)

val shutdown : t -> unit
(** Stop accepting work, let the workers drain the queue, join them.
    Idempotent. A {!map_ordered} already in flight still completes (its
    caller claims the remaining tasks). A worker that a concurrent
    {!trim} retired is joined by that [trim]. *)
