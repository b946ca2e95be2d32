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
    in the callers (lib/server/pool.ml wraps jobs with a
    [Unix.gettimeofday] check). *)

type t

val create : ?workers:int -> ?capacity:int -> unit -> t
(** A pool of up to [workers] domains, default
    {!Stdlib.Domain.recommended_domain_count}, clamped to [1, 64]. A
    worker domain is spawned when a job is queued and the queue holds
    more jobs than there are idle workers to take them, so a domain
    that has never had work does not exist: in OCaml 5 every collection
    stops every domain, and idle ones would slow the busy ones.
    [capacity] (default 64) bounds {e queued} {!submit} jobs only —
    {!map_ordered} tasks are exempt, since their completion never
    depends on queue admission. *)

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
    caller claims the remaining tasks). *)
