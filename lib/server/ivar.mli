(** One-shot cells: written once, awaited by any number of threads and
    domains. The server's per-domain readiness slots (filled by the
    build job on a pool worker, awaited by connection threads) and the
    pool's result cells (filled by a worker, awaited by the connection
    thread that submitted the job) are ivars. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** The first fill wins; later fills are ignored. Wakes every waiter. *)

val peek : 'a t -> 'a option
(** The value, if filled; never blocks. *)

val await : 'a t -> 'a
(** The value, blocking until a fill. The wait releases the calling
    systhread's runtime lock, so its domain's other threads run. *)
