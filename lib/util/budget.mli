(** Work budgets for the synthesis engines.

    The paper's evaluation protocol caps each query at a wall-clock limit
    (20 s); the HISyn baseline checks the budget between combination merges
    and aborts with a timeout. A budget combines a wall-clock deadline with a
    step counter so that unit tests can use deterministic step limits instead
    of timing-dependent ones. *)

type t

exception Exhausted
(** Raised by {!check} when the budget is spent. Engines catch it at the
    query boundary and report a timeout. *)

val unlimited : unit -> t

val of_seconds : float -> t
(** Wall-clock budget starting now. *)

val of_steps : int -> t
(** Deterministic budget of [n] steps of {!check}/{!spend}. *)

val of_seconds_and_steps : float -> int -> t

val check : t -> unit
(** Counts one unit of work ([spend t 1]); raises {!Exhausted} if either
    limit is hit. Wall-clock is sampled every 256 ticks to keep the check
    cheap. *)

val spend : t -> int -> unit
(** [spend t n] is [n] calls to {!check}, in one: the same
    {!steps_used} afterwards, and it raises {!Exhausted} if and only if
    one of them would, with the count stopped on the step that raised.
    The clock is sampled at every multiple of 256 the count crosses. *)

val exhausted : t -> bool
(** Non-raising probe (does not count work). *)

val steps_used : t -> int
