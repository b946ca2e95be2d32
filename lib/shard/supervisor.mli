(** Worker process supervision for the shard router.

    Owns N worker slots. Each slot runs one [dggt serve --unix-socket]
    child process on a fixed socket path; the supervisor spawns them,
    heartbeats them ([GET /version] over the socket), reaps and respawns
    crashed ones with bounded exponential backoff, and tears everything
    down on {!stop} (SIGTERM, a drain grace, then SIGKILL stragglers).

    Epochs are the sticky-routing contract: every (re)spawn of a slot
    increments its epoch, and the router bakes [(slot, epoch)] into the
    session ids it mints — so a session whose worker died is detected by
    a plain epoch comparison, no session table needed ({!Router}
    answers 410 on mismatch, because the worker's in-memory session
    state died with the process).

    Failure detection is two-pronged: [waitpid WNOHANG] on each child
    pid catches real exits within a monitor tick, and the heartbeat
    catches livelocked workers — three consecutive failed heartbeats
    kill (SIGKILL) and respawn a [Healthy] worker (a [Starting] one is
    exempt: its boot may outlast several heartbeat periods). The monitor
    only ever waits on its own child pids, so it cannot steal exit
    statuses from unrelated children of the process (e.g. in-process
    test harnesses that also fork). *)

type state =
  | Starting  (** spawned, no successful heartbeat yet *)
  | Healthy
  | Backoff   (** dead, waiting out the respawn backoff *)
  | Stopped   (** supervisor is shutting down *)

type worker = {
  slot : int;
  pid : int;           (** current child pid; [-1] while in backoff *)
  epoch : int;         (** increments on every (re)spawn, from 1 *)
  state : state;
  respawns : int;      (** respawns so far (first spawn not counted) *)
  hb_failures : int;   (** cumulative failed heartbeats *)
  socket : string;     (** the slot's Unix-socket path (stable) *)
}

type t

val start : shards:int -> argv:(slot:int -> socket:string -> string array) -> t
(** Make a fresh directory for the sockets under the system temp dir
    ([dggt-sh-<pid>-<n>], socket paths [<dir>/w<slot>.sock]), then spawn
    every slot's worker, running [argv ~slot ~socket] ([argv.(0)] is the
    executable path), and the monitor thread. Returns immediately;
    workers come up asynchronously (poll {!workers} or
    {!await_healthy}). Heartbeats go out every 0.5 s with a 2 s timeout;
    a respawn waits 0.1 s, doubling per consecutive death up to 5 s and
    starting over once the respawned worker is [Healthy]. Raises
    [Invalid_argument] on [shards <= 0]. *)

val workers : t -> worker list
(** Snapshot of all slots, in slot order. *)

val find : t -> int -> worker option
(** Snapshot of one slot. *)

val await_healthy : t -> timeout_s:float -> bool
(** Block until every slot is [Healthy] (true), the timeout passes
    (false — some slots may still be starting; the router serves from
    whatever is healthy), or {!stop} has begun (false). *)

val note_transport_failure : t -> int -> unit
(** The router failed to reach this slot's socket. Wakes the monitor to
    heartbeat it immediately instead of waiting out the interval,
    shortening the crash-to-respawn window under load. *)

val stop : ?grace_s:float -> t -> unit
(** Drain: SIGTERM every live worker, wait up to [grace_s] (default 5)
    for clean exits, SIGKILL the rest, reap everything, join the
    monitor, unlink the sockets and remove their directory.
    Idempotent. *)
