(** TTL + LRU session store for the server's incremental sessions.

    Sessions are server-side state with a client-visible lifecycle, so the
    store distinguishes {e how} an id stopped resolving:

    - [`Found p] — live; the access refreshes the TTL and the LRU position;
    - [`Expired] — the entry existed but its idle time exceeded the TTL;
      it is removed on this access and the caller answers 410 Gone;
    - [`Missing] — never existed, already expired away on a previous
      access, deleted, or LRU-evicted: 404.

    Expiry is lazy (checked on access, oldest-first on insert) — there is
    no sweeper thread; an idle expired session costs one table slot until
    it is touched or pushed out. The clock is injected so tests can expire
    sessions deterministically.

    All operations are mutex-guarded; payloads that need per-session
    serialization (an incremental session mid-query) carry their own lock. *)

type 'a t

type counters = {
  created : int;
  expired : int;  (** removed because idle past the TTL *)
  evicted : int;  (** removed live to make room (LRU) *)
  size : int;
  capacity : int;
}

val create : ?clock:(unit -> float) -> ttl_s:float -> cap:int -> unit -> 'a t
(** [clock] defaults to [Unix.gettimeofday]. [cap] ≤ 0 means every [add]
    immediately evicts — effectively a disabled store. *)

val add : ?id:string -> 'a t -> 'a -> string
(** Insert a session, returning its id — freshly minted, or [id] verbatim
    when the caller supplies one (the shard router mints ids that encode
    worker placement; a supplied id replaces any existing entry under it).
    Inserting over capacity first drops expired entries, then the
    least-recently-used live one. *)

val find : 'a t -> string -> [ `Found of 'a | `Expired | `Missing ]
val remove : 'a t -> string -> bool
(** [true] when the id was present (live or expired). *)

val counters : 'a t -> counters
