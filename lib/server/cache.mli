(** Mutex-guarded LRU cache for the serving layer.

    One cache instance serves every worker of the pool, so all operations
    take an internal mutex. Lookups and insertions are O(1) (hash table +
    intrusive doubly-linked recency list); when an insertion exceeds the
    capacity, the least-recently-used entry is evicted.

    The server keeps two kinds of caches over these: whole-query →
    {!Dggt_core.Engine.outcome}, and the per-stage memos behind
    {!Dggt_core.Engine.lookups} — [(domain, word) → candidate APIs] and
    [(domain, api₁, api₂) → grammar paths], the two stages whose results do
    not depend on the query. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** A capacity [<= 0] disables the cache: every lookup misses and
    insertions are dropped (useful for [--cache-size 0]). Keys are compared
    with structural equality/hashing. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Bumps the entry to most-recently-used on a hit. Counts a hit or miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (or replace) at most-recently-used; evicts the LRU entry when
    over capacity. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [(value, hit)]. The compute thunk runs {e outside} the cache lock, so a
    slow computation (a whole synthesis) never blocks other requests'
    cache traffic; two racing misses on the same key may both compute, and
    the later {!add} wins. *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

val keys_mru : ('k, 'v) t -> 'k list
(** Keys in recency order, most-recently-used first (tests pin eviction
    order with this). *)

val fold : ('acc -> 'k -> 'v -> 'acc) -> 'acc -> ('k, 'v) t -> 'acc
(** Fold over every entry in recency order, {e least}-recently-used
    first (the reverse of {!keys_mru}) — the seam the warm-start store
    goes through. This order is pinned: replaying the visited pairs
    through {!add} reproduces the cache's recency order exactly, with
    the fold's last pair ending up most-recently-used. The entries are
    snapshotted under the internal lock and [f] runs {e outside} it, so
    [f] may touch the cache (or block) without deadlocking; mutations
    made while the fold runs are not reflected in the snapshot. *)

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

val counters : ('k, 'v) t -> counters

val hit_rate : counters -> float
(** [hits / (hits + misses)]; 0 when no lookups have happened. *)

val clear : ('k, 'v) t -> unit
(** Drop all entries (counters are kept). *)
