(* Hash table + intrusive circular doubly-linked list. The sentinel node
   closes the ring: sentinel.next is the MRU entry, sentinel.prev the LRU.
   Nodes carry their payload as an option only so the sentinel can exist
   without a key/value witness; real nodes always hold [Some]. *)

type ('k, 'v) node = {
  mutable prev : ('k, 'v) node;
  mutable next : ('k, 'v) node;
  payload : ('k * 'v) option; (* None only for the sentinel *)
}

type ('k, 'v) t = {
  mu : Mutex.t;
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  sentinel : ('k, 'v) node;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ~capacity =
  let rec sentinel = { prev = sentinel; next = sentinel; payload = None } in
  {
    mu = Mutex.create ();
    cap = capacity;
    tbl = Hashtbl.create (max 16 (min capacity 4096));
    sentinel;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.next <- t.sentinel.next;
  n.prev <- t.sentinel;
  t.sentinel.next.prev <- n;
  t.sentinel.next <- n

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some n ->
          t.hits <- t.hits + 1;
          unlink n;
          push_front t n;
          (match n.payload with Some (_, v) -> Some v | None -> None)
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t k v =
  if t.cap > 0 then
    locked t (fun () ->
        (match Hashtbl.find_opt t.tbl k with
        | Some old ->
            unlink old;
            Hashtbl.remove t.tbl k
        | None -> ());
        let n = { prev = t.sentinel; next = t.sentinel; payload = Some (k, v) } in
        push_front t n;
        Hashtbl.replace t.tbl k n;
        if Hashtbl.length t.tbl > t.cap then begin
          let lru = t.sentinel.prev in
          unlink lru;
          (match lru.payload with
          | Some (lk, _) -> Hashtbl.remove t.tbl lk
          | None -> ());
          t.evictions <- t.evictions + 1
        end)

let find_or_compute t k compute =
  match find t k with
  | Some v -> (v, true)
  | None ->
      let v = compute () in
      add t k v;
      (v, false)

let length t = locked t (fun () -> Hashtbl.length t.tbl)
let capacity t = t.cap

let keys_mru t =
  locked t (fun () ->
      let rec go acc n =
        if n == t.sentinel then List.rev acc
        else
          match n.payload with
          | Some (k, _) -> go (k :: acc) n.next
          | None -> go acc n.next
      in
      go [] t.sentinel.next)

(* Entries in recency order, least-recently-used first. Snapshot taken
   under the lock; callers iterate outside it (see the .mli contract). *)
let entries_lru t =
  locked t (fun () ->
      let rec go acc n =
        if n == t.sentinel then acc
        else
          match n.payload with
          | Some kv -> go (kv :: acc) n.next
          | None -> go acc n.next
      in
      go [] t.sentinel.next)

let fold f init t =
  List.fold_left (fun acc (k, v) -> f acc k v) init (entries_lru t)

let counters t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Hashtbl.length t.tbl;
        capacity = t.cap;
      })

let hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0.0 else float_of_int c.hits /. float_of_int total

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      t.sentinel.next <- t.sentinel;
      t.sentinel.prev <- t.sentinel)
