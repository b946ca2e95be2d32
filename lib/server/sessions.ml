(* Same intrusive-ring LRU shape as Cache, plus a TTL on top: the ring tail
   is the least-recently-used entry, so expired sessions cluster there and
   insertion can drop them before evicting anything live. *)

type 'a entry = { payload : 'a; mutable last_used : float }

type 'a node = {
  mutable prev : 'a node;
  mutable next : 'a node;
  item : (string * 'a entry) option; (* None only for the sentinel *)
}

type counters = {
  created : int;
  expired : int;
  evicted : int;
  size : int;
  capacity : int;
}

type 'a t = {
  mu : Mutex.t;
  clock : unit -> float;
  ttl_s : float;
  cap : int;
  tbl : (string, 'a node) Hashtbl.t;
  sentinel : 'a node;
  mutable next_id : int;
  mutable created : int;
  mutable expired : int;
  mutable evicted : int;
}

let create ?(clock = Unix.gettimeofday) ~ttl_s ~cap () =
  let rec sentinel = { prev = sentinel; next = sentinel; item = None } in
  {
    mu = Mutex.create ();
    clock;
    ttl_s;
    cap;
    tbl = Hashtbl.create 64;
    sentinel;
    next_id = 0;
    created = 0;
    expired = 0;
    evicted = 0;
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

let is_expired t e now = now -. e.last_used > t.ttl_s

(* ids only need to be unique per store; a time component keeps them from
   colliding across server restarts behind the same client *)
let fresh_id t now =
  let n = t.next_id in
  t.next_id <- n + 1;
  Printf.sprintf "s%x-%06x" n (int_of_float (now *. 1000.) land 0xffffff)

let drop_tail t now =
  let lru = t.sentinel.prev in
  if lru == t.sentinel then ()
  else begin
    unlink lru;
    match lru.item with
    | Some (id, e) ->
        Hashtbl.remove t.tbl id;
        if is_expired t e now then t.expired <- t.expired + 1
        else t.evicted <- t.evicted + 1
    | None -> ()
  end

let add ?id t payload =
  locked t (fun () ->
      let now = t.clock () in
      (* a caller-minted id (the shard router pins placement into its
         session ids) silently replaces any previous entry under it *)
      (match id with
      | Some id -> (
          match Hashtbl.find_opt t.tbl id with
          | Some n ->
              unlink n;
              Hashtbl.remove t.tbl id
          | None -> ())
      | None -> ());
      while Hashtbl.length t.tbl >= max t.cap 0 && Hashtbl.length t.tbl > 0 do
        drop_tail t now
      done;
      let id = match id with Some id -> id | None -> fresh_id t now in
      if t.cap > 0 then begin
        let n =
          {
            prev = t.sentinel;
            next = t.sentinel;
            item = Some (id, { payload; last_used = now });
          }
        in
        push_front t n;
        Hashtbl.replace t.tbl id n;
        t.created <- t.created + 1
      end;
      id)

let find t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl id with
      | None -> `Missing
      | Some n -> (
          match n.item with
          | None -> `Missing
          | Some (_, e) ->
              let now = t.clock () in
              if is_expired t e now then begin
                unlink n;
                Hashtbl.remove t.tbl id;
                t.expired <- t.expired + 1;
                `Expired
              end
              else begin
                e.last_used <- now;
                unlink n;
                push_front t n;
                `Found e.payload
              end))

let remove t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl id with
      | None -> false
      | Some n ->
          unlink n;
          Hashtbl.remove t.tbl id;
          true)

let counters t =
  locked t (fun () ->
      {
        created = t.created;
        expired = t.expired;
        evicted = t.evicted;
        size = Hashtbl.length t.tbl;
        capacity = t.cap;
      })
