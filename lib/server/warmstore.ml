(* The serving layer's half of the warm-start store: what Serve's cache
   entries and compiled automatons look like as store records, and how a
   boot replays them. Dggt_store.Store stays generic over opaque payload
   bytes; every [Marshal] of an engine type happens here, versioned by
   [schema_version]. *)

open Dggt_core
module Store = Dggt_store.Store
module Registry = Dggt_pack.Domain_registry
module Autom = Dggt_autom.Autom

(* Bump whenever any payload type below changes shape — including
   transitively (Engine.outcome, Engine.ranked, Word2api.candidate,
   Autom.image). A bump makes every old record a schema skip, which is
   the point: Marshal would otherwise read the old bytes as the new
   type. *)
let schema_version = 2

let kind_cache = "cache"
let kind_autom = "autom"

(* record names, matching the cache labels in GET /metrics *)
let q_cache_name = "q_cache"
let rank_cache_name = "rank_cache"
let word_cache_name = "word_cache"

type caches = {
  q :
    ( int * string * string * string * int,
      Engine.outcome * Engine.ranked list )
    Cache.t;
  rank : (int * string * string * int, Engine.ranked list) Cache.t;
  word : (int * string * string * string, Word2api.candidate list) Cache.t;
}

(* The payload types, exactly as marshalled. Cache entries are spilled
   with the registry generation STRIPPED from their keys: generations
   are process-local (they restart at 0 every boot), so the loader
   re-keys every entry under the booting process's generation — gated on
   the header's pack digest matching, which is what actually pins the
   content the entries were computed against. Entry lists are in
   LRU-to-MRU order (Cache.fold's pinned order), so replaying them
   through Cache.add reproduces the recency order. *)
type q_entries =
  ((string * string * string * int) * (Engine.outcome * Engine.ranked list))
  list

type rank_entries = ((string * string * int) * Engine.ranked list) list
type word_entries = ((string * string * string) * Word2api.candidate list) list

(* ------------------------------------------------------------------ *)
(* spill                                                              *)
(* ------------------------------------------------------------------ *)

type spill_report = {
  sp_records : int;
  sp_entries : int;
  sp_bytes : int;
  sp_seconds : float;
}

let cache_record ~generation ~pack_digest ~name ~engine payload =
  {
    Store.hdr =
      {
        Store.kind = kind_cache;
        name;
        generation;
        pack_digest;
        engine;
        schema = schema_version;
      };
    payload;
  }

(* [automata] rows are (domain name, content key, automaton): the
   content key — not the aggregate pack digest — keys each automaton
   record, so one changed pack invalidates only its own automaton. *)
let spill store ~generation ~pack_digest caches
    ~(automata : (string * string * Autom.t) list) =
  let t0 = Unix.gettimeofday () in
  let q_entries : q_entries =
    List.rev
      (Cache.fold
         (fun acc (_, d, e, qy, k) v -> (((d, e, qy, k), v) :: acc))
         [] caches.q)
  in
  let rank_entries : rank_entries =
    List.rev
      (Cache.fold (fun acc (_, d, qy, k) v -> ((d, qy, k), v) :: acc) [] caches.rank)
  in
  let word_entries : word_entries =
    List.rev
      (Cache.fold (fun acc (_, d, l, p) v -> ((d, l, p), v) :: acc) [] caches.word)
  in
  let entries =
    List.length q_entries + List.length rank_entries + List.length word_entries
  in
  (* empty caches spill nothing: a record would only displace the last
     non-empty snapshot at compaction time *)
  let cache_records =
    List.filter_map
      (fun (name, engine, nonempty, payload) ->
        if nonempty then
          Some (cache_record ~generation ~pack_digest ~name ~engine payload)
        else None)
      [
        (q_cache_name, "*", q_entries <> [], Marshal.to_string q_entries []);
        ( rank_cache_name,
          "dggt",
          rank_entries <> [],
          Marshal.to_string rank_entries [] );
        ( word_cache_name,
          "*",
          word_entries <> [],
          Marshal.to_string word_entries [] );
      ]
  in
  let autom_records =
    List.map
      (fun (dname, ckey, autom) ->
        {
          Store.hdr =
            {
              Store.kind = kind_autom;
              name = dname;
              generation;
              pack_digest = ckey;
              engine = "*";
              schema = schema_version;
            };
          payload = Marshal.to_string (Autom.to_image autom) [];
        })
      automata
  in
  let records = cache_records @ autom_records in
  match Store.append store records with
  | Error msg -> Error msg
  | Ok bytes ->
      Ok
        {
          sp_records = List.length records;
          sp_entries = entries;
          sp_bytes = bytes;
          sp_seconds = Unix.gettimeofday () -. t0;
        }

(* ------------------------------------------------------------------ *)
(* load                                                               *)
(* ------------------------------------------------------------------ *)

type load_report = {
  ld_cache_entries : int;  (** cache entries replayed into the LRUs *)
  ld_automata : int;  (** automaton records held for {!seed} *)
  ld_applied : int;  (** records whose payload was applied *)
  ld_skipped : int;
      (** schema mismatches, superseded duplicates, key mismatches *)
  ld_rejected : int;
      (** digest/frame damage plus unmarshal/restore refusals *)
  ld_seconds : float;
}

(* the newest automaton record of each registry entry, keyed (domain
   name, content key); restored only when the entry's build asks *)
type images = (string * string, Store.record) Hashtbl.t

let load store ~generation ~pack_digest ~registry caches =
  let t0 = Unix.gettimeofday () in
  let l = Store.load store in
  (* newest record per (kind, name, engine) wins — periodic spills
     append whole snapshots, so earlier duplicates are superseded *)
  let newest = Hashtbl.create 16 in
  List.iter
    (fun (r : Store.record) ->
      Hashtbl.replace newest (r.Store.hdr.Store.kind, r.Store.hdr.Store.name, r.Store.hdr.Store.engine) r)
    l.Store.records;
  let superseded = List.length l.Store.records - Hashtbl.length newest in
  let applied = ref 0 in
  let skipped = ref (l.Store.skipped + superseded) in
  let rejected = ref l.Store.rejected in
  let cache_entries = ref 0 in
  let images = Hashtbl.create 4 in
  let live =
    List.map
      (fun (e : Registry.entry) ->
        (e.Registry.domain.Dggt_domains.Domain.name, Registry.content_key e))
      (Registry.entries registry)
  in
  let apply_cache (r : Store.record) =
    if r.Store.hdr.Store.pack_digest <> pack_digest then incr skipped
    else
      let name = r.Store.hdr.Store.name in
      match
        (* digest-guarded bytes we wrote ourselves, under a matching
           schema — the only place [Marshal.from_string] runs on a
           payload. Any surprise is a rejection, never a crash. *)
        if name = q_cache_name then begin
          let es : q_entries = Marshal.from_string r.Store.payload 0 in
          List.iter
            (fun ((d, e, qy, k), v) ->
              Cache.add caches.q (generation, d, e, qy, k) v)
            es;
          Some (List.length es)
        end
        else if name = rank_cache_name then begin
          let es : rank_entries = Marshal.from_string r.Store.payload 0 in
          List.iter
            (fun ((d, qy, k), v) -> Cache.add caches.rank (generation, d, qy, k) v)
            es;
          Some (List.length es)
        end
        else if name = word_cache_name then begin
          let es : word_entries = Marshal.from_string r.Store.payload 0 in
          List.iter
            (fun ((d, lm, p), v) -> Cache.add caches.word (generation, d, lm, p) v)
            es;
          Some (List.length es)
        end
        else None
      with
      | Some n ->
          incr applied;
          cache_entries := !cache_entries + n
      | None -> incr skipped
      | exception _ -> incr rejected
  in
  (* an automaton record is kept only for an entry with its name and
     content key; restoring it needs that entry's graph, so it waits for
     the entry's build ([seed]) *)
  let hold_autom (r : Store.record) =
    let key = (r.Store.hdr.Store.name, r.Store.hdr.Store.pack_digest) in
    if List.mem key live then Hashtbl.replace images key r
    else incr skipped (* domain gone or its pack content changed *)
  in
  Hashtbl.iter
    (fun (kind, _, _) r ->
      if kind = kind_cache then apply_cache r
      else if kind = kind_autom then hold_autom r
      else incr skipped)
    newest;
  ( {
      ld_cache_entries = !cache_entries;
      ld_automata = Hashtbl.length images;
      ld_applied = !applied;
      ld_skipped = !skipped;
      ld_rejected = !rejected;
      ld_seconds = Unix.gettimeofday () -. t0;
    },
    images )

let seed images registry (e : Registry.entry) =
  match
    Hashtbl.find_opt images
      (e.Registry.domain.Dggt_domains.Domain.name, Registry.content_key e)
  with
  | None -> `Absent
  | Some r -> (
      match
        let image : Autom.image = Marshal.from_string r.Store.payload 0 in
        Autom.of_image
          (Lazy.force e.Registry.domain.Dggt_domains.Domain.graph)
          image
      with
      | Ok a ->
          if Registry.seed_automaton registry e a then `Seeded
          else `Skipped (* an automaton is already cached *)
      | Error _ -> `Rejected
      | exception _ -> `Rejected)
