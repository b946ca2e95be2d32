module Hist = struct
  type t = {
    bounds : float array; (* ascending upper bounds; overflow bucket implicit *)
    counts : int array;   (* length = Array.length bounds + 1 *)
    mutable total : int;
    mutable sum : float;
    mutable max_v : float;
  }

  let default_bounds =
    [|
      0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0;
      2.5; 5.0; 10.0; 30.0;
    |]

  let create ?(bounds = default_bounds) () =
    {
      bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      total = 0;
      sum = 0.0;
      max_v = 0.0;
    }

  let bucket_of t v =
    let n = Array.length t.bounds in
    let rec go i = if i >= n then n else if v <= t.bounds.(i) then i else go (i + 1) in
    go 0

  let observe t v =
    let i = bucket_of t v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. v;
    if v > t.max_v then t.max_v <- v

  let count t = t.total
  let sum t = t.sum
  let max_value t = t.max_v

  let quantile t q =
    if t.total = 0 then 0.0
    else begin
      let rank = q *. float_of_int t.total in
      let n = Array.length t.bounds in
      let rec go i cum =
        if i > n then t.max_v
        else
          let cum' = cum + t.counts.(i) in
          if float_of_int cum' >= rank then
            if i = n then t.max_v
            else
              (* interpolate within [lower, upper] assuming uniform spread *)
              let lower = if i = 0 then 0.0 else t.bounds.(i - 1) in
              let upper = t.bounds.(i) in
              let in_bucket = t.counts.(i) in
              if in_bucket = 0 then upper
              else
                let frac = (rank -. float_of_int cum) /. float_of_int in_bucket in
                Float.min t.max_v (lower +. (frac *. (upper -. lower)))
          else go (i + 1) cum'
      in
      go 0 0
    end

  let buckets t =
    let n = Array.length t.bounds in
    let cum = ref 0 in
    let out = ref [] in
    for i = 0 to n do
      cum := !cum + t.counts.(i);
      let le = if i = n then Float.infinity else t.bounds.(i) in
      out := (le, !cum) :: !out
    done;
    List.rev !out
end

type t = {
  mu : Mutex.t;
  latency : Hist.t;
  stages : (string, Hist.t) Hashtbl.t; (* per-pipeline-stage latency *)
  requests : (string * string, int ref) Hashtbl.t; (* (domain, outcome) *)
  mutable inflight : int;
  mutable pool_probe : unit -> pool_gauges;
  mutable caches : (string * (unit -> Cache.counters)) list;
  (* incremental sessions: reuse counters fed per revision, store counters
     sampled at render time *)
  mutable inc_queries : int;
  mutable inc_splices : int;
  mutable inc_reused : int;
  mutable inc_computed : int;
  (* streamed (SSE) requests: total served, candidate frames written,
     time-to-first-candidate distribution *)
  mutable streams : int;
  mutable stream_candidates : int;
  mutable stream_replays : int;
  stream_ttfc : Hist.t;
  mutable sessions_probe : (unit -> Sessions.counters) option;
  (* grammar-automaton compilations: count + last compile wall time, per
     domain (reloads recompile only changed packs, so the counter exposes
     exactly how often each domain paid the compile) *)
  autom : (string, int ref * float ref) Hashtbl.t;
  (* warm-start store: the boot's load verdict, spill count + last spill
     latency; [store_on] once a load was observed (the server has a
     store) *)
  mutable store_on : bool;
  mutable store_loaded : int;
  mutable store_skipped : int;
  mutable store_rejected : int;
  mutable store_spills : int;
  mutable store_spill_seconds : float;
}

and pool_gauges = {
  queue_depth : int;
  workers_live : int;
  worker_spawns : int;
  worker_retirements : int;
}

let create () =
  {
    mu = Mutex.create ();
    latency = Hist.create ();
    stages = Hashtbl.create 8;
    requests = Hashtbl.create 16;
    inflight = 0;
    pool_probe =
      (fun () ->
        { queue_depth = 0; workers_live = 0; worker_spawns = 0;
          worker_retirements = 0 });
    caches = [];
    inc_queries = 0;
    inc_splices = 0;
    inc_reused = 0;
    inc_computed = 0;
    streams = 0;
    stream_candidates = 0;
    stream_replays = 0;
    stream_ttfc = Hist.create ();
    sessions_probe = None;
    autom = Hashtbl.create 8;
    store_on = false;
    store_loaded = 0;
    store_skipped = 0;
    store_rejected = 0;
    store_spills = 0;
    store_spill_seconds = 0.0;
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

let observe t ~domain ~outcome latency_s =
  locked t (fun () ->
      Hist.observe t.latency latency_s;
      let key = (domain, outcome) in
      match Hashtbl.find_opt t.requests key with
      | Some r -> incr r
      | None -> Hashtbl.replace t.requests key (ref 1))

let observe_stage t ~stage latency_s =
  locked t (fun () ->
      let h =
        match Hashtbl.find_opt t.stages stage with
        | Some h -> h
        | None ->
            let h = Hist.create () in
            Hashtbl.replace t.stages stage h;
            h
      in
      Hist.observe h latency_s)

let incr_inflight t = locked t (fun () -> t.inflight <- t.inflight + 1)
let decr_inflight t = locked t (fun () -> t.inflight <- t.inflight - 1)
let inflight t = locked t (fun () -> t.inflight)
let set_pool_probe t probe = locked t (fun () -> t.pool_probe <- probe)

let register_cache t name probe =
  locked t (fun () -> t.caches <- t.caches @ [ (name, probe) ])

let observe_reuse t ~reused ~computed ~splice =
  locked t (fun () ->
      t.inc_queries <- t.inc_queries + 1;
      if splice then t.inc_splices <- t.inc_splices + 1;
      t.inc_reused <- t.inc_reused + reused;
      t.inc_computed <- t.inc_computed + computed)

let set_sessions_probe t probe =
  locked t (fun () -> t.sessions_probe <- Some probe)

let observe_stream t ~candidates ~ttfc_s =
  locked t (fun () ->
      t.streams <- t.streams + 1;
      t.stream_candidates <- t.stream_candidates + candidates;
      match ttfc_s with
      | Some s -> Hist.observe t.stream_ttfc s
      | None -> ())

let observe_stream_replay t =
  locked t (fun () -> t.stream_replays <- t.stream_replays + 1)

let observe_autom_compile t ~domain seconds =
  locked t (fun () ->
      match Hashtbl.find_opt t.autom domain with
      | Some (n, s) ->
          incr n;
          s := seconds
      | None -> Hashtbl.replace t.autom domain (ref 1, ref seconds))

let observe_store_load t ~loaded ~skipped ~rejected =
  locked t (fun () ->
      t.store_on <- true;
      t.store_loaded <- t.store_loaded + loaded;
      t.store_skipped <- t.store_skipped + skipped;
      t.store_rejected <- t.store_rejected + rejected)

let observe_store_spill t seconds =
  locked t (fun () ->
      t.store_spills <- t.store_spills + 1;
      t.store_spill_seconds <- seconds)

let fmt_float v =
  if Float.abs v = Float.infinity then "+Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let render t =
  locked t (fun () ->
      let b = Buffer.create 2048 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
      line "# HELP dggt_requests_total Finished requests by domain and outcome.";
      line "# TYPE dggt_requests_total counter";
      Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.requests []
      |> List.sort compare
      |> List.iter (fun ((domain, outcome), count) ->
             line "dggt_requests_total{domain=%S,outcome=%S} %d" domain outcome
               count);
      line "# HELP dggt_request_latency_seconds Request service latency.";
      line "# TYPE dggt_request_latency_seconds histogram";
      List.iter
        (fun (le, cum) ->
          line "dggt_request_latency_seconds_bucket{le=%S} %d" (fmt_float le) cum)
        (Hist.buckets t.latency);
      line "dggt_request_latency_seconds_sum %s" (fmt_float (Hist.sum t.latency));
      line "dggt_request_latency_seconds_count %d" (Hist.count t.latency);
      List.iter
        (fun (name, q) ->
          line "# TYPE dggt_request_latency_%s gauge" name;
          line "dggt_request_latency_%s %s" name
            (fmt_float (Hist.quantile t.latency q)))
        [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ];
      let stage_hists =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.stages []
        |> List.sort compare
      in
      if stage_hists <> [] then begin
        line "# HELP dggt_stage_latency_seconds Pipeline stage latency.";
        line "# TYPE dggt_stage_latency_seconds histogram";
        List.iter
          (fun (stage, h) ->
            List.iter
              (fun (le, cum) ->
                line "dggt_stage_latency_seconds_bucket{stage=%S,le=%S} %d"
                  stage (fmt_float le) cum)
              (Hist.buckets h);
            line "dggt_stage_latency_seconds_sum{stage=%S} %s" stage
              (fmt_float (Hist.sum h));
            line "dggt_stage_latency_seconds_count{stage=%S} %d" stage
              (Hist.count h))
          stage_hists;
        List.iter
          (fun (name, q) ->
            line "# TYPE dggt_stage_latency_%s gauge" name;
            List.iter
              (fun (stage, h) ->
                line "dggt_stage_latency_%s{stage=%S} %s" name stage
                  (fmt_float (Hist.quantile h q)))
              stage_hists)
          [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]
      end;
      let pool = t.pool_probe () in
      line "# HELP dggt_queue_depth Requests waiting in the worker queue.";
      line "# TYPE dggt_queue_depth gauge";
      line "dggt_queue_depth %d" pool.queue_depth;
      line "# HELP dggt_pool_workers_live Worker domains alive now.";
      line "# TYPE dggt_pool_workers_live gauge";
      line "dggt_pool_workers_live %d" pool.workers_live;
      line "# HELP dggt_pool_worker_spawns_total Worker domains spawned.";
      line "# TYPE dggt_pool_worker_spawns_total counter";
      line "dggt_pool_worker_spawns_total %d" pool.worker_spawns;
      line "# HELP dggt_pool_worker_retirements_total Idle worker domains retired.";
      line "# TYPE dggt_pool_worker_retirements_total counter";
      line "dggt_pool_worker_retirements_total %d" pool.worker_retirements;
      (* process-wide: every domain takes part in every collection *)
      let gc = Gc.quick_stat () in
      line "# HELP dggt_gc_minor_collections_total Minor collections.";
      line "# TYPE dggt_gc_minor_collections_total counter";
      line "dggt_gc_minor_collections_total %d" gc.Gc.minor_collections;
      line "# HELP dggt_gc_major_collections_total Major collection cycles.";
      line "# TYPE dggt_gc_major_collections_total counter";
      line "dggt_gc_major_collections_total %d" gc.Gc.major_collections;
      line "# HELP dggt_inflight_requests Requests currently being served.";
      line "# TYPE dggt_inflight_requests gauge";
      line "dggt_inflight_requests %d" t.inflight;
      if t.caches <> [] then begin
        line "# HELP dggt_cache_hits_total Cache hits by cache.";
        line "# TYPE dggt_cache_hits_total counter";
        line "# TYPE dggt_cache_misses_total counter";
        line "# TYPE dggt_cache_evictions_total counter";
        line "# TYPE dggt_cache_entries gauge";
        List.iter
          (fun (name, probe) ->
            match probe () with
            | c ->
                line "dggt_cache_hits_total{cache=%S} %d" name c.Cache.hits;
                line "dggt_cache_misses_total{cache=%S} %d" name c.Cache.misses;
                line "dggt_cache_evictions_total{cache=%S} %d" name
                  c.Cache.evictions;
                line "dggt_cache_entries{cache=%S} %d" name c.Cache.size
            | exception _ -> ())
          t.caches
      end;
      (match t.sessions_probe with
      | None -> ()
      | Some probe -> (
          match probe () with
          | c ->
              line "# HELP dggt_sessions Live incremental sessions.";
              line "# TYPE dggt_sessions gauge";
              line "dggt_sessions %d" c.Sessions.size;
              line "# TYPE dggt_sessions_created_total counter";
              line "dggt_sessions_created_total %d" c.Sessions.created;
              line "# TYPE dggt_sessions_expired_total counter";
              line "dggt_sessions_expired_total %d" c.Sessions.expired;
              line "# TYPE dggt_sessions_evicted_total counter";
              line "dggt_sessions_evicted_total %d" c.Sessions.evicted
          | exception _ -> ()));
      if Hashtbl.length t.autom > 0 then begin
        let rows =
          Hashtbl.fold (fun k (n, s) acc -> (k, !n, !s) :: acc) t.autom []
          |> List.sort compare
        in
        line
          "# HELP dggt_autom_compiles_total Grammar automaton compilations \
           by domain.";
        line "# TYPE dggt_autom_compiles_total counter";
        List.iter
          (fun (domain, n, _) ->
            line "dggt_autom_compiles_total{domain=%S} %d" domain n)
          rows;
        line
          "# HELP dggt_autom_compile_seconds Wall time of the domain's most \
           recent automaton compilation.";
        line "# TYPE dggt_autom_compile_seconds gauge";
        List.iter
          (fun (domain, _, s) ->
            line "dggt_autom_compile_seconds{domain=%S} %s" domain
              (fmt_float s))
          rows
      end;
      if t.store_on then begin
        line
          "# HELP dggt_store_records_loaded_total Warm-start snapshots \
           replayed at boot.";
        line "# TYPE dggt_store_records_loaded_total counter";
        line "dggt_store_records_loaded_total %d" t.store_loaded;
        line "# TYPE dggt_store_records_skipped_total counter";
        line "dggt_store_records_skipped_total %d" t.store_skipped;
        line "# TYPE dggt_store_records_rejected_total counter";
        line "dggt_store_records_rejected_total %d" t.store_rejected;
        line "# TYPE dggt_store_spills_total counter";
        line "dggt_store_spills_total %d" t.store_spills;
        line
          "# HELP dggt_store_spill_seconds Wall time of the most recent \
           spill.";
        line "# TYPE dggt_store_spill_seconds gauge";
        line "dggt_store_spill_seconds %s" (fmt_float t.store_spill_seconds)
      end;
      if t.streams > 0 then begin
        line "# HELP dggt_streams_total Streamed (SSE) requests served.";
        line "# TYPE dggt_streams_total counter";
        line "dggt_streams_total %d" t.streams;
        line
          "# HELP dggt_stream_candidates_total Candidate frames written \
           across all streams.";
        line "# TYPE dggt_stream_candidates_total counter";
        line "dggt_stream_candidates_total %d" t.stream_candidates;
        line
          "# HELP dggt_stream_cache_replays_total Streams answered by \
           replaying a cached outcome.";
        line "# TYPE dggt_stream_cache_replays_total counter";
        line "dggt_stream_cache_replays_total %d" t.stream_replays;
        line
          "# HELP dggt_stream_ttfc_seconds Time from request start to the \
           first streamed candidate.";
        line "# TYPE dggt_stream_ttfc_seconds histogram";
        List.iter
          (fun (le, cum) ->
            line "dggt_stream_ttfc_seconds_bucket{le=%S} %d" (fmt_float le) cum)
          (Hist.buckets t.stream_ttfc);
        line "dggt_stream_ttfc_seconds_sum %s"
          (fmt_float (Hist.sum t.stream_ttfc));
        line "dggt_stream_ttfc_seconds_count %d" (Hist.count t.stream_ttfc)
      end;
      if t.inc_queries > 0 then begin
        line "# HELP dggt_inc_queries_total Incremental session revisions served.";
        line "# TYPE dggt_inc_queries_total counter";
        line "dggt_inc_queries_total %d" t.inc_queries;
        line "# TYPE dggt_inc_splices_total counter";
        line "dggt_inc_splices_total %d" t.inc_splices;
        line
          "# HELP dggt_inc_reuse_ratio Fraction of stage lookups served from \
           session memory.";
        line "# TYPE dggt_inc_reuse_ratio gauge";
        let total = t.inc_reused + t.inc_computed in
        line "dggt_inc_reuse_ratio %s"
          (fmt_float
             (if total = 0 then 0.0
              else float_of_int t.inc_reused /. float_of_int total))
      end;
      Buffer.contents b)
