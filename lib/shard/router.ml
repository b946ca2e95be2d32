module Httpd = Dggt_server.Httpd
module J = Dggt_server.Jsonio
module Smetrics = Dggt_server.Smetrics

type params = {
  addr : string;
  port : int;
  shards : int;
  exe : string;
  worker_args : string list;
  store_dir : string option;
  proxy_timeout_s : float;
}

let default_params =
  {
    addr = "127.0.0.1";
    port = 8080;
    shards = 2;
    exe = "";
    worker_args = [];
    store_dir = None;
    proxy_timeout_s = 30.0;
  }

(* how long a stateless request keeps retrying across a crash and
   respawn before it gives up with 502 *)
let retry_window_s = 20.0

(* how long [create], and [run] before its startup line, wait for every
   worker's first heartbeat *)
let ready_timeout_s = 60.0

type t = {
  params : params;
  sup : Supervisor.t;
  metrics : Smetrics.t; (* the router's own dggt_shard_* families *)
  requests : Smetrics.counter; (* by shard and status class *)
  retries : Smetrics.counter;
  sticky_gone : Smetrics.counter;
  latency : Smetrics.histogram;
  umu : Mutex.t; (* guards the uid counter *)
  mutable uid_counter : int;
  mutable http : Httpd.t option;
}

let api_version = Dggt_server.Wire.api_version
let error_json = Dggt_server.Wire.error_json

(* ------------------------------------------------------------------ *)
(* router metrics                                                     *)
(* ------------------------------------------------------------------ *)

let class_of_status s =
  if s >= 500 then "5xx"
  else if s >= 400 then "4xx"
  else if s >= 300 then "3xx"
  else "2xx"

(* one proxied exchange: its latency and its status class *)
let answered t ~slot ~t0 status =
  Smetrics.record t.metrics
    [
      Smetrics.observe t.latency [] (Unix.gettimeofday () -. t0);
      Smetrics.inc t.requests [ string_of_int slot; class_of_status status ];
    ]

(* a transport failure, and the retry it leads to *)
let unanswered t ~slot ~retry =
  Smetrics.record t.metrics
    (Smetrics.inc t.requests [ string_of_int slot; "transport_error" ]
    :: (if retry then [ Smetrics.inc t.retries [] ] else []))

(* ------------------------------------------------------------------ *)
(* request forwarding                                                 *)
(* ------------------------------------------------------------------ *)

let urlencode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
          Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

(* the worker-side request target: path plus re-encoded query string *)
let target (req : Httpd.request) =
  match req.Httpd.query with
  | [] -> req.Httpd.path
  | q ->
      req.Httpd.path ^ "?"
      ^ String.concat "&"
          (List.map (fun (k, v) -> urlencode k ^ "=" ^ urlencode v) q)

let content_type_of (headers : (string * string) list) =
  List.assoc_opt "content-type" headers

(* forward one request to [slot]'s worker. [retryable] requests (the
   stateless ones) are re-sent across the crash/respawn window as long
   as the transport failed before any response byte; sticky requests
   surface the failure immediately (their state died with the worker).
   A chunked upstream body becomes a chunked downstream response whose
   producer pumps one chunk per upstream frame — SSE passes through
   unbuffered. *)
let forward t ~slot ~retryable ~meth ~path ?body () =
  let deadline = Unix.gettimeofday () +. retry_window_s in
  let rec attempt () =
    let socket =
      match Supervisor.find t.sup slot with
      | Some w -> w.Supervisor.socket
      | None -> Printf.sprintf "/nonexistent/w%d.sock" slot
    in
    let t0 = Unix.gettimeofday () in
    match
      Proxy.request ~socket ~timeout_s:t.params.proxy_timeout_s ~meth ~path
        ?body ()
    with
    | Ok resp -> (
        answered t ~slot ~t0 resp.Proxy.status;
        match resp.Proxy.body with
        | Proxy.Fixed b ->
            Httpd.response
              ?content_type:(content_type_of resp.Proxy.headers)
              resp.Proxy.status b
        | Proxy.Stream pump -> Httpd.stream_response resp.Proxy.status pump)
    | Error msg ->
        Supervisor.note_transport_failure t.sup slot;
        let retry = retryable && Unix.gettimeofday () < deadline in
        unanswered t ~slot ~retry;
        if retry then begin
          Thread.delay 0.05;
          attempt ()
        end
        else
          Httpd.response 502
            (error_json
               (Printf.sprintf "worker %d unreachable: %s" slot msg))
  in
  attempt ()

(* ------------------------------------------------------------------ *)
(* routing keys                                                       *)
(* ------------------------------------------------------------------ *)

(* The slot count is fixed for the router's life, so a key's slot is its
   hash modulo the count: no key ever has to move. *)
let slot_of ~shards key = Hashtbl.hash key mod shards

(* the query text of a stateless request; mirrors the worker's own
   parameter carriage (GET: query string, POST: JSON body) *)
let query_text (req : Httpd.request) =
  let named =
    match List.assoc_opt "query" req.Httpd.query with
    | Some q -> Some q
    | None -> (
        if req.Httpd.body = "" then None
        else
          match J.of_string req.Httpd.body with
          | Ok b -> J.str_field "query" b
          | Error _ -> None)
  in
  Option.value named ~default:""

let place t key = slot_of ~shards:t.params.shards key

let first_healthy_slot t =
  match
    List.find_opt
      (fun (w : Supervisor.worker) -> w.Supervisor.state = Supervisor.Healthy)
      (Supervisor.workers t.sup)
  with
  | Some w -> w.Supervisor.slot
  | None -> 0

(* which worker serves a stateless request: /synthesize and /rank hash
   their query text, so a query keeps its worker (and its cache entry)
   under any spelling of its domain, and a domain's load spreads over the
   workers; everything else is replicated state, any healthy worker will
   do *)
let stateless_slot t (req : Httpd.request) =
  match req.Httpd.path with
  | "/synthesize" | "/rank" -> place t (query_text req)
  | _ -> first_healthy_slot t

(* ------------------------------------------------------------------ *)
(* sticky sessions                                                    *)
(* ------------------------------------------------------------------ *)

(* "<uid>.w<slot>e<epoch>" <-> (uid, slot, epoch) *)
let parse_placement id =
  match String.rindex_opt id '.' with
  | None -> None
  | Some i -> (
      let suffix = String.sub id (i + 1) (String.length id - i - 1) in
      if String.length suffix < 4 || suffix.[0] <> 'w' then None
      else
        match String.index_opt suffix 'e' with
        | None -> None
        | Some j -> (
            match
              ( int_of_string_opt (String.sub suffix 1 (j - 1)),
                int_of_string_opt
                  (String.sub suffix (j + 1) (String.length suffix - j - 1))
              )
            with
            | Some slot, Some epoch when slot >= 0 && epoch >= 1 ->
                Some (slot, epoch)
            | _ -> None))

let mint_uid t =
  Mutex.lock t.umu;
  let n = t.uid_counter in
  t.uid_counter <- n + 1;
  Mutex.unlock t.umu;
  Printf.sprintf "u%x-%06x" n
    (int_of_float (Unix.gettimeofday () *. 1000.) land 0xffffff)

(* POST /session: mint the uid, place it, pin the owning
   worker's current epoch into the id, and have the worker create the
   session under exactly that id. The id is (re)built inside the retry
   loop: if the worker dies between placement and creation, the retry
   pins the respawned epoch. *)
let session_create_handler t (req : Httpd.request) =
  match
    J.of_string (if req.Httpd.body = "" then "{}" else req.Httpd.body)
  with
  | Error e -> Httpd.response 400 (error_json e)
  | Ok (J.Obj fields) ->
      let uid = mint_uid t in
      let slot = place t uid in
      let deadline = Unix.gettimeofday () +. retry_window_s in
      let rec attempt () =
        let w = Supervisor.find t.sup slot in
        let epoch, socket =
          match w with
          | Some w -> (w.Supervisor.epoch, w.Supervisor.socket)
          | None -> (1, Printf.sprintf "/nonexistent/w%d.sock" slot)
        in
        let id = Printf.sprintf "%s.w%de%d" uid slot epoch in
        let body =
          J.to_string
            (J.Obj
               (List.filter (fun (k, _) -> k <> "id") fields
               @ [ ("id", J.Str id) ]))
        in
        let t0 = Unix.gettimeofday () in
        match
          Proxy.request ~socket ~timeout_s:t.params.proxy_timeout_s
            ~meth:"POST" ~path:"/session" ~body ()
        with
        | Ok resp ->
            answered t ~slot ~t0 resp.Proxy.status;
            Httpd.response
              ?content_type:(content_type_of resp.Proxy.headers)
              resp.Proxy.status (Proxy.fixed_body resp)
        | Error msg ->
            Supervisor.note_transport_failure t.sup slot;
            let retry = Unix.gettimeofday () < deadline in
            unanswered t ~slot ~retry;
            if retry then begin
              Thread.delay 0.05;
              attempt ()
            end
            else
              Httpd.response 502
                (error_json
                   (Printf.sprintf "worker %d unreachable: %s" slot msg))
      in
      attempt ()
  | Ok _ -> Httpd.response 400 (error_json "request body must be an object")

(* /session/<id>[/query]: the id itself says where to go. An epoch
   mismatch means the owning worker was replaced since the session was
   created — its state is gone, and unlike the stateless paths this is
   not retryable: 410, mirroring the single-process server's
   reload-stranded sessions. Ids without our suffix (created before a
   router sat in front, or hand-made) fall back to hashing the whole id:
   stable routing, but no replacement detection. *)
let sticky_handler t (req : Httpd.request) id =
  match parse_placement id with
  | Some (slot, epoch) when slot < t.params.shards -> (
      match Supervisor.find t.sup slot with
      | Some w when w.Supervisor.epoch <> epoch ->
          Smetrics.record t.metrics [ Smetrics.inc t.sticky_gone [] ];
          Httpd.response 410
            (error_json
               "session lost: its worker was replaced (create a new session)")
      | _ ->
          forward t ~slot ~retryable:false ~meth:req.Httpd.meth
            ~path:(target req) ~body:req.Httpd.body ())
  | _ ->
      let slot = place t id in
      forward t ~slot ~retryable:false ~meth:req.Httpd.meth
        ~path:(target req) ~body:req.Httpd.body ()

(* ------------------------------------------------------------------ *)
(* fan-out endpoints                                                  *)
(* ------------------------------------------------------------------ *)

(* scrape every worker; workers that fail to answer are skipped (their
   series simply age out downstream) but noted as a comment *)
let metrics_handler t =
  let scrapes =
    List.filter_map
      (fun (w : Supervisor.worker) ->
        match
          Proxy.request ~socket:w.Supervisor.socket
            ~timeout_s:t.params.proxy_timeout_s ~meth:"GET" ~path:"/metrics"
            ()
        with
        | Ok resp when resp.Proxy.status = 200 ->
            Some (w.Supervisor.slot, Proxy.fixed_body resp)
        | Ok resp ->
            ignore (Proxy.fixed_body resp);
            None
        | Error _ -> None)
      (Supervisor.workers t.sup)
  in
  Httpd.response ~content_type:"text/plain; version=0.0.4" 200
    (Promerge.merge scrapes ~extra:(Smetrics.render t.metrics))

let reload_handler t =
  let results =
    List.map
      (fun (w : Supervisor.worker) ->
        match
          Proxy.request ~socket:w.Supervisor.socket
            ~timeout_s:t.params.proxy_timeout_s ~meth:"POST" ~path:"/reload"
            ~body:"" ()
        with
        | Ok resp ->
            let body = Proxy.fixed_body resp in
            let payload =
              match J.of_string body with Ok v -> v | Error _ -> J.Str body
            in
            (w.Supervisor.slot, resp.Proxy.status, payload)
        | Error msg ->
            (w.Supervisor.slot, 502, J.Obj [ ("error", J.Str msg) ]))
      (Supervisor.workers t.sup)
  in
  let all_ok = List.for_all (fun (_, status, _) -> status = 200) results in
  Httpd.response
    (if all_ok then 200 else 502)
    (J.to_string
       (J.Obj
          [
            ("v", J.Num (float_of_int api_version));
            ("ok", J.Bool all_ok);
            ( "shards",
              J.Arr
                (List.map
                   (fun (slot, status, payload) ->
                     J.Obj
                       [
                         ("shard", J.Num (float_of_int slot));
                         ("status", J.Num (float_of_int status));
                         ("response", payload);
                       ])
                   results) );
          ]))

let state_str = function
  | Supervisor.Starting -> "starting"
  | Supervisor.Healthy -> "healthy"
  | Supervisor.Backoff -> "backoff"
  | Supervisor.Stopped -> "stopped"

(* shard topology: the supervisor's view of each slot, enriched with the
   worker's own /version answer (build, generation, pack digest) when it
   is reachable. Pack digests are the reload-consistency check: after a
   partially-failed /reload fan-out, workers can diverge — the router
   flags that rather than hiding it. *)
let version_handler t =
  let ws =
    List.map
      (fun (w : Supervisor.worker) ->
        let remote =
          match
            Proxy.request ~socket:w.Supervisor.socket
              ~timeout_s:t.params.proxy_timeout_s ~meth:"GET" ~path:"/version"
              ()
          with
          | Ok resp when resp.Proxy.status = 200 -> (
              match J.of_string (Proxy.fixed_body resp) with
              | Ok v -> Some v
              | Error _ -> None)
          | Ok resp ->
              ignore (Proxy.fixed_body resp);
              None
          | Error _ -> None
        in
        (w, remote))
      (Supervisor.workers t.sup)
  in
  let digests =
    List.filter_map
      (fun (_, remote) -> Option.bind remote (J.str_field "pack_digest"))
      ws
  in
  let mismatch =
    match digests with
    | [] -> false
    | d :: rest -> List.exists (fun d' -> d' <> d) rest
  in
  Httpd.response 200
    (J.to_string
       (J.Obj
          [
            ("v", J.Num (float_of_int api_version));
            ("role", J.Str "router");
            ("shards", J.Num (float_of_int t.params.shards));
            ("pack_digest_mismatch", J.Bool mismatch);
            ( "workers",
              J.Arr
                (List.map
                   (fun ((w : Supervisor.worker), remote) ->
                     let remote_fields =
                       match remote with
                       | None -> []
                       | Some v ->
                           List.filter_map
                             (fun key ->
                               Option.map
                                 (fun s -> (key, J.Str s))
                                 (J.str_field key v))
                             [ "build"; "pack_digest" ]
                           @
                           (match J.num_field "generation" v with
                           | Some g -> [ ("generation", J.Num g) ]
                           | None -> [])
                     in
                     J.Obj
                       ([
                          ("shard", J.Num (float_of_int w.Supervisor.slot));
                          ("pid", J.Num (float_of_int w.Supervisor.pid));
                          ("epoch", J.Num (float_of_int w.Supervisor.epoch));
                          ("state", J.Str (state_str w.Supervisor.state));
                          ( "respawns",
                            J.Num (float_of_int w.Supervisor.respawns) );
                          ( "heartbeat_failures",
                            J.Num (float_of_int w.Supervisor.hb_failures) );
                          ("socket", J.Str w.Supervisor.socket);
                        ]
                       @ remote_fields))
                   ws) );
          ]))

let healthz_handler t =
  let ws = Supervisor.workers t.sup in
  let healthy =
    List.length
      (List.filter
         (fun (w : Supervisor.worker) ->
           w.Supervisor.state = Supervisor.Healthy)
         ws)
  in
  Httpd.response 200
    (J.to_string
       (J.Obj
          [
            ("status", J.Str (if healthy > 0 then "ok" else "degraded"));
            ("role", J.Str "router");
            ("workers", J.Num (float_of_int (List.length ws)));
            ("healthy", J.Num (float_of_int healthy));
          ]))

(* ------------------------------------------------------------------ *)
(* dispatch                                                           *)
(* ------------------------------------------------------------------ *)

let session_path path =
  match String.split_on_char '/' path with
  | [ ""; "session"; id ] when id <> "" -> Some id
  | [ ""; "session"; id; "query" ] when id <> "" -> Some id
  | _ -> None

let handler t (req : Httpd.request) =
  match (req.Httpd.meth, req.Httpd.path) with
  | "GET", "/healthz" -> healthz_handler t
  | "GET", "/metrics" -> metrics_handler t
  | "GET", "/version" -> version_handler t
  | "POST", "/reload" -> reload_handler t
  | "POST", "/session" -> session_create_handler t req
  | meth, path -> (
      match session_path path with
      | Some id -> sticky_handler t req id
      | None ->
          let slot = stateless_slot t req in
          forward t ~slot ~retryable:(meth <> "DELETE") ~meth
            ~path:(target req) ~body:req.Httpd.body ())

(* ------------------------------------------------------------------ *)
(* lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

(* spawn the workers and bind the client port; the fleet comes up on
   its own *)
let start params =
  if params.shards <= 0 then invalid_arg "Router.create: shards must be > 0";
  if params.exe = "" then invalid_arg "Router.create: exe must be set";
  let argv ~slot ~socket =
    let store_args =
      match params.store_dir with
      | None -> []
      | Some root ->
          (* the worker creates its directory *)
          [ "--store"; Filename.concat root (Printf.sprintf "shard-%d" slot) ]
    in
    Array.of_list
      ((params.exe :: "serve" :: "--unix-socket" :: socket
       :: params.worker_args)
      @ store_args)
  in
  let sup = Supervisor.start ~shards:params.shards ~argv in
  (* the router's families; the supervisor's slots are sampled *)
  let metrics = Smetrics.create () in
  let sampled ?labels kind name help rows =
    Smetrics.sampled metrics ?labels kind name ~help rows
  in
  let per_slot f () =
    List.map
      (fun (w : Supervisor.worker) ->
        ([ string_of_int w.Supervisor.slot ], float_of_int (f w)))
      (Supervisor.workers sup)
  in
  sampled `Gauge "dggt_shard_workers" "Worker slots behind the router."
    (fun () -> [ ([], float_of_int (List.length (Supervisor.workers sup))) ]);
  sampled ~labels:[ "shard" ] `Gauge "dggt_shard_worker_up"
    "Worker health (1 = heartbeat ok)."
    (per_slot (fun w -> if w.Supervisor.state = Supervisor.Healthy then 1 else 0));
  sampled ~labels:[ "shard" ] `Counter "dggt_shard_respawns_total"
    "Worker respawns by the supervisor."
    (per_slot (fun w -> w.Supervisor.respawns));
  sampled ~labels:[ "shard" ] `Counter "dggt_shard_heartbeat_failures_total"
    "Failed worker heartbeats."
    (per_slot (fun w -> w.Supervisor.hb_failures));
  let t =
    {
      params;
      sup;
      metrics;
      requests =
        Smetrics.counter metrics "dggt_shard_requests_total"
          ~labels:[ "shard"; "class" ]
          ~help:"Proxied requests by worker and status class.";
      retries =
        Smetrics.counter metrics "dggt_shard_retries_total"
          ~help:"Stateless requests retried after a transport failure.";
      sticky_gone =
        Smetrics.counter metrics "dggt_shard_sticky_gone_total"
          ~help:
            "Sticky requests answered 410 because the session's worker was \
             replaced.";
      latency =
        Smetrics.histogram metrics "dggt_shard_proxy_latency_seconds"
          ~help:"Proxied request latency.";
      umu = Mutex.create ();
      uid_counter = 0;
      http = None;
    }
  in
  let http =
    try
      Httpd.create ~addr:params.addr ~port:params.port (fun req ->
          handler t req)
    with e ->
      (* a client port that cannot be bound must not leave the workers
         running *)
      Supervisor.stop sup;
      raise e
  in
  t.http <- Some http;
  (t, http)

let create params =
  let t, _ = start params in
  ignore (Supervisor.await_healthy t.sup ~timeout_s:ready_timeout_s);
  t

let port t = match t.http with Some h -> Httpd.port h | None -> t.params.port
let supervisor t = t.sup

let stop t =
  (match t.http with
  | Some h ->
      Httpd.stop h;
      Httpd.wait h
  | None -> ());
  Supervisor.stop t.sup

let run params =
  (* A signal must stop the fleet from the moment it exists: the workers
     outlive a router killed by SIGTERM's default action. Until the
     server's own handlers are in, a signal is only noted. *)
  let signalled = Atomic.make false in
  let note = Sys.Signal_handle (fun _ -> Atomic.set signalled true) in
  Sys.set_signal Sys.sigint note;
  Sys.set_signal Sys.sigterm note;
  let t, http = start params in
  Httpd.handle_signals http;
  if Atomic.get signalled then Httpd.stop http;
  (* the startup line waits for the fleet's first heartbeats, or up to
     [ready_timeout_s]; a stop meanwhile ends the wait and skips it *)
  let stopping = Atomic.make false in
  let announce =
    Thread.create
      (fun () ->
        ignore (Supervisor.await_healthy t.sup ~timeout_s:ready_timeout_s);
        if not (Atomic.get stopping) then
          Printf.printf
            "dggt serve: router on http://%s:%d, %d shard workers (sockets in %s%s)\n%!"
            params.addr (port t) params.shards
            (match Supervisor.workers t.sup with
            | w :: _ -> Filename.dirname w.Supervisor.socket
            | [] -> "?")
            (match params.store_dir with
            | Some d -> Printf.sprintf ", store %s" d
            | None -> ""))
      ()
  in
  Httpd.wait http;
  Atomic.set stopping true;
  Supervisor.stop t.sup;
  Thread.join announce;
  Printf.printf "dggt serve: router shut down cleanly\n%!"
