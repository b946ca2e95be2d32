open Dggt_core
module J = Jsonio
module Trace = Dggt_obs.Trace
module Ring = Dggt_obs.Ring
module Registry = Dggt_pack.Domain_registry

(* JSON API version; bump on incompatible response-shape changes. The
   payload shapes themselves live in {!Wire}, shared between the fixed
   v1 bodies and the SSE frames. *)
let api_version = Wire.api_version

type params = {
  addr : string;
  port : int;
  unix_socket : string option;
      (* listen on a Unix-domain socket at this path instead of TCP —
         how sharded workers sit behind the front router *)
  workers : int;
  queue_capacity : int;
  cache_size : int;
  default_timeout_s : float;
  trace_buffer : int;
  packs_dir : string option;
  session_ttl_s : float;
  session_cap : int;
  store_dir : string option;
  store_interval_s : float;
}

let default_params =
  {
    addr = "127.0.0.1";
    port = 8080;
    unix_socket = None;
    workers = 0;
    queue_capacity = 64;
    cache_size = 512;
    default_timeout_s = 10.0;
    trace_buffer = 32;
    packs_dir = None;
    session_ttl_s = 300.0;
    session_cap = 64;
    store_dir = None;
    store_interval_s = 60.0;
  }

(* per-domain state, everything forced/configured by the build job so
   worker domains share read-only structures; the target carries the
   per-stage caches, the configs stay cache-free. [gen] is the registry
   generation the state was built under — it keys every cache entry, so
   a late write from a request that outlived a reload can never be read
   back against the reloaded domain of the same name *)
type dstate = {
  dom : Dggt_domains.Domain.t;
  aliases : string list;
  origin : Registry.origin;
  gen : int;
  autom : Dggt_autom.Autom.t;
      (* the grammar compiled into EdgeToPath state tables; held by the
         registry's digest-keyed cache, so reloads reuse it whenever the
         pack bytes are unchanged *)
  target : Engine.target;
  cfg_dggt : Engine.config;
  cfg_hisyn : Engine.config;
}

(* one registry entry's readiness. The entry describes the domain at
   once (name, aliases, origin); [built] is filled by the build job when
   the entry's state is ready, and a request for the domain waits on it *)
type slot = { entry : Registry.entry; built : dstate Ivar.t }

(* one incremental session, as held in the TTL+LRU store. The embedded
   Dggt_inc session is not reentrant, so [smu] serializes queries; [sgen]
   pins the registry generation the session's target was built under — a
   reload strands the session (410), it never sees the swapped domain *)
type srecord = {
  smu : Mutex.t;
  sdomain : string;
  sengine_name : string;
  sgen : int;
  inc : Dggt_inc.Session.t;
}

(* one completed request's trace, as kept in the debug ring *)
type trecord = {
  tdomain : string;
  tengine : string;
  tquery : string;
  ttime_s : float;
  tok : bool;
  ttrace : Trace.t;
}

(* the families requests record into; [create] declares them, with the
   sampled ones that need no handle *)
type meters = {
  requests : Smetrics.counter;
  latency : Smetrics.histogram;
  stages : Smetrics.histogram;
  compiles : Smetrics.counter;
  compile_s : Smetrics.gauge;
  loaded : Smetrics.counter;
  skipped : Smetrics.counter;
  rejected : Smetrics.counter;
  spills : Smetrics.counter;
  spill_s : Smetrics.gauge;
  streams : Smetrics.counter;
  candidates : Smetrics.counter;
  replays : Smetrics.counter;
  ttfc : Smetrics.histogram;
  revisions : Smetrics.counter;
  splices : Smetrics.counter;
  (* sampled at render time, so updating them takes no lock *)
  inflight : int Atomic.t;
  reused : int Atomic.t; (* session stage lookups served from memory *)
  computed : int Atomic.t; (* ... and computed *)
}

type t = {
  params : params;
  pool : Deadline_pool.t;
  metrics : Smetrics.t;
  m : meters;
  registry : Registry.t;
  build : string option Atomic.t;
      (* git describe, asked at the first GET /version; "unknown" when
         there is no checkout *)
  (* whole-query outcomes, keyed by the engine call *)
  q_cache :
    (int * string * string * string * Engine.mode, Engine.outcome) Cache.t;
  word_cache :
    (int * string * string * string, Word2api.candidate list) Cache.t;
  sessions : srecord Sessions.t;
  traces : trecord Ring.t;
  slots : slot list Atomic.t; (* swapped whole by a reload *)
  booted : unit Ivar.t; (* filled once the boot job has built every entry *)
  reload_mu : Mutex.t; (* one reload at a time *)
  mutable http : Httpd.t option;
  (* warm-start store (params.store_dir): loaded before the server
     listens, spilled periodically and on graceful shutdown *)
  spill_mu : Mutex.t; (* one spill at a time *)
  closing : bool Atomic.t; (* tells the spill thread to exit *)
  finalized : bool Atomic.t; (* the shutdown spill runs exactly once *)
  mutable spill_thread : Thread.t option;
}

let slots t = Atomic.get t.slots

let slot_name s = s.entry.Registry.domain.Dggt_domains.Domain.name

let find_slot t name =
  let n = Dggt_util.Strutil.lowercase name in
  List.find_opt
    (fun s ->
      Dggt_util.Strutil.lowercase (slot_name s) = n
      || List.exists
           (fun a -> Dggt_util.Strutil.lowercase a = n)
           s.entry.Registry.aliases)
    (slots t)

(* A slot's state, waiting while its entry builds. The wait is a
   condition wait, which releases domain 0's runtime lock, and it counts
   toward the request's deadline: [None] when the deadline passed while
   the request waited. A state that is already built is returned as is,
   whatever the deadline. *)
let await_slot ?deadline s =
  match Ivar.peek s.built with
  | Some ds -> Some ds
  | None -> (
      let ds = Ivar.await s.built in
      match deadline with
      | Some d when Unix.gettimeofday () > d -> None
      | _ -> Some ds)

let find_dstate t name = Option.map (fun s -> Ivar.await s.built) (find_slot t name)

(* ------------------------------------------------------------------ *)
(* json renderings (the shapes live in Wire, shared with SSE frames)  *)
(* ------------------------------------------------------------------ *)

let error_json = Wire.error_json

let trecord_json r =
  J.Obj
    [
      ("domain", J.Str r.tdomain);
      ("engine", J.Str r.tengine);
      ("query", J.Str r.tquery);
      ("time_s", J.Num r.ttime_s);
      ("ok", J.Bool r.tok);
      ("events", J.list Wire.event_json r.ttrace.Trace.events);
    ]

let respond_json ?headers status v = Httpd.response ?headers status (J.to_string v)

(* a finished request: its outcome counted, its latency observed *)
let finished t ~domain ~outcome t0 =
  [
    Smetrics.inc t.m.requests [ domain; outcome ];
    Smetrics.observe t.m.latency [] (Unix.gettimeofday () -. t0);
  ]

let observe t ~domain ~outcome t0 =
  Smetrics.record t.metrics (finished t ~domain ~outcome t0)

(* a stream served: its candidate frames and, when one went out, the
   time to the first *)
let streamed t ~candidates ttfc =
  Smetrics.inc t.m.streams []
  :: Smetrics.inc ~by:(float_of_int candidates) t.m.candidates []
  :: Option.fold ttfc ~none:[] ~some:(fun s ->
         [ Smetrics.observe t.m.ttfc [] s ])

(* a traced run finished: feed the per-stage latency histograms, with
   [ops] under the same lock, and remember the trace for [GET
   /debug/trace] *)
let record_trace t ~domain ~engine ~query ~time_s ~ok ~ops sink =
  let trace = Trace.result sink in
  Smetrics.record t.metrics
    (List.map
       (fun (stage, d) -> Smetrics.observe t.m.stages [ stage ] d)
       (Trace.durations trace)
    @ ops);
  Ring.add t.traces
    {
      tdomain = domain;
      tengine = engine;
      tquery = query;
      ttime_s = time_s;
      tok = ok;
      ttrace = trace;
    }

let expired_msg = "request deadline expired while queued"

(* run [work] on the pool with backpressure + deadline; the connection
   thread blocks here until a worker delivers the response *)
let via_pool t ~domain ~deadline ~t0 work =
  let iv = Ivar.create () in
  let run () =
    Atomic.incr t.m.inflight;
    let r = try work () with e -> `Error (Printexc.to_string e) in
    Atomic.decr t.m.inflight;
    Ivar.fill iv r
  in
  let expired () = Ivar.fill iv `Expired in
  match Deadline_pool.submit t.pool ~deadline ~run ~expired () with
  | `Rejected ->
      observe t ~domain ~outcome:"rejected" t0;
      respond_json ~headers:[ ("retry-after", "1") ] 503
        (J.Obj
           [
             ("error", J.Str "queue full");
             ( "queue_capacity",
               J.Num (float_of_int (Deadline_pool.capacity t.pool)) );
           ])
  | `Accepted -> (
      match Ivar.await iv with
      | `Expired ->
          observe t ~domain ~outcome:"expired" t0;
          Httpd.response 504 (error_json expired_msg)
      | `Error msg ->
          observe t ~domain ~outcome:"failed" t0;
          Httpd.response 500 (error_json msg)
      | `Ok resp -> resp)

(* ------------------------------------------------------------------ *)
(* the query pipeline                                                 *)
(* ------------------------------------------------------------------ *)

(* Every query route — /synthesize, /rank and /session/<id>/query, plain
   or streamed — takes one path. [read_request] builds one [request]
   record; [query_handler] then does the cache probe or stream replay,
   the pool or connection-thread dispatch, the run, the trace record, the
   cache write and the outcome label. The routes differ only in the
   record they build and the body they render. *)

(* a session survives only as long as the domain it was built against: a
   reload bumps the registry generation, so [sgen] no longer matches and
   the session is Gone — the client must open a fresh one. Kept distinct
   from 404 (unknown/evicted id) so typing clients know to re-create. *)
let session_lookup t id =
  match Sessions.find t.sessions id with
  | `Missing -> Error (404, "unknown session (expired ids are evicted)")
  | `Expired -> Error (410, "session expired (idle past the TTL)")
  | `Found sr -> (
      match find_dstate t sr.sdomain with
      | Some ds when ds.gen = sr.sgen -> Ok sr
      | _ ->
          ignore (Sessions.remove t.sessions id);
          Error (410, "session invalidated by domain reload"))

type route =
  | Synthesize of dstate
  | Rank of dstate
  | Session_query of string * srecord  (* the id and the session *)

type request = {
  route : route;
  domain : string;
  engine : string;  (* "dggt" | "hisyn", the label traces and bodies carry *)
  query : string;
  timeout_s : float;  (* bounds every run of the request *)
  mode : Engine.mode;
  stream : bool;
}

(* /rank and every stream answer with a ranked list, always in [Ranked]
   mode; /synthesize and a plain session query answer with an outcome,
   ranked only when [k > 1] asks for alternatives *)
let rank_shaped route stream =
  stream
  || match route with Rank _ -> true | Synthesize _ | Session_query _ -> false

let k_of r = match r.mode with Engine.Plain -> 1 | Engine.Ranked k -> k

(* [?stream=1] switches delivery to SSE. The flag always travels in the
   URL query string, so it composes with both request styles (GET
   parameters and POST bodies). *)
let stream_requested (req : Httpd.request) =
  match List.assoc_opt "stream" req.Httpd.query with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* The field reader of every query route. GET carries its parameters in
   the URL query string, POST in a JSON body; a session query takes its
   domain and engine from the session. An absent [k] defaults to 5 on a
   rank-shaped request and to 1 otherwise. A domain still building is
   waited for last, once every field is valid, within the request's
   deadline ([t0] + timeout). An error is the status, the domain and
   outcome it is counted under, and the message. *)
let read_request t ~t0 (req : Httpd.request) which =
  let ( let* ) = Result.bind in
  let bad domain msg = Error (400, domain, "bad_request", msg) in
  let* session =
    match which with
    | `Session id -> (
        match session_lookup t id with
        | Ok sr -> Ok (Some (id, sr))
        | Error (status, msg) -> Error (status, "-", "session_gone", msg))
    | `Synthesize | `Rank -> Ok None
  in
  let counted = match session with Some (_, sr) -> sr.sdomain | None -> "-" in
  let from_url = req.Httpd.meth = "GET" in
  let* body =
    if from_url then Ok (J.Obj [])
    else
      match J.of_string req.Httpd.body with
      | Ok body -> Ok body
      | Error e -> bad counted e
  in
  let field of_url of_json name =
    if from_url then Option.bind (List.assoc_opt name req.Httpd.query) of_url
    else of_json name body
  in
  let str = field Option.some J.str_field in
  let* query =
    match str "query" with
    | None | Some "" -> bad counted "missing required string field \"query\""
    | Some query -> Ok query
  in
  let* target, domain, engine =
    match session with
    | Some (id, sr) -> Ok (`Session (id, sr), sr.sdomain, sr.sengine_name)
    | None -> (
        let dname = Option.value (str "domain") ~default:"textediting" in
        match
          (find_slot t dname, Option.value (str "engine") ~default:"dggt")
        with
        | None, _ ->
            bad "-"
              (Printf.sprintf "unknown domain %S (see GET /domains)" dname)
        | Some s, (("dggt" | "hisyn") as engine) ->
            (* /rank always runs (and is labelled) DGGT *)
            Ok (`Slot s, slot_name s, if which = `Rank then "dggt" else engine)
        | Some _, e ->
            bad "-" (Printf.sprintf "unknown engine %S (dggt|hisyn)" e))
  in
  let stream = stream_requested req in
  let* () =
    if which = `Synthesize && stream then
      (* streaming is ranked delivery; /synthesize keeps its fixed shape *)
      bad domain
        "streaming delivery is available on /rank and /session/<id>/query"
    else Ok ()
  in
  let ranked = stream || which = `Rank in
  let k =
    match field int_of_string_opt J.int_field "k" with
    | Some v -> max 1 (min v 20)
    | None -> if ranked then 5 else 1
  in
  let timeout_s =
    match field float_of_string_opt J.num_field "timeout" with
    | Some v when v > 0.0 -> Float.min v 60.0
    | _ -> t.params.default_timeout_s
  in
  let* route =
    match target with
    | `Session (id, sr) -> Ok (Session_query (id, sr))
    | `Slot s -> (
        match await_slot ~deadline:(t0 +. timeout_s) s with
        | None -> Error (504, domain, "expired", expired_msg)
        | Some ds -> Ok (if which = `Rank then Rank ds else Synthesize ds))
  in
  Ok
    {
      route;
      domain;
      engine;
      query;
      timeout_s;
      stream;
      mode = (if ranked || k > 1 then Engine.Ranked k else Engine.Plain);
    }

(* The run: the request's engine call, bounded by its timeout and traced
   into [sink]. The outcome's [ranked] is the n-best the body shows. A
   HISyn /synthesize with [k > 1] takes its alternatives from a second,
   DGGT run, and a plain session query from a ranked respond after the
   revision; each is bounded by the same timeout. *)
let run r ~sink ?on_candidate () =
  let tweak cfg =
    { cfg with Engine.timeout_s = Some r.timeout_s; trace = Some sink }
  in
  let text mode = { Engine.input = Engine.Text r.query; mode } in
  let with_alternatives (o : Engine.outcome) ranked_run =
    match r.mode with
    | Engine.Ranked _ when not o.Engine.timed_out ->
        { o with Engine.ranked = (ranked_run ()).Engine.ranked }
    | _ -> o
  in
  match r.route with
  | Synthesize ds | Rank ds ->
      let respond cfg mode =
        Engine.respond ?on_candidate
          { Engine.cfg = tweak cfg; target = ds.target }
          (text mode)
      in
      if r.engine = "dggt" then (respond ds.cfg_dggt r.mode, None)
      else
        ( with_alternatives (respond ds.cfg_hisyn Engine.Plain) (fun () ->
              respond ds.cfg_dggt r.mode),
          None )
  | Session_query (_, sr) ->
      (* the embedded session is not reentrant *)
      Mutex.lock sr.smu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock sr.smu)
        (fun () ->
          let respond () =
            Dggt_inc.Session.respond ?on_candidate ~tweak sr.inc (text r.mode)
          in
          if r.stream then (respond (), None)
          else
            let o, reuse = Dggt_inc.Session.query ~tweak sr.inc r.query in
            (with_alternatives o respond, Some reuse))

(* The whole-query cache is keyed by the engine call, so a /synthesize
   with k > 1 and a /rank of the same query and k share an entry. Session
   queries are never cached. *)
let q_key ds r = (ds.gen, r.domain, r.engine, r.query, r.mode)

let probe t r =
  match r.route with
  | Synthesize ds | Rank ds -> Cache.find t.q_cache (q_key ds r)
  | Session_query _ -> None

(* The body: the ranked list for a rank-shaped request (a stream's [done]
   frame included; a run out of budget says [timed_out]), else the
   outcome with its alternatives. A session adds its id, a plain session
   query its reuse accounting. *)
let body r ~cached ?reuse (o : Engine.outcome) =
  let v =
    if rank_shaped r.route r.stream then
      Wire.rank_json ~timed_out:o.Engine.timed_out ~domain:r.domain
        ~query:r.query ~k:(k_of r) ~cached o.Engine.ranked
    else
      Wire.outcome_json ~domain:r.domain ~engine:r.engine ~query:r.query
        ~cached ~alternatives:o.Engine.ranked o
  in
  match r.route with
  | Session_query (id, _) ->
      Wire.with_fields v
        (("session", J.Str id)
        :: Option.fold reuse ~none:[] ~some:(fun u ->
               [ ("reuse", Wire.reuse_json u) ]))
  | Synthesize _ | Rank _ -> v

(* After a run: the cache write, then the trace record with the request's
   counts ([ops], the revision's reuse and the outcome label) under one
   lock. The cache never takes a timed-out outcome (a repeat under a
   larger budget deserves a fresh run) and nothing from a stream. [ok] is
   what the body reports: a codelet, or for a rank-shaped body a
   non-empty list. *)
let conclude t r ~t0 ?reuse ?(ops = []) sink (o : Engine.outcome) =
  let ok =
    if rank_shaped r.route r.stream then o.Engine.ranked <> []
    else o.Engine.code <> None
  in
  (if not (r.stream || o.Engine.timed_out) then
     match r.route with
     | Synthesize ds | Rank ds -> Cache.add t.q_cache (q_key ds r) o
     | Session_query _ -> ());
  let revision =
    match reuse with
    | None -> []
    | Some (u : Dggt_inc.Reuse.t) ->
        let open Dggt_inc.Reuse in
        ignore
          (Atomic.fetch_and_add t.m.reused
             (u.words.reused + u.pairs.reused + u.dgg_rows.reused));
        ignore
          (Atomic.fetch_and_add t.m.computed
             (u.words.computed + u.pairs.computed + u.dgg_rows.computed));
        [
          Smetrics.inc t.m.revisions [];
          Smetrics.inc ~by:(if u.splice then 1.0 else 0.0) t.m.splices [];
        ]
  in
  record_trace t ~domain:r.domain ~engine:r.engine ~query:r.query
    ~time_s:o.Engine.time_s ~ok
    ~ops:
      (ops @ revision
      @ finished t ~domain:r.domain
          ~outcome:
            (if o.Engine.timed_out then "timeout"
             else if ok then "ok"
             else "failed")
          t0)
    sink

(* A streamed request runs on the connection thread inside the chunked
   producer — not on the worker pool: candidate frames must reach the
   socket while the chart walk is still running, and a pool worker has
   nowhere to write mid-run. Streams therefore sidestep the pool's
   backpressure (they are bounded by the connection count instead) and
   never write the response cache (interim frames are the point; a
   cache could only replay the terminal payload). The terminal [event:
   done] frame is rendered by the same {!body} as the fixed response, so
   the final candidate list is byte-for-byte what the non-streaming
   endpoint returns.

   Frame protocol: zero or more [event: candidate] frames (strictly
   increasing [revision]), then exactly one terminal frame — [event:
   done] on success, [event: error] with the real status in the body
   when the deadline expires or the run fails (the HTTP status already
   went out as 200 when the stream opened). A client disconnect surfaces
   as [EPIPE] on the next frame write, which aborts the chart walk
   mid-run, or on the terminal frame; either way the stream is counted
   [failed], and its trace is recorded with [ok = false].

   The trace's [Stream] span notes when the frames were produced, in
   seconds from request start: [ttfc_s] for the first candidate frame
   and [done_s] for the terminal frame (a client reading the socket may
   receive both in one read). *)
let stream_query t r ~t0 =
  Httpd.stream_response 200 (fun chunk ->
      let sink = Trace.create () in
      let ttfc = ref None in
      let count = ref 0 in
      let on_candidate (c : Engine.candidate) =
        if !ttfc = None then ttfc := Some (Unix.gettimeofday () -. t0);
        incr count;
        chunk (Wire.sse_frame ~event:"candidate" (Wire.candidate_json c))
      in
      let streamed () = streamed t ~candidates:!count !ttfc in
      let aborted e =
        record_trace t ~domain:r.domain ~engine:r.engine ~query:r.query
          ~time_s:(Unix.gettimeofday () -. t0) ~ok:false
          ~ops:(streamed () @ finished t ~domain:r.domain ~outcome:"failed" t0)
          sink;
        (* the peer may already be gone (EPIPE raised by a frame write
           landed here) — the terminal frame is best-effort *)
        try
          chunk
            (Wire.sse_frame ~event:"error"
               (Wire.stream_error_json ~status:500 (Printexc.to_string e)))
        with _ -> ()
      in
      Atomic.incr t.m.inflight;
      match
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.m.inflight)
          (fun () -> fst (run r ~sink ~on_candidate ()))
      with
      | exception e -> aborted e
      | o -> (
          Trace.span (Some sink) "Stream" (fun sp ->
              Trace.int sp "candidates" !count;
              (match !ttfc with
              | Some s -> Trace.float sp "ttfc_s" s
              | None -> ());
              Trace.float sp "done_s" (Unix.gettimeofday () -. t0));
          (* the terminal frame goes out before the outcome is counted: a
             client gone before it arrives has not had its answer *)
          match
            chunk
              (if o.Engine.timed_out then
                 Wire.sse_frame ~event:"error"
                   (Wire.stream_error_json ~status:504
                      "request deadline expired mid-stream")
               else Wire.sse_frame ~event:"done" (body r ~cached:false o))
          with
          | () -> conclude t r ~t0 ~ops:(streamed ()) sink o
          | exception e -> aborted e))

(* a cache hit under [?stream=1]: there is no chart walk to stream, so
   the outcome is replayed — the cached winner as one [event: candidate]
   frame (rank 1, revision 1), then the terminal [event: done] whose
   payload is byte-for-byte the cached non-streaming body ([cached]
   included). Only prior non-streaming requests arm the replay. *)
let stream_replay r (o : Engine.outcome) =
  Httpd.stream_response 200 (fun chunk ->
      (match o.Engine.ranked with
      | (top : Engine.ranked) :: _ ->
          chunk
            (Wire.sse_frame ~event:"candidate"
               (Wire.candidate_json
                  {
                    Engine.rank = 1;
                    revision = 1;
                    code = top.Engine.code;
                    size = top.Engine.size;
                    coverage = top.Engine.coverage;
                    score = top.Engine.score;
                  }))
      | [] -> ());
      chunk (Wire.sse_frame ~event:"done" (body r ~cached:true o)))

let query_handler t (req : Httpd.request) which =
  let t0 = Unix.gettimeofday () in
  match read_request t ~t0 req which with
  | Error (status, domain, outcome, msg) ->
      observe t ~domain ~outcome t0;
      Httpd.response status (error_json msg)
  | Ok r -> (
      match probe t r with
      | Some o ->
          let replayed =
            if not r.stream then []
            else
              Smetrics.inc t.m.replays []
              :: streamed t
                   ~candidates:(if o.Engine.ranked = [] then 0 else 1)
                   None
          in
          Smetrics.record t.metrics
            (replayed @ finished t ~domain:r.domain ~outcome:"cached" t0);
          if r.stream then stream_replay r o
          else respond_json 200 (body r ~cached:true o)
      | None when r.stream -> stream_query t r ~t0
      | None ->
          via_pool t ~domain:r.domain ~deadline:(t0 +. r.timeout_s) ~t0
            (fun () ->
              let sink = Trace.create () in
              let o, reuse = run r ~sink () in
              conclude t r ~t0 ?reuse sink o;
              `Ok (respond_json 200 (body r ~cached:false ?reuse o))))

(* ------------------------------------------------------------------ *)
(* incremental sessions                                               *)
(* ------------------------------------------------------------------ *)

let session_create_handler t (req : Httpd.request) =
  match J.of_string (if req.Httpd.body = "" then "{}" else req.Httpd.body) with
  | Error e -> Httpd.response 400 (error_json e)
  | Ok body -> (
      let dname =
        Option.value (J.str_field "domain" body) ~default:"textediting"
      in
      match find_slot t dname with
      | None ->
          Httpd.response 400
            (error_json
               (Printf.sprintf "unknown domain %S (see GET /domains)" dname))
      | Some s -> (
          match Option.value (J.str_field "engine" body) ~default:"dggt" with
          | ("dggt" | "hisyn") as engine_name -> (
              match
                await_slot
                  ~deadline:(Unix.gettimeofday () +. t.params.default_timeout_s)
                  s
              with
              | None -> Httpd.response 504 (error_json expired_msg)
              | Some ds ->
                  (* every query sets its own timeout (see [run]) *)
                  let cfg =
                    if engine_name = "dggt" then ds.cfg_dggt else ds.cfg_hisyn
                  in
                  let inc =
                    Dggt_inc.Session.create
                      { Engine.cfg; target = ds.target }
                  in
                  let domain = ds.dom.Dggt_domains.Domain.name in
                  (* the shard router mints placement-encoding ids and passes
                     them down; direct clients leave the field out *)
                  let requested_id =
                    match J.str_field "id" body with Some "" -> None | v -> v
                  in
                  let id =
                    Sessions.add ?id:requested_id t.sessions
                      {
                        smu = Mutex.create ();
                        sdomain = domain;
                        sengine_name = engine_name;
                        sgen = ds.gen;
                        inc;
                      }
                  in
                  respond_json 201
                    (J.Obj
                       [
                         ("v", J.Num (float_of_int api_version));
                         ("session", J.Str id);
                         ("domain", J.Str domain);
                         ("engine", J.Str engine_name);
                         ("ttl_s", J.Num t.params.session_ttl_s);
                       ]))
          | e -> Httpd.response 400 (Printf.sprintf "unknown engine %S (dggt|hisyn)" e |> error_json)))

let session_delete_handler t id =
  if Sessions.remove t.sessions id then
    respond_json 200 (J.Obj [ ("ok", J.Bool true); ("session", J.Str id) ])
  else Httpd.response 404 (error_json "unknown session")

(* "/session/<id>" or "/session/<id>/query" *)
let session_path path =
  match String.split_on_char '/' path with
  | [ ""; "session"; id ] when id <> "" -> Some (id, `Root)
  | [ ""; "session"; id; "query" ] when id <> "" -> Some (id, `Query)
  | _ -> None

let origin_fields t (e : Registry.entry) =
  match e.Registry.origin with
  | Registry.Builtin -> [ ("origin", J.Str "builtin") ]
  | Registry.Pack { dir } ->
      [
        ("origin", J.Str "pack");
        ("pack_dir", J.Str dir);
        ("pack_digest", J.Str (Registry.digest t.registry e));
      ]

(* An entry still building is listed by name, aliases and origin only:
   its description, API count and automaton are not there yet, and
   counting its APIs would force its document. *)
let domains_handler t =
  respond_json 200
    (J.Obj
       [
         ("v", J.Num (float_of_int api_version));
         ( "domains",
           J.Arr
             (List.map
                (fun s ->
                  let e = s.entry in
                  let d = e.Registry.domain in
                  J.Obj
                    ([
                       ("name", J.Str d.Dggt_domains.Domain.name);
                       ( "aliases",
                         J.Arr (List.map (fun a -> J.Str a) e.Registry.aliases)
                       );
                     ]
                    @ (match Ivar.peek s.built with
                      | None -> []
                      | Some _ ->
                          [
                            ( "description",
                              J.Str d.Dggt_domains.Domain.description );
                            ( "apis",
                              J.Num
                                (float_of_int (Dggt_domains.Domain.api_count d))
                            );
                            ( "queries",
                              J.Num
                                (float_of_int
                                   (Dggt_domains.Domain.query_count d)) );
                          ])
                    @ origin_fields t e))
                (slots t)) );
       ])

(* the binary's build identity, asked of git at the first GET /version
   rather than at boot; servers deployed outside a checkout report
   "unknown". Two first calls may both ask; either answer serves. *)
let git_describe () =
  match
    Unix.open_process_in "git describe --always --dirty 2>/dev/null"
  with
  | exception _ -> None
  | ic -> (
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> (match line with Some "" | None -> None | s -> s)
      | _ -> None
      | exception _ -> None)

let build_id t =
  match Atomic.get t.build with
  | Some b -> b
  | None ->
      let b = Option.value (git_describe ()) ~default:"unknown" in
      Atomic.set t.build (Some b);
      b

let version_handler t =
  respond_json 200
    (J.Obj
       [
         ("v", J.Num (float_of_int api_version));
         ("build", J.Str (build_id t));
         ("generation", J.Num (float_of_int (Registry.generation t.registry)));
         ("pack_digest", J.Str (Registry.pack_digest t.registry));
         (* delivery modes beyond the fixed v1 bodies; clients probe here
            before sending [?stream=1] *)
         ("capabilities", J.list (fun s -> J.Str s) [ "streaming" ]);
         ( "automata",
           J.list
             (fun s ->
               J.Obj
                 (("domain", J.Str (slot_name s))
                 ::
                 (match Ivar.peek s.built with
                 | None -> []
                 | Some ds ->
                     [
                       ("digest", J.Str (Dggt_autom.Autom.digest ds.autom));
                       ( "compile_s",
                         J.Num (Dggt_autom.Autom.compile_time_s ds.autom) );
                     ])))
             (slots t) );
       ])

let healthz_handler t =
  respond_json 200
    (J.Obj
       [
         ("status", J.Str "ok");
         ("workers", J.Num (float_of_int (Deadline_pool.workers t.pool)));
         ("queue_depth", J.Num (float_of_int (Deadline_pool.depth t.pool)));
         ("inflight", J.Num (float_of_int (Atomic.get t.m.inflight)));
       ])

let debug_trace_handler t =
  respond_json 200
    (J.Obj
       [
         ("capacity", J.Num (float_of_int (Ring.capacity t.traces)));
         ("recorded", J.Num (float_of_int (Ring.total t.traces)));
         ("traces", J.list trecord_json (Ring.snapshot t.traces));
       ])

(* ------------------------------------------------------------------ *)
(* lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

(* [(dstate, compiled_now)]. The automaton comes from the registry's
   digest-keyed cache: only a genuinely new/changed grammar pays a
   compile, which the metrics record (count + stage histogram). The old
   per-pair path cache is gone — the automaton's own memo plays that
   role, and [edge2path = None] keeps the hook chain short. *)
let make_dstate t ~gen (e : Registry.entry) =
  let d = e.Registry.domain in
  let name = d.Dggt_domains.Domain.name in
  let sink = Trace.create () in
  let autom, compiled = Registry.automaton ~trace:sink t.registry e in
  if compiled then
    Smetrics.record t.metrics
      (Smetrics.inc t.m.compiles [ name ]
      :: Smetrics.set t.m.compile_s [ name ]
           (Dggt_autom.Autom.compile_time_s autom)
      :: List.map
           (fun (stage, dur) -> Smetrics.observe t.m.stages [ stage ] dur)
           (Trace.durations (Trace.result sink)));
  let lookups =
    {
      Engine.word2api =
        Some
          (fun ~lemma ~pos compute ->
            fst
              (Cache.find_or_compute t.word_cache
                 (gen, name, lemma, Dggt_nlu.Pos.to_string pos)
                 compute));
      Engine.edge2path = None;
    }
  in
  let s_dggt =
    Dggt_domains.Domain.configure ~caches:lookups ~autom d
      (Engine.default Engine.Dggt_alg)
  in
  let s_hisyn =
    Dggt_domains.Domain.configure ~autom d (Engine.default Engine.Hisyn_alg)
  in
  ( {
      dom = d;
      aliases = e.Registry.aliases;
      origin = e.Registry.origin;
      gen;
      autom;
      target = s_dggt.Engine.target;
      cfg_dggt = s_dggt.Engine.cfg;
      cfg_hisyn = s_hisyn.Engine.cfg;
    },
    compiled )

(* Every state is built by a pool job, never on domain 0: a build there
   holds domain 0's runtime lock, and the accept and connection threads
   then wait for the 50 ms tick. Builds run one at a time — the boot's,
   then each reload's (see [rebuild]) — so no two force one entry's
   lazies at once.

   The boot job builds the entries in registry order and fills each
   slot as soon as its state is ready. The pool swallows a job's
   exceptions, so a failed build is reported here and ends the process,
   as a broken pack at startup does. *)
let boot_job t ~gen slots () =
  List.iter
    (fun s ->
      match make_dstate t ~gen s.entry with
      | ds, _ -> Ivar.fill s.built ds
      | exception e ->
          Printf.eprintf "dggt serve: building domain %s failed: %s\n%!"
            (slot_name s) (Printexc.to_string e);
          exit 2)
    slots;
  Ivar.fill t.booted ()

(* A reload's build: the boot job's work for the registry's current
   entries, submitted once the boot job has finished, awaited by the
   reload's connection thread. [(entry, (dstate, compiled_now))] per
   entry, or [Error] when a build raised or the pool is stopping. *)
let rebuild t =
  Ivar.await t.booted;
  let gen = Registry.generation t.registry in
  let entries = Registry.entries t.registry in
  let result = Ivar.create () in
  let job () =
    Ivar.fill result
      (match List.map (fun e -> (e, make_dstate t ~gen e)) entries with
      | built -> Ok built
      | exception e -> Error (Printexc.to_string e))
  in
  if Deadline_pool.submit_exempt t.pool job then Ivar.await result
  else Error "the server is stopping"

(* ------------------------------------------------------------------ *)
(* warm-start store (--store)                                         *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dir =
  if not (dir = "/" || dir = "." || Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let warm_caches t = { Warmstore.q = t.q_cache; word = t.word_cache }

(* write the caches' current-generation entries as the store's snapshot.
   Failure is a warning, never fatal: the store is an optimization, the
   server's answers never depend on it. *)
let spill_store t =
  match t.params.store_dir with
  | None -> ()
  | Some dir ->
      Mutex.lock t.spill_mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.spill_mu) @@ fun () ->
      match
        Warmstore.spill dir
          ~generation:(Registry.generation t.registry)
          ~pack_digest:(Registry.pack_digest t.registry)
          (warm_caches t)
      with
      | Ok r ->
          Smetrics.record t.metrics
            [
              Smetrics.inc t.m.spills [];
              Smetrics.set t.m.spill_s [] r.Warmstore.sp_seconds;
            ]
      | Error msg -> Printf.eprintf "dggt serve: store spill failed: %s\n%!" msg

(* periodic spills; interval <= 0 means shutdown-only *)
let start_spill_thread t =
  match t.params.store_dir with
  | None -> ()
  | Some _ when t.params.store_interval_s <= 0.0 -> ()
  | Some _ ->
      let th =
        Thread.create
          (fun () ->
            let last = ref (Unix.gettimeofday ()) in
            while not (Atomic.get t.closing) do
              Thread.delay 0.2;
              if
                (not (Atomic.get t.closing))
                && Unix.gettimeofday () -. !last >= t.params.store_interval_s
              then begin
                spill_store t;
                last := Unix.gettimeofday ()
              end
            done)
          ()
      in
      t.spill_thread <- Some th

(* graceful shutdown: one final spill. Idempotent — [stop] and [wait]
   both funnel through here. *)
let finalize_store t =
  if
    t.params.store_dir <> None
    && Atomic.compare_and_set t.finalized false true
  then begin
    Atomic.set t.closing true;
    (match t.spill_thread with
    | Some th -> ( try Thread.join th with _ -> ())
    | None -> ());
    t.spill_thread <- None;
    spill_store t
  end

(* POST /reload: re-scan the pack directory, build the new per-domain
   states through the same pool job as the boot (after it, one reload at
   a time), swap them in when the job completes, and drop every cache.
   Requests keep the old states until the swap. In-flight requests keep
   the dstate they already resolved (immutable), and their late cache
   writes land under the old generation — harmless to post-reload
   lookups. Incremental sessions are left in the store on purpose: their
   [sgen] no longer matches, so the next access answers 410 Gone (clients
   must re-create) instead of a confusable 404. A failed load leaves
   everything exactly as it was. The warm store's snapshot is left as it
   is: the next spill overwrites it, and until then a boot replays it only
   if the pack digest it was spilled under still matches. *)
let reload_handler t =
  match t.params.packs_dir with
  | None ->
      respond_json 400
        (J.Obj
           [
             ( "error",
               J.Str "server was started without --packs; nothing to reload" );
           ])
  | Some dir -> (
      Mutex.lock t.reload_mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.reload_mu) @@ fun () ->
      let failed what detail =
        respond_json 500
          (J.Obj [ ("error", J.Str what); ("detail", J.Str detail) ])
      in
      match Registry.load_dir t.registry dir with
      | Error e ->
          failed "pack reload failed; registry unchanged"
            (Dggt_domains.Err.to_string e)
      | Ok packs -> (
          match rebuild t with
          | Error msg -> failed "pack reload failed to build the domains" msg
          | Ok built ->
              let fresh = List.map (fun (_, (ds, _)) -> ds) built in
              let compiled =
                List.length (List.filter (fun (_, (_, c)) -> c) built)
              in
              let swapped =
                List.map
                  (fun (entry, (ds, _)) ->
                    let s = { entry; built = Ivar.create () } in
                    Ivar.fill s.built ds;
                    s)
                  built
              in
              Atomic.set t.slots swapped;
              Cache.clear t.q_cache;
              Cache.clear t.word_cache;
              respond_json 200
                (J.Obj
                   [
                     ("v", J.Num (float_of_int api_version));
                     ("ok", J.Bool true);
                     ("packs_loaded", J.Num (float_of_int (List.length packs)));
                     ( "generation",
                       J.Num (float_of_int (Registry.generation t.registry)) );
                     ("pack_digest", J.Str (Registry.pack_digest t.registry));
                     (* how many grammars actually changed: unchanged
                        digests reuse the compiled automaton, pointer-equal *)
                     ("automata_compiled", J.Num (float_of_int compiled));
                     ( "automata_reused",
                       J.Num (float_of_int (List.length fresh - compiled)) );
                     ( "domains",
                       J.Arr
                         (List.map
                            (fun ds -> J.Str ds.dom.Dggt_domains.Domain.name)
                            fresh) );
                   ])))

let handler t (req : Httpd.request) =
  match (req.Httpd.meth, req.Httpd.path) with
  | "GET", "/healthz" -> healthz_handler t
  | "GET", "/metrics" ->
      Httpd.response ~content_type:"text/plain; version=0.0.4" 200
        (Smetrics.render t.metrics)
  | "GET", "/domains" -> domains_handler t
  | "GET", "/version" -> version_handler t
  | "GET", "/debug/trace" -> debug_trace_handler t
  | ("GET" | "POST"), "/synthesize" -> query_handler t req `Synthesize
  | ("GET" | "POST"), "/rank" -> query_handler t req `Rank
  | "POST", "/reload" -> reload_handler t
  | "POST", "/session" -> session_create_handler t req
  | ( _,
      ( "/healthz" | "/metrics" | "/domains" | "/version" | "/debug/trace"
      | "/synthesize" | "/rank" | "/reload" | "/session" ) ) ->
      Httpd.response 405 (error_json "method not allowed")
  | meth, path -> (
      match session_path path with
      | Some (id, `Query) when meth = "POST" ->
          query_handler t req (`Session id)
      | Some (id, `Root) when meth = "DELETE" -> session_delete_handler t id
      | Some _ -> Httpd.response 405 (error_json "method not allowed")
      | None -> Httpd.response 404 (error_json "not found"))

(* The server's metric families, in one block: the ones requests record
   into ([meters]), then the ones sampled at render time. The store's
   families exist only on a server with a store. *)
let declare metrics ~store ~pool ~caches ~sessions ~slots =
  let counter = Smetrics.counter metrics and gauge = Smetrics.gauge metrics in
  let histogram = Smetrics.histogram metrics in
  let stored = if store then metrics else Smetrics.create () in
  let m =
    {
      requests =
        counter "dggt_requests_total" ~labels:[ "domain"; "outcome" ]
          ~help:"Finished requests by domain and outcome.";
      latency =
        histogram "dggt_request_latency_seconds"
          ~help:"Request service latency.";
      stages =
        histogram "dggt_stage_latency_seconds" ~labels:[ "stage" ]
          ~help:"Pipeline stage latency.";
      compiles =
        counter "dggt_autom_compiles_total" ~labels:[ "domain" ]
          ~help:"Grammar automaton compilations by domain.";
      compile_s =
        gauge "dggt_autom_compile_seconds" ~labels:[ "domain" ]
          ~help:"Wall time of the domain's most recent automaton compilation.";
      loaded =
        Smetrics.counter stored "dggt_store_records_loaded_total"
          ~help:"Warm-start snapshots replayed at boot.";
      skipped =
        Smetrics.counter stored "dggt_store_records_skipped_total"
          ~help:"Warm-start snapshots of another schema or pack digest.";
      rejected =
        Smetrics.counter stored "dggt_store_records_rejected_total"
          ~help:"Damaged warm-start snapshots refused at boot.";
      spills =
        Smetrics.counter stored "dggt_store_spills_total"
          ~help:"Warm-start snapshots written.";
      spill_s =
        Smetrics.gauge stored "dggt_store_spill_seconds"
          ~help:"Wall time of the most recent spill.";
      streams =
        counter "dggt_streams_total" ~help:"Streamed (SSE) requests served.";
      candidates =
        counter "dggt_stream_candidates_total"
          ~help:"Candidate frames written across all streams.";
      replays =
        counter "dggt_stream_cache_replays_total"
          ~help:"Streams answered by replaying a cached outcome.";
      ttfc =
        histogram "dggt_stream_ttfc_seconds"
          ~help:"Time from request start to the first streamed candidate.";
      revisions =
        counter "dggt_inc_queries_total"
          ~help:"Incremental session revisions served.";
      splices =
        counter "dggt_inc_splices_total"
          ~help:"Session revisions that replayed the previous outcome.";
      inflight = Atomic.make 0;
      reused = Atomic.make 0;
      computed = Atomic.make 0;
    }
  in
  let sampled ?labels kind name help rows =
    Smetrics.sampled metrics ?labels kind name ~help rows
  in
  let one f () = [ ([], float_of_int (f ())) ] in
  let pool_stat f = one (fun () -> f (Deadline_pool.stats pool)) in
  sampled `Gauge "dggt_queue_depth" "Requests waiting in the worker queue."
    (one (fun () -> Deadline_pool.depth pool));
  sampled `Gauge "dggt_pool_workers_live" "Worker domains alive now."
    (pool_stat (fun s -> s.Dggt_par.Pool.live));
  sampled `Counter "dggt_pool_worker_spawns_total" "Worker domains spawned."
    (pool_stat (fun s -> s.Dggt_par.Pool.spawned));
  sampled `Counter "dggt_pool_worker_retirements_total"
    "Idle worker domains retired."
    (pool_stat (fun s -> s.Dggt_par.Pool.retired));
  (* process-wide: every domain takes part in every collection *)
  sampled `Counter "dggt_gc_minor_collections_total" "Minor collections."
    (one (fun () -> (Gc.quick_stat ()).Gc.minor_collections));
  sampled `Counter "dggt_gc_major_collections_total" "Major collection cycles."
    (one (fun () -> (Gc.quick_stat ()).Gc.major_collections));
  sampled `Gauge "dggt_inflight_requests" "Requests currently being served."
    (one (fun () -> Atomic.get m.inflight));
  (* the automata's cross-query path memos, summed over the live domain
     states *)
  let autom_memo () =
    List.fold_left
      (fun (acc : Cache.counters) s ->
        match Ivar.peek s.built with
        | None -> acc
        | Some ds ->
            let c = Dggt_autom.Autom.memo_counters ds.autom in
            {
              acc with
              Cache.hits = acc.Cache.hits + c.Dggt_autom.Autom.hits;
              misses = acc.Cache.misses + c.Dggt_autom.Autom.misses;
              size = acc.Cache.size + c.Dggt_autom.Autom.entries;
            })
      { Cache.hits = 0; misses = 0; evictions = 0; size = 0; capacity = 0 }
      (Atomic.get slots)
  in
  let probes =
    [
      ("q_cache", fun () -> Cache.counters caches.Warmstore.q);
      ("word_cache", fun () -> Cache.counters caches.Warmstore.word);
      ("autom_memo", autom_memo);
    ]
  in
  let per_cache kind name help (field : Cache.counters -> int) =
    sampled ~labels:[ "cache" ] kind name help (fun () ->
        List.map
          (fun (cache, probe) -> ([ cache ], float_of_int (field (probe ()))))
          probes)
  in
  per_cache `Counter "dggt_cache_hits_total" "Cache hits by cache." (fun c ->
      c.Cache.hits);
  per_cache `Counter "dggt_cache_misses_total" "Cache misses by cache."
    (fun c -> c.Cache.misses);
  per_cache `Counter "dggt_cache_evictions_total" "Cache evictions by cache."
    (fun c -> c.Cache.evictions);
  per_cache `Gauge "dggt_cache_entries" "Entries held by cache." (fun c ->
      c.Cache.size);
  let session_store kind name help (field : Sessions.counters -> int) =
    sampled kind name help (one (fun () -> field (Sessions.counters sessions)))
  in
  session_store `Gauge "dggt_sessions" "Live incremental sessions." (fun c ->
      c.Sessions.size);
  session_store `Counter "dggt_sessions_created_total" "Sessions created."
    (fun c -> c.Sessions.created);
  session_store `Counter "dggt_sessions_expired_total"
    "Sessions expired idle past the TTL." (fun c -> c.Sessions.expired);
  session_store `Counter "dggt_sessions_evicted_total"
    "Sessions evicted by the session cap." (fun c -> c.Sessions.evicted);
  sampled `Gauge "dggt_inc_reuse_ratio"
    "Fraction of stage lookups served from session memory." (fun () ->
      let r = Atomic.get m.reused and c = Atomic.get m.computed in
      let ratio = if r + c = 0 then 0.0 else float r /. float (r + c) in
      [ ([], ratio) ]);
  m

let create params =
  let registry = Registry.create () in
  (match params.packs_dir with
  | None -> ()
  | Some dir -> (
      match Registry.load_dir registry dir with
      | Ok _ -> ()
      | Error e -> failwith ("dggt serve: " ^ Dggt_domains.Err.to_string e)));
  (match params.store_dir with
  | None -> ()
  | Some dir -> (
      match mkdir_p dir with
      | () when Sys.is_directory dir -> ()
      | () -> failwith ("dggt serve: --store " ^ dir ^ " is not a directory")
      | exception Unix.Unix_error (e, _, _) ->
          failwith
            ("dggt serve: --store " ^ dir ^ ": " ^ Unix.error_message e)));
  let caches =
    {
      Warmstore.q = Cache.create ~capacity:params.cache_size;
      word = Cache.create ~capacity:(max 0 params.cache_size * 4);
    }
  in
  let pool =
    Deadline_pool.create
      ?workers:(if params.workers > 0 then Some params.workers else None)
      ~capacity:params.queue_capacity ()
  in
  let sessions =
    Sessions.create ~ttl_s:params.session_ttl_s ~cap:params.session_cap ()
  in
  let gen = Registry.generation registry in
  let boot_slots =
    List.map
      (fun entry -> { entry; built = Ivar.create () })
      (Registry.entries registry)
  in
  let slots = Atomic.make boot_slots in
  let metrics = Smetrics.create () in
  let m =
    declare metrics ~store:(params.store_dir <> None) ~pool ~caches ~sessions
      ~slots
  in
  (* warm boot: replay the stored answers into the LRUs before the first
     request can land; a snapshot that fails a check boots cold *)
  Option.iter
    (fun dir ->
      let counted =
        match
          Warmstore.load dir ~generation:gen
            ~pack_digest:(Registry.pack_digest registry)
            caches
        with
        | Warmstore.Absent -> []
        | Warmstore.Loaded _ -> [ m.loaded ]
        | Warmstore.Skipped why ->
            Printf.eprintf
              "dggt serve: store snapshot skipped (%s); booting cold\n%!" why;
            [ m.skipped ]
        | Warmstore.Rejected why ->
            Printf.eprintf
              "dggt serve: store snapshot rejected (%s); booting cold\n%!" why;
            [ m.rejected ]
      in
      Smetrics.record metrics (List.map (fun c -> Smetrics.inc c []) counted))
    params.store_dir;
  let t =
    {
      params;
      pool;
      metrics;
      m;
      registry;
      build = Atomic.make None;
      q_cache = caches.Warmstore.q;
      word_cache = caches.Warmstore.word;
      sessions;
      traces = Ring.create ~capacity:params.trace_buffer;
      slots;
      booted = Ivar.create ();
      reload_mu = Mutex.create ();
      http = None;
      spill_mu = Mutex.create ();
      closing = Atomic.make false;
      finalized = Atomic.make false;
      spill_thread = None;
    }
  in
  (* no worker domain exists yet (the pool spawns them for jobs), so a
     failure to listen leaves nothing running *)
  let http =
    Httpd.create ~addr:params.addr ?unix_path:params.unix_socket
      ~port:params.port
      (fun req -> handler t req)
  in
  t.http <- Some http;
  start_spill_thread t;
  (* listening: now build every entry; each answers once its slot is
     filled, so a client of a small domain does not wait for a large one
     (DESIGN.md, "Per-domain readiness", has the measured trade-off) *)
  ignore (Deadline_pool.submit_exempt pool (boot_job t ~gen boot_slots));
  t

let port t = match t.http with Some h -> Httpd.port h | None -> t.params.port
let registry t = t.registry

(* after the listener: let the boot job finish, so the final spill holds
   every state it builds, then spill and drain and join the pool *)
let shut_down t =
  Ivar.await t.booted;
  finalize_store t;
  Deadline_pool.shutdown t.pool

let stop t =
  (match t.http with
  | Some h ->
      Httpd.stop h;
      Httpd.wait h
  | None -> ());
  shut_down t

let wait t =
  (match t.http with Some h -> Httpd.wait h | None -> ());
  shut_down t

let run params =
  let t = create params in
  (match t.http with Some h -> Httpd.handle_signals h | None -> ());
  Printf.printf
    "dggt serve: listening on %s (%d workers, queue %d, cache %d, \
     %d domains%s)\n\
     %!"
    (match params.unix_socket with
    | Some path -> "unix:" ^ path
    | None -> Printf.sprintf "http://%s:%d" params.addr (port t))
    (Deadline_pool.workers t.pool)
    (Deadline_pool.capacity t.pool)
    params.cache_size
    (List.length (slots t))
    ((match params.packs_dir with
     | Some d ->
         Printf.sprintf ", packs %s [%d loaded]" d
           (List.length
              (List.filter
                 (fun s -> s.entry.Registry.origin <> Registry.Builtin)
                 (slots t)))
     | None -> "")
    ^
    match params.store_dir with
    | Some d -> Printf.sprintf ", store %s" d
    | None -> "");
  wait t;
  Printf.printf "dggt serve: shut down cleanly\n%!"
