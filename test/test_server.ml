(* Tests for dggt_server: JSON round-trips, the LRU cache, the bounded
   worker pool, and an end-to-end loopback-socket exercise of the HTTP
   service against Engine.respond ground truth. *)

open Dggt_server
module J = Jsonio
module Engine = Dggt_core.Engine

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* jsonio                                                             *)
(* ------------------------------------------------------------------ *)

let roundtrip v =
  match J.of_string (J.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_roundtrip () =
  List.iter
    (fun v -> check_b (J.to_string v) true (roundtrip v))
    [
      J.Null;
      J.Bool true;
      J.Bool false;
      J.Num 0.;
      J.Num 42.;
      J.Num (-17.5);
      J.Num 1e300;
      J.Str "";
      J.Str "hello";
      J.Str "quotes \" and \\ backslash";
      J.Str "control \t\n\r chars";
      J.Str "caf\xc3\xa9"; (* UTF-8 passes through *)
      J.Arr [];
      J.Arr [ J.Num 1.; J.Str "two"; J.Null ];
      J.Obj [];
      J.Obj [ ("a", J.Num 1.); ("nested", J.Obj [ ("b", J.Arr [ J.Bool false ]) ]) ];
    ];
  (* integral floats print without a decimal point *)
  check_s "int rendering" "42" (J.to_string (J.Num 42.));
  check_s "neg int rendering" "-3" (J.to_string (J.Num (-3.)));
  (* NaN / infinity have no JSON form; they degrade to null *)
  check_s "nan is null" "null" (J.to_string (J.Num Float.nan))

let test_json_parse () =
  let ok s = Result.get_ok (J.of_string s) in
  check_b "ws tolerated" true (ok "  [ 1 , 2 ]  " = J.Arr [ J.Num 1.; J.Num 2. ]);
  check_b "escapes" true (ok {|"a\tbA"|} = J.Str "a\tbA");
  (* surrogate pair: U+1F600 as 😀 -> 4-byte UTF-8 *)
  check_b "surrogate pair" true
    (ok {|"😀"|} = J.Str "\xf0\x9f\x98\x80");
  check_b "trailing garbage rejected" true
    (Result.is_error (J.of_string "true false"));
  check_b "unterminated rejected" true (Result.is_error (J.of_string "[1, 2"));
  check_b "bare word rejected" true (Result.is_error (J.of_string "nope"));
  (* depth cap: 200 nested arrays must not blow the stack *)
  let deep = String.make 200 '[' ^ String.make 200 ']' in
  check_b "depth capped" true (Result.is_error (J.of_string deep))

let test_json_accessors () =
  let v = Result.get_ok (J.of_string {|{"s":"x","n":3,"b":true,"z":null}|}) in
  check_b "str_field" true (J.str_field "s" v = Some "x");
  check_b "int_field" true (J.int_field "n" v = Some 3);
  check_b "bool_field" true (J.bool_field "b" v = Some true);
  check_b "missing" true (J.str_field "missing" v = None);
  check_b "wrong shape" true (J.str_field "n" v = None);
  check_b "member null" true (J.member "z" v = Some J.Null)

(* ------------------------------------------------------------------ *)
(* cache                                                              *)
(* ------------------------------------------------------------------ *)

let test_cache_lru_order () =
  let c = Cache.create ~capacity:3 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  check_b "mru order" true (Cache.keys_mru c = [ "c"; "b"; "a" ]);
  (* touching "a" makes it MRU *)
  check_b "hit a" true (Cache.find c "a" = Some 1);
  check_b "order after touch" true (Cache.keys_mru c = [ "a"; "c"; "b" ]);
  (* inserting a 4th evicts the LRU, which is now "b" *)
  Cache.add c "d" 4;
  check_b "b evicted" true (Cache.find c "b" = None);
  check_b "order after evict" true (Cache.keys_mru c = [ "d"; "a"; "c" ]);
  check_i "length" 3 (Cache.length c)

let test_cache_counters () =
  let c = Cache.create ~capacity:2 in
  ignore (Cache.find c "x"); (* miss *)
  Cache.add c "x" 0;
  ignore (Cache.find c "x"); (* hit *)
  Cache.add c "y" 1;
  Cache.add c "z" 2; (* evicts x *)
  let k = Cache.counters c in
  check_i "hits" 1 k.Cache.hits;
  check_i "misses" 1 k.Cache.misses;
  check_i "evictions" 1 k.Cache.evictions;
  check_i "size" 2 k.Cache.size;
  check_b "hit rate" true (abs_float (Cache.hit_rate k -. 0.5) < 1e-9)

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  check_b "disabled never stores" true (Cache.find c "a" = None);
  check_i "disabled length" 0 (Cache.length c)

let test_cache_find_or_compute () =
  let c = Cache.create ~capacity:4 in
  let calls = ref 0 in
  let compute () = incr calls; 7 in
  let v1, hit1 = Cache.find_or_compute c "k" compute in
  let v2, hit2 = Cache.find_or_compute c "k" compute in
  check_i "value" 7 v1;
  check_i "value cached" 7 v2;
  check_b "first is miss" false hit1;
  check_b "second is hit" true hit2;
  check_i "computed once" 1 !calls

(* ------------------------------------------------------------------ *)
(* sessions store                                                     *)
(* ------------------------------------------------------------------ *)

let test_sessions_ttl () =
  let now = ref 1000.0 in
  let s = Sessions.create ~clock:(fun () -> !now) ~ttl_s:30.0 ~cap:4 () in
  let id = Sessions.add s "payload" in
  check_b "fresh find" true (Sessions.find s id = `Found "payload");
  (* an access slides the window: 20 s + 20 s idle never crosses 30 s *)
  now := !now +. 20.0;
  check_b "refreshed" true (Sessions.find s id = `Found "payload");
  now := !now +. 20.0;
  check_b "still live after slide" true (Sessions.find s id = `Found "payload");
  (* idle past the TTL: the first access reports Expired and removes *)
  now := !now +. 31.0;
  check_b "expired" true (Sessions.find s id = `Expired);
  check_b "expired ids are gone" true (Sessions.find s id = `Missing);
  let k = Sessions.counters s in
  check_i "expired count" 1 k.Sessions.expired;
  check_i "evicted count" 0 k.Sessions.evicted;
  check_i "size" 0 k.Sessions.size

let test_sessions_lru () =
  let s = Sessions.create ~clock:(fun () -> 0.0) ~ttl_s:60.0 ~cap:2 () in
  let a = Sessions.add s "a" in
  let b = Sessions.add s "b" in
  (* touching [a] makes [b] the LRU entry *)
  check_b "touch a" true (Sessions.find s a = `Found "a");
  let c = Sessions.add s "c" in
  check_b "b evicted" true (Sessions.find s b = `Missing);
  check_b "a survives" true (Sessions.find s a = `Found "a");
  check_b "c live" true (Sessions.find s c = `Found "c");
  let k = Sessions.counters s in
  check_i "created" 3 k.Sessions.created;
  check_i "evicted" 1 k.Sessions.evicted;
  check_i "size at cap" 2 k.Sessions.size;
  check_i "capacity" 2 k.Sessions.capacity;
  (* expired entries leave before live ones are evicted *)
  let now = ref 0.0 in
  let s = Sessions.create ~clock:(fun () -> !now) ~ttl_s:10.0 ~cap:2 () in
  let old = Sessions.add s "old" in
  now := 20.0;
  let fresh = Sessions.add s "fresh" in
  ignore (Sessions.add s "newer");
  check_b "expired dropped first" true (Sessions.find s old = `Missing);
  check_b "live entry kept" true (Sessions.find s fresh = `Found "fresh");
  let k = Sessions.counters s in
  check_i "expired not evicted" 1 k.Sessions.expired;
  check_i "no live eviction needed" 0 k.Sessions.evicted;
  (* remove *)
  check_b "remove live" true (Sessions.remove s fresh);
  check_b "remove again" false (Sessions.remove s fresh);
  (* cap <= 0 disables storage *)
  let s = Sessions.create ~ttl_s:60.0 ~cap:0 () in
  let id = Sessions.add s "x" in
  check_b "disabled store" true (Sessions.find s id = `Missing)

let test_sessions_concurrent () =
  let s = Sessions.create ~ttl_s:60.0 ~cap:8 () in
  let errors = Atomic.make 0 in
  let worker seed =
    let ids = ref [] in
    for i = 0 to 199 do
      (try
         match i mod 3 with
         | 0 -> ids := Sessions.add s (seed * 1000 + i) :: !ids
         | 1 -> (
             match !ids with
             | id :: _ -> ignore (Sessions.find s id)
             | [] -> ())
         | _ -> (
             match !ids with
             | id :: rest ->
                 ignore (Sessions.remove s id);
                 ids := rest
             | [] -> ())
       with _ -> Atomic.incr errors)
    done
  in
  let ts = List.init 4 (fun k -> Thread.create worker k) in
  List.iter Thread.join ts;
  check_i "no exceptions under concurrency" 0 (Atomic.get errors);
  let k = Sessions.counters s in
  check_b "size bounded by cap" true (k.Sessions.size <= k.Sessions.capacity)

(* ------------------------------------------------------------------ *)
(* pool                                                               *)
(* ------------------------------------------------------------------ *)

(* a gate the test can hold closed to keep the single worker busy *)
type gate = { mu : Mutex.t; cv : Condition.t; mutable opened : bool;
              mutable entered : bool }

let gate () =
  { mu = Mutex.create (); cv = Condition.create (); opened = false;
    entered = false }

let gate_block g =
  Mutex.lock g.mu;
  g.entered <- true;
  Condition.broadcast g.cv;
  while not g.opened do Condition.wait g.cv g.mu done;
  Mutex.unlock g.mu

let gate_await_entered g =
  Mutex.lock g.mu;
  while not g.entered do Condition.wait g.cv g.mu done;
  Mutex.unlock g.mu

let gate_open g =
  Mutex.lock g.mu;
  g.opened <- true;
  Condition.broadcast g.cv;
  Mutex.unlock g.mu

let test_pool_bounded_queue () =
  let p = Deadline_pool.create ~workers:1 ~capacity:2 () in
  let g = gate () in
  let ran = Atomic.make 0 in
  let nop = (fun () -> Atomic.incr ran) in
  let never = (fun () -> Alcotest.fail "unexpected expiry") in
  (* occupy the single worker, then wait until it has left the queue *)
  check_b "blocker accepted" true
    (Deadline_pool.submit p ~run:(fun () -> gate_block g) ~expired:never () = `Accepted);
  gate_await_entered g;
  (* the queue holds exactly [capacity] waiting jobs *)
  check_b "1st queued" true (Deadline_pool.submit p ~run:nop ~expired:never () = `Accepted);
  check_b "2nd queued" true (Deadline_pool.submit p ~run:nop ~expired:never () = `Accepted);
  check_i "depth" 2 (Deadline_pool.depth p);
  check_b "3rd rejected" true (Deadline_pool.submit p ~run:nop ~expired:never () = `Rejected);
  gate_open g;
  Deadline_pool.shutdown p;
  check_i "queued jobs ran" 2 (Atomic.get ran);
  (* after shutdown everything is rejected *)
  check_b "post-shutdown rejected" true
    (Deadline_pool.submit p ~run:nop ~expired:never () = `Rejected)

let test_pool_deadline () =
  let p = Deadline_pool.create ~workers:1 ~capacity:8 () in
  let g = gate () in
  let ran = Atomic.make false and expired = Atomic.make false in
  ignore (Deadline_pool.submit p ~run:(fun () -> gate_block g)
            ~expired:(fun () -> ()) ());
  gate_await_entered g;
  (* this job's deadline passes while it waits behind the blocker *)
  check_b "accepted" true
    (Deadline_pool.submit p ~deadline:(Unix.gettimeofday () -. 1.0)
       ~run:(fun () -> Atomic.set ran true)
       ~expired:(fun () -> Atomic.set expired true) ()
     = `Accepted);
  gate_open g;
  Deadline_pool.shutdown p;
  check_b "expired callback ran" true (Atomic.get expired);
  check_b "job never ran" false (Atomic.get ran)

(* The trimmer retires a worker within a few periods of its job, parks
   once none is live, and the next accepted job resumes it: the second
   worker retires too. *)
let test_pool_trimmer () =
  let p = Deadline_pool.create ~workers:2 ~capacity:8 () in
  let stats () = Deadline_pool.stats p in
  let run_one () =
    let ran = Atomic.make false in
    check_b "accepted" true
      (Deadline_pool.submit p ~run:(fun () -> Atomic.set ran true)
         ~expired:ignore ()
      = `Accepted);
    while not (Atomic.get ran) do
      Thread.yield ()
    done
  in
  let await_retired n =
    let t0 = Unix.gettimeofday () in
    while
      (stats ()).Dggt_par.Pool.retired < n && Unix.gettimeofday () -. t0 < 5.0
    do
      Unix.sleepf 0.01
    done;
    check_i "retired" n (stats ()).Dggt_par.Pool.retired;
    check_i "none live" 0 (stats ()).Dggt_par.Pool.live
  in
  run_one ();
  await_retired 1;
  (* several periods with no worker: the trimmer is parked *)
  Unix.sleepf 0.2;
  run_one ();
  check_i "respawned" 2 (stats ()).Dggt_par.Pool.spawned;
  await_retired 2;
  Deadline_pool.shutdown p

(* ------------------------------------------------------------------ *)
(* end-to-end over a loopback socket                                  *)
(* ------------------------------------------------------------------ *)

(* send [req] on a fresh connection, all at once or (with [dribble]) one
   byte per write, and read the raw response to EOF *)
let send_raw ~port ?(dribble = false) req =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let step = if dribble then 1 else String.length req in
      if dribble then Unix.setsockopt fd Unix.TCP_NODELAY true;
      let rec write_all off =
        if off < String.length req then
          let len = min step (String.length req - off) in
          write_all (off + Unix.write_substring fd req off len)
      in
      write_all 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

(* the index just past a response head's blank line, once it has
   arrived *)
let body_start raw =
  let rec go i =
    if i + 4 > String.length raw then None
    else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
    else go (i + 1)
  in
  go 0

(* one-shot HTTP client: Connection: close, read to EOF *)
let http ~port ~meth ~path ?(body = "") () =
  let raw =
    send_raw ~port
      (Printf.sprintf
         "%s %s HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\
          content-length: %d\r\n\r\n%s"
         meth path (String.length body) body)
  in
  let status = Scanf.sscanf raw "HTTP/1.1 %d" (fun s -> s) in
  let body =
    match body_start raw with
    | Some i -> String.sub raw i (String.length raw - i)
    | None -> ""
  in
  (status, body)

(* ground truth straight from the engine, under the server's default
   budget *)
let local_respond ?(domain = Dggt_domains.Text_editing.domain) q mode =
  let ses =
    Dggt_domains.Domain.configure domain
      {
        (Engine.default Engine.Dggt_alg) with
        Engine.timeout_s = Some Serve.default_params.Serve.default_timeout_s;
      }
  in
  Engine.respond ses { Engine.input = Engine.Text q; mode }

let with_server f =
  let params =
    { Serve.default_params with
      Serve.port = 0; workers = 1; queue_capacity = 8; cache_size = 32 }
  in
  let srv = Serve.create params in
  Fun.protect ~finally:(fun () -> Serve.stop srv) (fun () -> f srv)

let test_e2e_synthesize () =
  with_server (fun srv ->
      let port = Serve.port srv in
      (* liveness *)
      let st, body = http ~port ~meth:"GET" ~path:"/healthz" () in
      check_i "healthz status" 200 st;
      let j = Result.get_ok (J.of_string body) in
      check_b "healthz ok" true (J.str_field "status" j = Some "ok");
      (* ground truth straight from the engine, same config as the server *)
      let qtext = "insert \"> \" at the start of each line" in
      let expected = local_respond qtext Engine.Plain in
      let expected_code = Option.get expected.Engine.code in
      (* first request computes *)
      let reqbody =
        J.to_string (J.Obj [ ("query", J.Str qtext); ("domain", J.Str "te") ])
      in
      let st, body = http ~port ~meth:"POST" ~path:"/synthesize" ~body:reqbody () in
      check_i "synthesize status" 200 st;
      let j = Result.get_ok (J.of_string body) in
      check_b "synthesize ok" true (J.bool_field "ok" j = Some true);
      check_s "code matches engine" expected_code
        (Option.get (J.str_field "code" j));
      check_b "first not cached" true (J.bool_field "cached" j = Some false);
      (* repeat is a whole-query cache hit with the same answer *)
      let st, body = http ~port ~meth:"POST" ~path:"/synthesize" ~body:reqbody () in
      check_i "repeat status" 200 st;
      let j = Result.get_ok (J.of_string body) in
      check_b "repeat cached" true (J.bool_field "cached" j = Some true);
      check_s "cached code matches" expected_code
        (Option.get (J.str_field "code" j));
      (* rank returns candidates headed by the synthesize answer *)
      let st, body = http ~port ~meth:"POST" ~path:"/rank" ~body:reqbody () in
      check_i "rank status" 200 st;
      let j = Result.get_ok (J.of_string body) in
      (match J.member "candidates" j with
      | Some (J.Arr (J.Str head :: _)) -> check_s "rank head" expected_code head
      | _ -> Alcotest.fail "rank candidates missing");
      (* domains listing *)
      let st, body = http ~port ~meth:"GET" ~path:"/domains" () in
      check_i "domains status" 200 st;
      check_b "lists TextEditing" true
        (Dggt_util.Strutil.contains_sub ~sub:"TextEditing" body);
      (* metrics exposition reflects the traffic above *)
      let st, body = http ~port ~meth:"GET" ~path:"/metrics" () in
      check_i "metrics status" 200 st;
      let has sub = Dggt_util.Strutil.contains_sub ~sub body in
      check_b "requests counter" true
        (has "dggt_requests_total{domain=\"TextEditing\",outcome=\"ok\"}");
      check_b "cached counter" true
        (has "dggt_requests_total{domain=\"TextEditing\",outcome=\"cached\"}");
      check_b "latency histogram" true (has "dggt_request_latency_seconds");
      check_b "cache metrics" true (has "dggt_cache_hits_total");
      (* per-stage latency histograms cover all six pipeline stages *)
      check_b "stage histogram" true (has "dggt_stage_latency_seconds_bucket");
      List.iter
        (fun stage ->
          check_b ("stage metric " ^ stage) true
            (has (Printf.sprintf "dggt_stage_latency_seconds_count{stage=%S}" stage)))
        Engine.stage_names;
      check_b "stage p99 gauge" true (has "dggt_stage_latency_p99");
      (* recent traces are exposed for inspection *)
      let st, body = http ~port ~meth:"GET" ~path:"/debug/trace" () in
      check_i "debug trace status" 200 st;
      let j = Result.get_ok (J.of_string body) in
      check_b "trace capacity" true
        (J.int_field "capacity" j = Some Serve.default_params.Serve.trace_buffer);
      (* two engine runs happened (synthesize compute + rank); the cache hit
         did not reach the engine, so it is not recorded *)
      check_b "trace recorded" true (J.int_field "recorded" j = Some 2);
      (match J.member "traces" j with
      | Some (J.Arr (first :: _ as traces)) ->
          check_i "trace count" 2 (List.length traces);
          (* newest first: the rank request *)
          check_b "trace engine" true (J.str_field "engine" first = Some "dggt");
          check_b "trace query" true (J.str_field "query" first = Some qtext);
          (* the full six-stage pipeline shows in the synthesize trace
             (ranked mode stops after PathMerge, so look at the oldest) *)
          let full = List.nth traces (List.length traces - 1) in
          (match J.member "events" full with
          | Some (J.Arr events) ->
              let stages =
                List.filter_map (fun e -> J.str_field "stage" e) events
              in
              List.iter
                (fun s ->
                  check_b ("trace has stage " ^ s) true (List.mem s stages))
                Engine.stage_names;
              (* notes are {key,value} objects *)
              check_b "notes shape" true
                (List.exists
                   (fun e ->
                     match J.member "notes" e with
                     | Some (J.Arr (J.Obj fields :: _)) ->
                         List.mem_assoc "key" fields
                         && List.mem_assoc "value" fields
                     | _ -> false)
                   events)
          | _ -> Alcotest.fail "trace events missing")
      | _ -> Alcotest.fail "traces array missing");
      (* error paths *)
      let st, _ = http ~port ~meth:"GET" ~path:"/nope" () in
      check_i "404" 404 st;
      let st, _ = http ~port ~meth:"PUT" ~path:"/synthesize" () in
      check_i "405" 405 st;
      (* GET carries parameters in the URL query; without one it is a
         missing-query 400, not a method error *)
      let st, _ = http ~port ~meth:"GET" ~path:"/synthesize" () in
      check_i "400 missing query" 400 st;
      (* streaming is rank-only: /synthesize?stream=1 is rejected up front *)
      let st, _ =
        http ~port ~meth:"POST" ~path:"/synthesize?stream=1" ~body:reqbody ()
      in
      check_i "400 stream on synthesize" 400 st;
      let st, _ = http ~port ~meth:"POST" ~path:"/synthesize" ~body:"{oops" () in
      check_i "400 bad json" 400 st;
      let st, _ =
        http ~port ~meth:"POST" ~path:"/synthesize"
          ~body:{|{"query":"x","domain":"unknown"}|} ()
      in
      check_i "400 bad domain" 400 st)

(* ------------------------------------------------------------------ *)
(* incremental session endpoints                                      *)
(* ------------------------------------------------------------------ *)

let get_json ~port ~meth ~path ?body () =
  let st, raw = http ~port ~meth ~path ?body () in
  (st, Result.get_ok (J.of_string raw))

let test_e2e_sessions () =
  with_server (fun srv ->
      let port = Serve.port srv in
      (* open a session *)
      let st, j =
        get_json ~port ~meth:"POST" ~path:"/session"
          ~body:{|{"domain":"te"}|} ()
      in
      check_i "session created" 201 st;
      let sid = Option.get (J.str_field "session" j) in
      check_b "session domain" true
        (J.str_field "domain" j = Some "TextEditing");
      check_b "session engine" true (J.str_field "engine" j = Some "dggt");
      (* revision 1 computes *)
      let q = "delete all numbers in every line" in
      let qbody = J.to_string (J.Obj [ ("query", J.Str q) ]) in
      let st, j =
        get_json ~port ~meth:"POST"
          ~path:("/session/" ^ sid ^ "/query")
          ~body:qbody ()
      in
      check_i "rev 1 status" 200 st;
      check_b "rev 1 ok" true (J.bool_field "ok" j = Some true);
      let code1 = Option.get (J.str_field "code" j) in
      let reuse = Option.get (J.member "reuse" j) in
      check_b "rev 1 number" true (J.int_field "revision" reuse = Some 1);
      check_b "rev 1 no splice" true
        (J.bool_field "splice" reuse = Some false);
      (* revision 2: punctuation-only edit splices, same codelet *)
      let qbody2 = J.to_string (J.Obj [ ("query", J.Str (q ^ " .")) ]) in
      let st, j =
        get_json ~port ~meth:"POST"
          ~path:("/session/" ^ sid ^ "/query")
          ~body:qbody2 ()
      in
      check_i "rev 2 status" 200 st;
      let reuse = Option.get (J.member "reuse" j) in
      check_b "rev 2 number" true (J.int_field "revision" reuse = Some 2);
      check_b "rev 2 spliced" true (J.bool_field "splice" reuse = Some true);
      check_s "rev 2 same code" code1 (Option.get (J.str_field "code" j));
      check_b "reuse_ratio present" true
        (J.num_field "reuse_ratio" reuse <> None);
      (* bad request shapes *)
      let st, _ =
        http ~port ~meth:"POST" ~path:("/session/" ^ sid ^ "/query")
          ~body:"{}" ()
      in
      check_i "missing query field" 400 st;
      let st, _ =
        http ~port ~meth:"POST" ~path:"/session"
          ~body:{|{"domain":"nope"}|} ()
      in
      check_i "unknown domain" 400 st;
      let st, _ =
        http ~port ~meth:"POST" ~path:"/session"
          ~body:{|{"engine":"nope"}|} ()
      in
      check_i "unknown engine" 400 st;
      (* metrics reflect the session traffic *)
      let st, body = http ~port ~meth:"GET" ~path:"/metrics" () in
      check_i "metrics status" 200 st;
      let has sub = Dggt_util.Strutil.contains_sub ~sub body in
      check_b "sessions gauge" true (has "dggt_sessions ");
      check_b "sessions created" true (has "dggt_sessions_created_total 1");
      check_b "inc queries" true (has "dggt_inc_queries_total 2");
      check_b "inc splices" true (has "dggt_inc_splices_total 1");
      check_b "inc reuse ratio" true (has "dggt_inc_reuse_ratio");
      (* delete: gone, and a later query is 404 (not 410) *)
      let st, _ = http ~port ~meth:"DELETE" ~path:("/session/" ^ sid) () in
      check_i "delete" 200 st;
      let st, _ =
        http ~port ~meth:"POST" ~path:("/session/" ^ sid ^ "/query")
          ~body:qbody ()
      in
      check_i "deleted session 404" 404 st;
      let st, _ = http ~port ~meth:"DELETE" ~path:("/session/" ^ sid) () in
      check_i "double delete 404" 404 st;
      let st, _ =
        http ~port ~meth:"POST" ~path:"/session/never-existed/query"
          ~body:qbody ()
      in
      check_i "unknown session 404" 404 st;
      (* method errors on session paths *)
      let st, _ = http ~port ~meth:"GET" ~path:("/session/" ^ sid) () in
      check_i "session method not allowed" 405 st)

(* a reload strands every open session: its registry generation no longer
   exists, so the next access answers 410 Gone (distinct from 404) *)
let test_e2e_session_reload_410 () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dggt_inc_packs_%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let params =
    { Serve.default_params with
      Serve.port = 0; workers = 1; queue_capacity = 8; cache_size = 32;
      packs_dir = Some dir }
  in
  let srv = Serve.create params in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      let st, j =
        get_json ~port ~meth:"POST" ~path:"/session"
          ~body:{|{"domain":"te"}|} ()
      in
      check_i "session created" 201 st;
      let sid = Option.get (J.str_field "session" j) in
      let qbody = J.to_string (J.Obj [ ("query", J.Str "delete all numbers") ]) in
      let st, _ =
        http ~port ~meth:"POST" ~path:("/session/" ^ sid ^ "/query")
          ~body:qbody ()
      in
      check_i "query before reload" 200 st;
      let st, _ = http ~port ~meth:"POST" ~path:"/reload" () in
      check_i "reload ok" 200 st;
      let st, _ =
        http ~port ~meth:"POST" ~path:("/session/" ^ sid ^ "/query")
          ~body:qbody ()
      in
      check_i "stranded session 410" 410 st;
      (* the stranded entry was dropped: a retry is an ordinary 404 *)
      let st, _ =
        http ~port ~meth:"POST" ~path:("/session/" ^ sid ^ "/query")
          ~body:qbody ()
      in
      check_i "after 410 comes 404" 404 st;
      (* a fresh session against the reloaded registry works *)
      let st, j =
        get_json ~port ~meth:"POST" ~path:"/session"
          ~body:{|{"domain":"te"}|} ()
      in
      check_i "re-created session" 201 st;
      let sid2 = Option.get (J.str_field "session" j) in
      let st, _ =
        http ~port ~meth:"POST" ~path:("/session/" ^ sid2 ^ "/query")
          ~body:qbody ()
      in
      check_i "fresh session queries" 200 st)

(* ------------------------------------------------------------------ *)
(* streaming: SSE frames over chunked transfer on /rank?stream=1      *)
(* ------------------------------------------------------------------ *)

(* de-chunk a chunked-transfer body into its frames. The input is the
   final byte string, which the socket delivered in whatever segments it
   pleased — so this exercises reassembly across arbitrary chunk/read
   boundaries by construction. *)
let dechunk body =
  let n = String.length body in
  let find_crlf from =
    let rec go i =
      if i + 1 >= n then None
      else if body.[i] = '\r' && body.[i + 1] = '\n' then Some i
      else go (i + 1)
    in
    go from
  in
  let rec go acc cur =
    match find_crlf cur with
    | None -> List.rev acc
    | Some le -> (
        match
          int_of_string_opt ("0x" ^ String.trim (String.sub body cur (le - cur)))
        with
        | None | Some 0 -> List.rev acc
        | Some size when le + 2 + size + 2 <= n ->
            go (String.sub body (le + 2) size :: acc) (le + 2 + size + 2)
        | Some _ -> List.rev acc)
  in
  go [] 0

(* "event: X\ndata: {json}\n\n" -> (X, json-text) *)
let sse_event frame =
  match String.split_on_char '\n' frame with
  | ev :: data :: _
    when String.length ev > 7
         && String.sub ev 0 7 = "event: "
         && String.length data > 6
         && String.sub data 0 6 = "data: " ->
      Some
        ( String.sub ev 7 (String.length ev - 7),
          String.sub data 6 (String.length data - 6) )
  | _ -> None

let test_stream_rank () =
  with_server (fun srv ->
      let port = Serve.port srv in
      let reqbody =
        J.to_string
          (J.Obj
             [
               ("query", J.Str "insert \"> \" at the start of each line");
               ("domain", J.Str "te");
               ("k", J.Num 5.);
             ])
      in
      let st, raw = http ~port ~meth:"POST" ~path:"/rank?stream=1" ~body:reqbody () in
      check_i "stream status" 200 st;
      let frames = dechunk raw in
      check_b "has frames" true (frames <> []);
      let evs = List.filter_map sse_event frames in
      check_i "all frames well-formed" (List.length frames) (List.length evs);
      let rec split_last = function
        | [] -> ([], None)
        | [ x ] -> ([], Some x)
        | x :: tl ->
            let xs, l = split_last tl in
            (x :: xs, l)
      in
      let cands, last = split_last evs in
      check_b "at least one interim revision" true (cands <> []);
      List.iter (fun (e, _) -> check_s "interim event" "candidate" e) cands;
      ignore
        (List.fold_left
           (fun prev (_, d) ->
             let j = Result.get_ok (J.of_string d) in
             let r = Option.get (J.int_field "revision" j) in
             check_b "revision monotone" true (r > prev);
             let rk = Option.get (J.int_field "rank" j) in
             check_b "rank within top-k" true (rk >= 1 && rk <= 5);
             r)
           0 cands);
      let done_ev, done_body = Option.get last in
      check_s "terminal event" "done" done_ev;
      (* the trace's Stream span says when the frames were produced: the
         first candidate strictly before the terminal frame *)
      let _, traces = http ~port ~meth:"GET" ~path:"/debug/trace" () in
      (match J.member "traces" (Result.get_ok (J.of_string traces)) with
      | Some (J.Arr (newest :: _)) -> (
          let span =
            match J.member "events" newest with
            | Some (J.Arr evs) ->
                List.find_opt (fun e -> J.str_field "stage" e = Some "Stream") evs
            | _ -> None
          in
          let note k =
            match Option.bind span (J.member "notes") with
            | Some (J.Arr ns) ->
                List.find_map
                  (fun n ->
                    if J.str_field "key" n = Some k then J.num_field "value" n
                    else None)
                  ns
            | _ -> None
          in
          check_b "Stream span counts the candidate frames" true
            (note "candidates" = Some (float_of_int (List.length cands)));
          match (note "ttfc_s", note "done_s") with
          | Some ttfc, Some done_s ->
              check_b "first candidate produced before the terminal frame" true
                (0. < ttfc && ttfc < done_s)
          | _ -> Alcotest.fail "Stream span lacks ttfc_s/done_s")
      | _ -> Alcotest.fail "no trace for the stream");
      (* the done frame is byte-for-byte the non-streaming /rank body
         (the stream bypassed the cache, so this one is a fresh compute) *)
      let st, plain = http ~port ~meth:"POST" ~path:"/rank" ~body:reqbody () in
      check_i "plain rank status" 200 st;
      check_s "done frame = non-streaming body" plain done_body;
      (* the plain /rank above populated the whole-query cache, so a
         GET stream of the same query is a replay: exactly one candidate
         frame (the winner) and a done frame carrying the cached body *)
      let st, cached_plain = http ~port ~meth:"POST" ~path:"/rank" ~body:reqbody () in
      check_i "cached rank status" 200 st;
      check_b "plain rank now cached" true
        (J.bool_field "cached" (Result.get_ok (J.of_string cached_plain))
        = Some true);
      let st, raw2 =
        http ~port ~meth:"GET"
          ~path:
            "/rank?stream=1&k=5&domain=te&query=insert%20%22%3E%20%22%20at%20the%20start%20of%20each%20line"
          ()
      in
      check_i "GET stream status" 200 st;
      (match List.filter_map sse_event (dechunk raw2) with
      | [ (ev1, cand); (ev2, body2) ] ->
          check_s "replay first event" "candidate" ev1;
          let cj = Result.get_ok (J.of_string cand) in
          check_b "replay candidate is rank 1" true
            (J.int_field "rank" cj = Some 1);
          check_s "replay terminal event" "done" ev2;
          check_s "replay done frame = cached body" cached_plain body2
      | evs ->
          Alcotest.failf "replay stream produced %d frames (want 2)"
            (List.length evs));
      (* the replay is counted in /metrics *)
      let _, metrics = http ~port ~meth:"GET" ~path:"/metrics" () in
      check_b "replay counter exported" true
        (Dggt_util.Strutil.contains_sub
           ~sub:"dggt_stream_cache_replays_total 1" metrics))

(* A session opens only on a built domain, so its 201 says the domain's
   state is ready: a request sent after it does not wait for the boot. *)
let await_built ~port domain =
  let st, _ =
    http ~port ~meth:"POST" ~path:"/session"
      ~body:(J.to_string (J.Obj [ ("domain", J.Str domain) ]))
      ()
  in
  check_i (domain ^ " built") 201 st

let test_stream_deadline () =
  with_server (fun srv ->
      let port = Serve.port srv in
      (* a deadline far too tight to finish: the stream must end with an
         [event: error] frame carrying the 504 it could no longer send as
         a status line. The domain is built first: a request whose
         deadline passes while it waits for the boot is answered 504
         before any stream opens. *)
      await_built ~port "am";
      let reqbody =
        J.to_string
          (J.Obj
             [
               ( "query",
                 J.Str
                   "find cxx constructor expressions which declare a cxx \
                    method named \"PI\"" );
               ("domain", J.Str "am");
               ("timeout", J.Num 0.001);
             ])
      in
      let st, raw = http ~port ~meth:"POST" ~path:"/rank?stream=1" ~body:reqbody () in
      check_i "headers already sent: 200" 200 st;
      match List.rev (List.filter_map sse_event (dechunk raw)) with
      | (ev, data) :: _ ->
          check_s "terminal error frame" "error" ev;
          let j = Result.get_ok (J.of_string data) in
          check_b "frame carries 504" true (J.int_field "status" j = Some 504);
          check_b "frame not ok" true (J.bool_field "ok" j = Some false)
      | [] -> Alcotest.fail "deadline stream produced no frames")

let test_stream_disconnect () =
  with_server (fun srv ->
      let port = Serve.port srv in
      let body =
        J.to_string
          (J.Obj
             [
               ("query", J.Str "delete all numbers in every line");
               ("domain", J.Str "te");
               ("k", J.Num 5.);
             ])
      in
      (* hang up mid-stream: read only the response head, then close *)
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "POST /rank?stream=1 HTTP/1.1\r\nhost: x\r\ncontent-length: \
           %d\r\n\r\n%s"
          (String.length body) body
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Bytes.create 64 in
      ignore (Unix.read fd b 0 64);
      Unix.close fd;
      (* the producer hits EPIPE and aborts; the server must shrug it
         off and serve the next connection normally *)
      let st, _ = http ~port ~meth:"GET" ~path:"/healthz" () in
      check_i "alive after disconnect" 200 st;
      let st, plain = http ~port ~meth:"POST" ~path:"/rank" ~body () in
      check_i "rank after disconnect" 200 st;
      check_b "rank ok" true
        (J.bool_field "ok" (Result.get_ok (J.of_string plain)) = Some true))

(* A client that hangs up mid-stream aborts it: the server's next frame
   write fails (EPIPE), the stream is counted [failed] and its trace
   lands in /debug/trace with [ok = false]. The reset has to land
   mid-stream — after the response head, before the terminal frame is
   written — or the stream completes and its trace says [ok = true].
   Two things give the reset a margin of tens of milliseconds:
   - the client resets as soon as the head arrives, and this query's run
     writes its first candidate ~55 ms later (2 vCPUs) and its terminal
     frame after that, so at least one write follows the reset;
   - the client runs in a domain of its own. The stream runs on a
     connection thread of domain 0 and holds domain 0's runtime lock
     while it computes; a client thread on domain 0 could not reset
     until the stream's next blocking write or a 50 ms tick, by which
     time the stream may have finished. *)
let test_stream_abort_trace () =
  with_server (fun srv ->
      let port = Serve.port srv in
      await_built ~port "am";
      let recorded () =
        let _, j = get_json ~port ~meth:"GET" ~path:"/debug/trace" () in
        (Option.get (J.int_field "recorded" j), j)
      in
      let before, _ = recorded () in
      let query = "find range based for loops containing a break statement" in
      let body =
        J.to_string
          (J.Obj
             [ ("query", J.Str query); ("domain", J.Str "am"); ("k", J.Num 5.) ])
      in
      let client () =
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let req =
          Printf.sprintf
            "POST /rank?stream=1 HTTP/1.1\r\nhost: x\r\ncontent-length: \
             %d\r\n\r\n%s"
            (String.length body) body
        in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 4096 and b = Bytes.create 4096 in
        let rec head () =
          let n = Unix.read fd b 0 4096 in
          Buffer.add_subbytes buf b 0 n;
          if
            n > 0
            && not
                 (Dggt_util.Strutil.contains_sub ~sub:"\r\n\r\n"
                    (Buffer.contents buf))
          then head ()
        in
        head ();
        (* linger 0: close resets the connection, so the next write fails *)
        Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
        Unix.close fd;
        Buffer.contents buf
      in
      let head = Domain.join (Domain.spawn client) in
      check_b "the stream opened" true
        (Dggt_util.Strutil.contains_sub ~sub:"HTTP/1.1 200" head);
      let rec await n =
        let r, j = recorded () in
        if r = before && n > 0 then begin
          Unix.sleepf 0.02;
          await (n - 1)
        end
        else (r, j)
      in
      let after, j = await 500 in
      check_i "one trace recorded" (before + 1) after;
      (match J.member "traces" j with
      | Some (J.Arr (newest :: _)) ->
          check_b "trace is the aborted stream" true
            (J.str_field "query" newest = Some query);
          check_b "trace not ok" true (J.bool_field "ok" newest = Some false)
      | _ -> Alcotest.fail "no trace");
      let _, metrics = http ~port ~meth:"GET" ~path:"/metrics" () in
      check_b "aborted stream counted failed" true
        (Dggt_util.Strutil.contains_sub
           ~sub:"dggt_requests_total{domain=\"ASTMatcher\",outcome=\"failed\"} 1\n"
           metrics))

let test_stream_session () =
  with_server (fun srv ->
      let port = Serve.port srv in
      let st, j =
        get_json ~port ~meth:"POST" ~path:"/session" ~body:{|{"domain":"te"}|} ()
      in
      check_i "session created" 201 st;
      let sid = Option.get (J.str_field "session" j) in
      let qbody =
        J.to_string
          (J.Obj
             [
               ("query", J.Str "delete all numbers in every line");
               ("k", J.Num 5.);
             ])
      in
      let st, raw =
        http ~port ~meth:"POST"
          ~path:("/session/" ^ sid ^ "/query?stream=1")
          ~body:qbody ()
      in
      check_i "session stream status" 200 st;
      (match List.rev (List.filter_map sse_event (dechunk raw)) with
      | (ev, data) :: _ ->
          check_s "session terminal event" "done" ev;
          let dj = Result.get_ok (J.of_string data) in
          check_b "done ok" true (J.bool_field "ok" dj = Some true);
          check_b "done carries session id" true
            (J.str_field "session" dj = Some sid)
      | [] -> Alcotest.fail "session stream produced no frames");
      (* the stream released the session lock and did not advance the
         revision history: the first ordinary query is still revision 1 *)
      let st, j =
        get_json ~port ~meth:"POST"
          ~path:("/session/" ^ sid ^ "/query")
          ~body:(J.to_string (J.Obj [ ("query", J.Str "delete all numbers in every line") ]))
          ()
      in
      check_i "post-stream query" 200 st;
      let reuse = Option.get (J.member "reuse" j) in
      check_b "stream did not advance revisions" true
        (J.int_field "revision" reuse = Some 1))

let test_version_streaming () =
  with_server (fun srv ->
      let port = Serve.port srv in
      let st, j = get_json ~port ~meth:"GET" ~path:"/version" () in
      check_i "version status" 200 st;
      match J.member "capabilities" j with
      | Some (J.Arr caps) ->
          check_b "streaming advertised" true (List.mem (J.Str "streaming") caps)
      | _ -> Alcotest.fail "capabilities missing")

(* A /synthesize with k > 1 is one ranked run under the request's own
   budget: a fresh query makes one WordToAPI pass, so the word cache
   records no hit, and the body carries what a local Ranked 5 respond
   computes. *)
let test_synthesize_ranked_once () =
  with_server (fun srv ->
      let port = Serve.port srv in
      let q = "insert \"> \" at the start of each line" in
      let st, j =
        get_json ~port ~meth:"POST" ~path:"/synthesize"
          ~body:
            (J.to_string
               (J.Obj
                  [ ("query", J.Str q); ("domain", J.Str "te"); ("k", J.Num 5.) ]))
          ()
      in
      check_i "status" 200 st;
      let _, metrics = http ~port ~meth:"GET" ~path:"/metrics" () in
      let has sub = Dggt_util.Strutil.contains_sub ~sub metrics in
      check_b "word cache missed" false
        (has "dggt_cache_misses_total{cache=\"word_cache\"} 0\n");
      check_b "one WordToAPI pass" true
        (has "dggt_cache_hits_total{cache=\"word_cache\"} 0\n");
      let o = local_respond q (Engine.Ranked 5) in
      let same name field v =
        check_s name (J.to_string v)
          (J.to_string (Option.value (J.member field j) ~default:J.Null))
      in
      same "code" "code" (J.opt (fun c -> J.Str c) o.Engine.code);
      same "cgt_size" "cgt_size"
        (J.opt (fun n -> J.Num (float_of_int n)) o.Engine.cgt_size);
      same "stats" "stats" (Wire.stats_json o.Engine.stats);
      same "alternatives" "ranked" (Wire.ranked_json o.Engine.ranked);
      check_b "five alternatives" true (List.length o.Engine.ranked = 5))

(* /synthesize with k > 1 and /rank make one engine call, cached once:
   a /rank after a /synthesize of the same query and k is a hit, and its
   list is the synthesize body's alternatives. *)
let test_rank_after_synthesize_cached () =
  with_server (fun srv ->
      let port = Serve.port srv in
      let body =
        J.to_string
          (J.Obj
             [
               ("query", J.Str "delete all numbers in every line");
               ("domain", J.Str "te");
               ("k", J.Num 5.);
             ])
      in
      let st, synth = get_json ~port ~meth:"POST" ~path:"/synthesize" ~body () in
      check_i "synthesize status" 200 st;
      let st, rank = get_json ~port ~meth:"POST" ~path:"/rank" ~body () in
      check_i "rank status" 200 st;
      check_b "rank is a cache hit" true (J.bool_field "cached" rank = Some true);
      let list j = J.to_string (Option.value (J.member "ranked" j) ~default:J.Null) in
      check_s "rank list = synthesize alternatives" (list synth) (list rank);
      check_b "a non-empty list" true (list rank <> "[]"))

(* Every route counts its outcomes alike: an explicit k = 1 is one
   candidate on /rank and on a streamed session query, a /rank that runs
   out of budget is a timeout and its body says [timed_out], and a
   session body that is not JSON is a counted bad request. *)
let test_outcome_accounting () =
  with_server (fun srv ->
      let port = Serve.port srv in
      let st, j =
        get_json ~port ~meth:"POST" ~path:"/rank"
          ~body:{|{"query":"delete all numbers","domain":"te","k":1}|} ()
      in
      check_i "k=1 status" 200 st;
      check_b "k=1 echoed" true (J.int_field "k" j = Some 1);
      check_b "finished run has no timed_out" true (J.member "timed_out" j = None);
      (match J.member "candidates" j with
      | Some (J.Arr [ _ ]) -> ()
      | _ -> Alcotest.fail "/rank k=1 wants one candidate");
      let body =
        J.to_string
          (J.Obj
             [
               ( "query",
                 J.Str
                   "find cxx constructor expressions which declare a cxx \
                    method named \"PI\"" );
               ("domain", J.Str "am");
               ("timeout", J.Num 0.001);
             ])
      in
      (* the job may expire in the queue before a worker takes it (504,
         counted as expired); only a run that starts can time out *)
      let rec attempt n =
        let st, raw = http ~port ~meth:"POST" ~path:"/rank" ~body () in
        if st = 504 && n > 1 then attempt (n - 1)
        else begin
          check_i "timed-out rank status" 200 st;
          check_b "timed-out rank says so" true
            (J.bool_field "timed_out" (Result.get_ok (J.of_string raw))
            = Some true)
        end
      in
      attempt 20;
      let st, j =
        get_json ~port ~meth:"POST" ~path:"/session" ~body:{|{"domain":"te"}|} ()
      in
      check_i "session created" 201 st;
      let qpath = "/session/" ^ Option.get (J.str_field "session" j) ^ "/query" in
      let st, raw =
        http ~port ~meth:"POST" ~path:(qpath ^ "?stream=1")
          ~body:{|{"query":"delete all numbers","k":1}|} ()
      in
      check_i "session stream status" 200 st;
      (match List.rev (List.filter_map sse_event (dechunk raw)) with
      | ("done", data) :: _ ->
          let dj = Result.get_ok (J.of_string data) in
          check_b "stream k=1 echoed" true (J.int_field "k" dj = Some 1);
          check_b "stream k=1 one candidate" true
            (match J.member "candidates" dj with
            | Some (J.Arr [ _ ]) -> true
            | _ -> false)
      | _ -> Alcotest.fail "session stream did not end with done");
      let st, _ = http ~port ~meth:"POST" ~path:qpath ~body:"{oops" () in
      check_i "session bad json" 400 st;
      let _, metrics = http ~port ~meth:"GET" ~path:"/metrics" () in
      let has sub = Dggt_util.Strutil.contains_sub ~sub metrics in
      check_b "rank timeout counted" true
        (has "dggt_requests_total{domain=\"ASTMatcher\",outcome=\"timeout\"}");
      check_b "session bad json counted" true
        (has
           "dggt_requests_total{domain=\"TextEditing\",\
            outcome=\"bad_request\"} 1\n"))

(* ------------------------------------------------------------------ *)
(* per-domain readiness: the boot builds after the server listens     *)
(* ------------------------------------------------------------------ *)

(* Premise: the await starts before the fill. The filling domain waits
   until the awaiting thread has announced itself, then 20 ms more; the
   await must wake with the value another domain filled. *)
let test_ivar_cross_domain () =
  let iv = Ivar.create () in
  let announced = Atomic.make false in
  let filler =
    Domain.spawn (fun () ->
        while not (Atomic.get announced) do
          Domain.cpu_relax ()
        done;
        Unix.sleepf 0.02;
        Ivar.fill iv 42)
  in
  check_b "empty before the fill" true (Ivar.peek iv = None);
  Atomic.set announced true;
  check_i "the await wakes with the value" 42 (Ivar.await iv);
  Domain.join filler;
  Ivar.fill iv 7;
  check_i "the first fill wins" 42 (Ivar.await iv)

let boot_params = { Serve.default_params with Serve.port = 0; workers = 2 }

(* Premise: both requests leave the moment [Serve.create] returns, while
   the boot job is still building (ASTMatcher takes ~0.1 s on 2 vCPUs),
   and the test forces the global domains for its local answers while
   the server forces its own copies. Each request waits for its own
   domain only, and answers exactly what the engine computes locally. *)
let test_boot_answers () =
  let cases =
    [
      ("te", Dggt_domains.Text_editing.domain,
       "insert \"> \" at the start of each line");
      ("am", Dggt_domains.Astmatcher.domain, "find functions named \"main\"");
    ]
  in
  let srv = Serve.create boot_params in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      let answers = Array.make (List.length cases) (0, "") in
      let threads =
        List.mapi
          (fun i (dom, _, q) ->
            Thread.create
              (fun () ->
                answers.(i) <-
                  http ~port ~meth:"POST" ~path:"/synthesize"
                    ~body:
                      (J.to_string
                         (J.Obj
                            [
                              ("query", J.Str q);
                              ("domain", J.Str dom);
                              ("k", J.Num 5.);
                            ]))
                    ())
              ())
          cases
      in
      let local =
        List.map (fun (_, d, q) -> local_respond ~domain:d q (Engine.Ranked 5)) cases
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i ((dom, _, _), (o : Engine.outcome)) ->
          let st, body = answers.(i) in
          check_i (dom ^ " status") 200 st;
          let j = Result.get_ok (J.of_string body) in
          let same name field v =
            check_s (dom ^ " " ^ name) (J.to_string v)
              (J.to_string (Option.value (J.member field j) ~default:J.Null))
          in
          same "code" "code" (J.opt (fun c -> J.Str c) o.Engine.code);
          same "cgt_size" "cgt_size"
            (J.opt (fun n -> J.Num (float_of_int n)) o.Engine.cgt_size);
          same "stats" "stats" (Wire.stats_json o.Engine.stats);
          same "alternatives" "ranked" (Wire.ranked_json o.Engine.ranked))
        (List.combine cases local))

(* Premise: called the moment [Serve.create] returns, while ASTMatcher is
   still building. Both routes list every entry and answer 200: an entry
   still building shows its name, aliases and origin only (counting its
   APIs would force its document), a built one its description, counts
   and automaton too. *)
let test_boot_listing () =
  let srv = Serve.create boot_params in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      let names = [ "TextEditing"; "ASTMatcher" ] in
      let listing () =
        let st, j = get_json ~port ~meth:"GET" ~path:"/domains" () in
        check_i "domains status" 200 st;
        match J.member "domains" j with
        | Some (J.Arr ds) ->
            check_b "every entry listed" true
              (List.filter_map (J.str_field "name") ds = names);
            List.iter
              (fun d ->
                check_b "aliases and origin" true
                  (J.member "aliases" d <> None && J.str_field "origin" d = Some "builtin");
                check_b "description, apis and queries together" true
                  (J.member "description" d <> None = (J.member "apis" d <> None)
                  && J.member "apis" d <> None = (J.member "queries" d <> None)))
              ds;
            List.filter (fun d -> J.member "apis" d <> None) ds
        | _ -> Alcotest.fail "domains not an array"
      in
      ignore (listing ());
      let st, j = get_json ~port ~meth:"GET" ~path:"/version" () in
      check_i "version status" 200 st;
      (match J.member "automata" j with
      | Some (J.Arr rows) ->
          check_b "every entry has a row" true
            (List.filter_map (J.str_field "domain") rows = names);
          List.iter
            (fun r ->
              check_b "digest and compile time together" true
                (J.member "digest" r <> None = (J.member "compile_s" r <> None)))
            rows
      | _ -> Alcotest.fail "automata not an array");
      List.iter (fun d -> await_built ~port d) [ "te"; "am" ];
      check_i "both built: full rows" 2 (List.length (listing ())))

(* The thread count once the threads that persist once started exist:
   domain 0's tick thread (first systhread) and its helper thread
   (first domain spawn). *)
let settled_base () =
  Thread.join (Thread.create ignore ());
  Domain.join (Domain.spawn ignore);
  Test_par.settled_threads ()

(* the thread count once it is down to [base], or after 2 s (a joined
   domain's thread may take a moment to go) *)
let threads_down_to base =
  let rec settle n =
    let k = Test_par.threads () in
    if k > base && n > 0 then begin
      Unix.sleepf 0.01;
      settle (n - 1)
    end
    else k
  in
  settle 200

(* Premise: [Serve.stop] is called the moment [Serve.create] returns,
   before the boot job can have built ASTMatcher. It must return with the
   job finished (both automata are in the registry, so asking for them
   compiles nothing) and every worker domain joined (the process is back
   to its thread count; a joined domain's thread may take a moment to
   go). *)
let test_boot_stop () =
  let before = settled_base () in
  let srv = Serve.create boot_params in
  Serve.stop srv;
  let reg = Serve.registry srv in
  List.iter
    (fun (e : Dggt_pack.Domain_registry.entry) ->
      check_b
        (e.Dggt_pack.Domain_registry.domain.Dggt_domains.Domain.name
       ^ " built by the boot job")
        false
        (snd (Dggt_pack.Domain_registry.automaton reg e)))
    (Dggt_pack.Domain_registry.entries reg);
  check_i "no worker left running" before (threads_down_to before)

(* The head scan reads each new byte once. A request written one byte
   per write (TCP_NODELAY, so the terminator can straddle reads) gets
   the bytes a one-piece write gets; the error names the body's domain,
   so the body arrived whole. A head without its terminator one byte
   over the 16 KiB cap is refused with 431 either way (exactly one byte
   over, so the server has read every byte before it answers). *)
let test_dribbled_request () =
  with_server (fun srv ->
      let port = Serve.port srv in
      let body = {|{"query": "delete all numbers", "domain": "klingon"}|} in
      let req =
        Printf.sprintf
          "POST /synthesize HTTP/1.1\r\nhost: localhost\r\n\
           connection: close\r\ncontent-length: %d\r\n\r\n%s"
          (String.length body) body
      in
      let whole = send_raw ~port req in
      check_b "answered" true (String.starts_with ~prefix:"HTTP/1.1 " whole);
      check_b "the body was read" true
        (Dggt_util.Strutil.contains_sub ~sub:"klingon" whole);
      check_s "dribbled = whole" whole (send_raw ~port ~dribble:true req);
      let prefix = "GET /healthz HTTP/1.1\r\nx-pad: " in
      let big = prefix ^ String.make (16385 - String.length prefix) 'a' in
      List.iter
        (fun dribble ->
          let raw = send_raw ~port ~dribble big in
          check_i "oversized head" 431
            (Scanf.sscanf raw "HTTP/1.1 %d" (fun s -> s)))
        [ false; true ])

let metric_value body name =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ n; v ] when n = name -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' body)

(* Once the boot job and a request are done, no worker has work: within
   a few trim periods every worker the pool spawned has retired, and
   /metrics says so beside the process's collection counts. *)
let test_pool_metrics () =
  let srv = Serve.create boot_params in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      List.iter (fun d -> await_built ~port d) [ "te"; "am" ];
      let st, _ =
        http ~port ~meth:"POST" ~path:"/synthesize"
          ~body:{|{"query": "delete all numbers", "domain": "te"}|} ()
      in
      check_i "synthesize" 200 st;
      let rec settle n =
        let _, body = http ~port ~meth:"GET" ~path:"/metrics" () in
        if metric_value body "dggt_pool_workers_live" <> Some 0 && n > 0 then begin
          Unix.sleepf 0.02;
          settle (n - 1)
        end
        else body
      in
      let body = settle 250 in
      let value name =
        match metric_value body name with
        | Some v -> v
        | None -> Alcotest.failf "%s missing from /metrics" name
      in
      check_i "no live worker" 0 (value "dggt_pool_workers_live");
      let spawns = value "dggt_pool_worker_spawns_total" in
      check_b "the boot job and the request spawned workers" true (spawns >= 1);
      check_i "every spawned worker retired" spawns
        (value "dggt_pool_worker_retirements_total");
      check_b "minor collections counted" true
        (value "dggt_gc_minor_collections_total" >= 0);
      check_b "major collections counted" true
        (value "dggt_gc_major_collections_total" >= 0))

(* ------------------------------------------------------------------ *)
(* httpd thread model                                                 *)
(* ------------------------------------------------------------------ *)

(* the most acceptors a server keeps parked ([max_idle_acceptors] in
   httpd.ml) *)
let idle_acceptors = 2

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let connect addr =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  Unix.connect fd addr;
  fd

(* one request on an open connection: the status, once the whole
   Content-Length body has arrived; the connection stays open *)
let exchange ?(meth = "GET") ?(body = "") fd path =
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nhost: localhost\r\ncontent-length: %d\r\n\r\n%s"
      meth path (String.length body) body
  in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 and chunk = Bytes.create 1024 in
  let rec await () =
    let s = Buffer.contents buf in
    let complete =
      match body_start s with
      | None -> false
      | Some b ->
          let clen =
            String.split_on_char '\n' (String.sub s 0 b)
            |> List.find_map (fun l -> Scanf.sscanf_opt l "content-length: %d" Fun.id)
          in
          String.length s >= b + Option.value clen ~default:0
    in
    if complete then Scanf.sscanf s "HTTP/1.1 %d" Fun.id
    else begin
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then Alcotest.fail "connection closed before the response ended";
      Buffer.add_subbytes buf chunk 0 n;
      await ()
    end
  in
  await ()

(* [exchange] on a connection of its own *)
let fresh ?meth ?body addr path =
  let fd = connect addr in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> exchange ?meth ?body fd path)

(* A bare Httpd on a loopback port: GET /hold streams one chunk, waits
   for [release], then streams another; GET /stream streams two chunks;
   anything else answers "ok". [f port release served]: [served ()]
   counts the distinct threads that have run the handler. *)
let with_httpd f =
  let release = Atomic.make false in
  let mu = Mutex.create () and served = Hashtbl.create 8 in
  let handler (req : Httpd.request) =
    Mutex.protect mu (fun () ->
        Hashtbl.replace served (Thread.id (Thread.self ())) ());
    match req.Httpd.path with
    | "/hold" ->
        Httpd.stream_response 200 (fun chunk ->
            chunk "held\n";
            while not (Atomic.get release) do
              Thread.delay 0.005
            done;
            chunk "released\n")
    | "/stream" ->
        Httpd.stream_response 200 (fun chunk ->
            chunk "one\n";
            chunk "two\n")
    | _ -> Httpd.response 200 "ok"
  in
  let h = Httpd.create ~port:0 handler in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Httpd.stop h;
      Httpd.wait h)
    (fun () ->
      f (Httpd.port h) release (fun () ->
          Mutex.protect mu (fun () -> Hashtbl.length served)))

(* read [fd] into [buf] until [buf] holds [sub] (true) or the peer
   closes (false) *)
let rec read_until fd buf sub =
  Dggt_util.Strutil.contains_sub ~sub (Buffer.contents buf)
  ||
  let chunk = Bytes.create 256 in
  let n = Unix.read fd chunk 0 (Bytes.length chunk) in
  n > 0
  && begin
    Buffer.add_subbytes buf chunk 0 n;
    read_until fd buf sub
  end

(* Three keep-alive connections held open and idle and a stream held
   running each keep a thread busy; a further connection is still
   accepted and answered, because a thread that takes a connection
   starts an acceptor when no other waits in accept(). *)
let test_httpd_liveness () =
  with_httpd (fun port release _ ->
      let addr = loopback port in
      let held = List.init 3 (fun _ -> connect addr) in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close held)
        (fun () ->
          List.iter
            (fun fd -> check_i "held connection answered" 200 (exchange fd "/ok"))
            held;
          check_i "fourth connection answered" 200 (fresh addr "/ok");
          let stream = connect addr in
          Fun.protect
            ~finally:(fun () -> Unix.close stream)
            (fun () ->
              let req = "GET /hold HTTP/1.1\r\nhost: localhost\r\n\r\n" in
              ignore (Unix.write_substring stream req 0 (String.length req));
              let buf = Buffer.create 256 in
              check_b "the stream started" true (read_until stream buf "held\n");
              check_i "connection during a stream answered" 200
                (fresh addr "/ok");
              Atomic.set release true;
              check_b "the stream completes" true
                (read_until stream buf "released\n\r\n0\r\n\r\n"))))

(* 300 fresh connections one after another, every other one a stream,
   each read until the server closes it, are served by the threads
   parked in accept(): once one is parked, a connection starts no
   thread. (A client that opens its next connection before the server
   has closed the last one can find every parked thread busy, and then
   a thread starts.) *)
let test_httpd_thread_reuse () =
  with_httpd (fun port _ served ->
      for _ = 1 to 150 do
        check_i "fixed response" 200 (fst (http ~port ~meth:"GET" ~path:"/ok" ()));
        check_b "streamed response" true
          (String.ends_with ~suffix:"two\n\r\n0\r\n\r\n"
             (send_raw ~port "GET /stream HTTP/1.1\r\nhost: localhost\r\n\r\n"))
      done;
      let n = served () in
      check_b
        (Printf.sprintf "%d threads served 300 connections" n)
        true
        (n <= 1 + idle_acceptors))

(* After 300 fresh connections one after another, every other one a
   stream, and five held at once: once the pool's workers have retired,
   the server keeps its pool's trimmer and at most [idle_acceptors]
   parked acceptors, and no other thread *)
let test_httpd_bounded_threads () =
  let base = settled_base () in
  with_server (fun srv ->
      let port = Serve.port srv in
      let body = {|{"query": "delete all numbers", "domain": "te", "k": 5}|} in
      for _ = 1 to 150 do
        check_i "healthz" 200 (fst (http ~port ~meth:"GET" ~path:"/healthz" ()));
        check_i "stream" 200
          (fst (http ~port ~meth:"POST" ~path:"/rank?stream=1" ~body ()))
      done;
      (* five connections at once take six threads; once they close, at
         most [idle_acceptors] of them stay *)
      let held = List.init 5 (fun _ -> connect (loopback port)) in
      List.iter (fun fd -> check_i "held" 200 (exchange fd "/healthz")) held;
      List.iter Unix.close held;
      let rec retired n =
        let _, m = http ~port ~meth:"GET" ~path:"/metrics" () in
        metric_value m "dggt_pool_workers_live" = Some 0
        || n > 0
           && begin
             Unix.sleepf 0.02;
             retired (n - 1)
           end
      in
      check_b "pool workers retired" true (retired 250);
      let k = Test_par.settled_threads () in
      check_b
        (Printf.sprintf "%d threads, at most %d" k (base + 1 + idle_acceptors))
        true
        (k <= base + 1 + idle_acceptors))

(* [Serve.stop] with acceptors parked and a keep-alive connection open
   and idle returns at once (a connection thread it missed would hold
   it for the 30 s idle timeout, a parked acceptor for ever), the
   connection reads EOF, every thread the server started is gone, and
   a Unix socket's path is unlinked. Over TCP and over a Unix socket,
   the transport of the router's workers. *)
let test_httpd_clean_stop ~unix () =
  let base = settled_base () in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dggt-test-httpd-%d.sock" (Unix.getpid ()))
  in
  let srv =
    Serve.create
      { boot_params with Serve.unix_socket = (if unix then Some path else None) }
  in
  let addr = if unix then Unix.ADDR_UNIX path else loopback (Serve.port srv) in
  let held = ref None in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop srv;
      Option.iter Unix.close !held)
    (fun () ->
      (* both domains built: [stop] has no boot job to wait for *)
      List.iter
        (fun d ->
          check_i (d ^ " built") 201
            (fresh ~meth:"POST"
               ~body:(J.to_string (J.Obj [ ("domain", J.Str d) ]))
               addr "/session"))
        [ "te"; "am" ];
      let fd = connect addr in
      held := Some fd;
      check_i "keep-alive answered" 200 (exchange fd "/healthz");
      let t0 = Unix.gettimeofday () in
      Serve.stop srv;
      let took = Unix.gettimeofday () -. t0 in
      check_b (Printf.sprintf "stop took %.3f s" took) true (took < 2.0);
      check_i "the held connection reads EOF" 0
        (Unix.read fd (Bytes.create 1) 0 1);
      check_b "socket path unlinked" false (unix && Sys.file_exists path);
      check_i "threads back at base" base (threads_down_to base))

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "cache lru order" `Quick test_cache_lru_order;
    Alcotest.test_case "cache counters" `Quick test_cache_counters;
    Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
    Alcotest.test_case "cache find_or_compute" `Quick test_cache_find_or_compute;
    Alcotest.test_case "pool bounded queue" `Quick test_pool_bounded_queue;
    Alcotest.test_case "pool deadline drop" `Quick test_pool_deadline;
    Alcotest.test_case "pool trimmer parks and resumes" `Quick test_pool_trimmer;
    Alcotest.test_case "e2e loopback service" `Quick test_e2e_synthesize;
    Alcotest.test_case "e2e sessions" `Quick test_e2e_sessions;
    Alcotest.test_case "e2e session reload 410" `Quick test_e2e_session_reload_410;
    Alcotest.test_case "stream rank sse" `Quick test_stream_rank;
    Alcotest.test_case "stream deadline error frame" `Quick test_stream_deadline;
    Alcotest.test_case "stream client disconnect" `Quick test_stream_disconnect;
    Alcotest.test_case "stream abort records its trace" `Quick
      test_stream_abort_trace;
    Alcotest.test_case "stream session query" `Quick test_stream_session;
    Alcotest.test_case "version advertises streaming" `Quick test_version_streaming;
    Alcotest.test_case "synthesize k>1 is one ranked run" `Quick
      test_synthesize_ranked_once;
    Alcotest.test_case "rank after synthesize k>1 is a cache hit" `Quick
      test_rank_after_synthesize_cached;
    Alcotest.test_case "routes share outcome accounting" `Quick
      test_outcome_accounting;
    Alcotest.test_case "ivar await wakes on another domain's fill" `Quick
      test_ivar_cross_domain;
    Alcotest.test_case "boot: both domains answer like the engine" `Quick
      test_boot_answers;
    Alcotest.test_case "boot: /domains and /version list building entries"
      `Quick test_boot_listing;
    Alcotest.test_case "boot: stop right after create joins the workers"
      `Quick test_boot_stop;
    Alcotest.test_case "httpd: a dribbled request answers like a whole one"
      `Quick test_dribbled_request;
    Alcotest.test_case "pool: idle workers retire, /metrics reports them"
      `Quick test_pool_metrics;
    Alcotest.test_case "httpd: a busy server still accepts" `Quick
      test_httpd_liveness;
    Alcotest.test_case "httpd: parked threads serve fresh connections" `Quick
      test_httpd_thread_reuse;
    Alcotest.test_case "httpd: fresh connections leave threads bounded" `Quick
      test_httpd_bounded_threads;
    Alcotest.test_case "httpd: clean stop over TCP" `Quick
      (test_httpd_clean_stop ~unix:false);
    Alcotest.test_case "httpd: clean stop over a Unix socket" `Quick
      (test_httpd_clean_stop ~unix:true);
  ]
