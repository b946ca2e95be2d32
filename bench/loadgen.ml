(* Closed-loop load generator for `dggt serve`.

   N client threads each issue M POST /synthesize requests over a mixed
   TextEditing + ASTMatcher query set (round-robin over a configurable
   number of distinct queries, so large M gives a duplicate-heavy
   workload that exercises the whole-query cache). Every response is
   checked against a locally computed `Engine.respond` baseline, so
   the run reports *correctness under concurrency*, not just speed.

     dune exec bench/loadgen.exe --                      # in-process server
     dune exec bench/loadgen.exe -- --clients 8 --requests 50 --workers 4
     dune exec bench/loadgen.exe -- --port 8080          # external server

   Prints throughput, the latency histogram (p50/p90/p99), per-outcome
   counts, the measured whole-query cache hit rate, and the number of
   wrong answers (must be zero). *)

open Dggt_core
module Serve = Dggt_server.Serve
module J = Dggt_server.Jsonio
module Hist = Dggt_server.Smetrics.Hist

(* ------------------------------------------------------------------ *)
(* flags                                                              *)
(* ------------------------------------------------------------------ *)

let clients = ref 4
let requests = ref 30
let workers = ref 0
let queue = ref 64
let cache_size = ref 512
let timeout_s = ref 10.0
let port = ref 0 (* 0 = spawn an in-process server *)
let host = ref "127.0.0.1"
let distinct = ref 12
let engine = ref "dggt"
let print_metrics = ref false
let sessions = ref 0
let warm_store = ref "" (* "" = no store *)
let shards = ref 0 (* 0 = single in-process server *)

let spec =
  [
    ("--clients", Arg.Set_int clients, "N concurrent client threads (4)");
    ("--requests", Arg.Set_int requests, "M requests per client (30)");
    ("--workers", Arg.Set_int workers, "server worker pool size, in-process mode (ncores)");
    ("--queue", Arg.Set_int queue, "server queue bound, in-process mode (64)");
    ("--cache-size", Arg.Set_int cache_size, "server whole-query LRU size, in-process mode (512)");
    ("--timeout", Arg.Set_float timeout_s, "per-request engine budget, seconds (10)");
    ("--port", Arg.Set_int port, "target an already-running server on this port");
    ("--host", Arg.Set_string host, "server host (127.0.0.1)");
    ("--distinct", Arg.Set_int distinct, "distinct queries in the mix (12)");
    ("--engine", Arg.Set_string engine, "dggt|hisyn (dggt)");
    ("--print-metrics", Arg.Set print_metrics, "dump GET /metrics at the end");
    ( "--sessions",
      Arg.Set_int sessions,
      "N session clients replaying edit sequences against POST /session \
       (replaces the /synthesize workload)" );
    ( "--warm-store",
      Arg.Set_string warm_store,
      "DIR warm-start store for the in-process server; run twice with the \
       same DIR and the second run serves warm-loaded entries — every \
       answer is still checked against the local baselines" );
    ( "--shards",
      Arg.Set_int shards,
      "N in-process mode boots an N-shard router (worker processes behind \
       a front that places each query by a hash of its text) instead of a \
       single server; combines with \
       --sessions to drive sticky and stateless traffic together, all \
       still baseline-checked" );
  ]

(* ------------------------------------------------------------------ *)
(* tiny HTTP/1.1 client (keep-alive, one request at a time)           *)
(* ------------------------------------------------------------------ *)

let connect () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string !host, !port));
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let read_response fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let header_end () =
    let s = Buffer.contents buf in
    let rec go i =
      if i + 3 >= String.length s then None
      else if
        s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then Some i
      else go (i + 1)
    in
    go 0
  in
  let rec fill () =
    match header_end () with
    | Some i -> i
    | None ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "connection closed mid-response";
        Buffer.add_subbytes buf chunk 0 n;
        fill ()
  in
  let hdr_end = fill () in
  let all = Buffer.contents buf in
  let head = String.sub all 0 hdr_end in
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith "bad status line"
  in
  let clen =
    String.split_on_char '\n' head
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i
             when String.lowercase_ascii (String.trim (String.sub l 0 i))
                  = "content-length" ->
               int_of_string_opt
                 (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
    |> Option.value ~default:0
  in
  let body = Buffer.create clen in
  Buffer.add_string body
    (String.sub all (hdr_end + 4) (String.length all - hdr_end - 4));
  while Buffer.length body < clen do
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n = 0 then failwith "connection closed mid-body";
    Buffer.add_subbytes buf chunk 0 n;
    Buffer.add_subbytes body chunk 0 n
  done;
  (status, String.sub (Buffer.contents body) 0 clen)

let post fd path body =
  write_all fd
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nhost: %s\r\ncontent-type: application/json\r\n\
        content-length: %d\r\n\r\n%s"
       path !host (String.length body) body);
  read_response fd

let get fd path =
  write_all fd (Printf.sprintf "GET %s HTTP/1.1\r\nhost: %s\r\n\r\n" path !host);
  read_response fd

(* ------------------------------------------------------------------ *)
(* workload                                                           *)
(* ------------------------------------------------------------------ *)

type item = { domain : string; text : string; expected_code : string option }

(* the distinct queries: the first non-hard ones of both domains, two
   TextEditing to one ASTMatcher; each with the engine session its local
   baselines run on *)
let mix () =
  let n_am = max 1 (!distinct / 3) in
  let n_te = max 1 (!distinct - n_am) in
  let alg = if !engine = "hisyn" then Engine.Hisyn_alg else Engine.Dggt_alg in
  List.concat_map
    (fun ((d : Dggt_domains.Domain.t), n) ->
      let ses = Harness.session ~alg ~timeout_s:!timeout_s d in
      List.map
        (fun (q : Dggt_domains.Domain.query) ->
          (d.Dggt_domains.Domain.name, ses, q.Dggt_domains.Domain.text))
        (Harness.queries ~skip_hard:true (Some n) d))
    [ (Dggt_domains.Text_editing.domain, n_te); (Dggt_domains.Astmatcher.domain, n_am) ]

let baseline ses text = (Harness.respond ses Engine.Plain text).Engine.code

let build_mix () =
  let raw = mix () in
  Printf.printf "computing local baselines for %d distinct queries...\n%!"
    (List.length raw);
  List.map
    (fun (domain, ses, text) -> { domain; text; expected_code = baseline ses text })
    raw

(* --- session-mode workload: edit sequences with per-revision baselines *)

type sitem = {
  s_domain : string;
  (* (revision text, locally synthesized expected code) in typing order *)
  s_revisions : (string * string option) list;
}

let build_session_mix () =
  let raw = mix () in
  Printf.printf "computing per-revision baselines for %d edit sequences...\n%!"
    (List.length raw);
  List.map
    (fun (domain, ses, text) ->
      {
        s_domain = domain;
        s_revisions =
          List.map
            (fun (r, _) -> (r, baseline ses r))
            (Harness.edit_script ~depth:3 text);
      })
    raw

(* ------------------------------------------------------------------ *)
(* shared result tallies                                              *)
(* ------------------------------------------------------------------ *)

type tally = {
  mu : Mutex.t;
  hist : Hist.t;
  mutable ok : int;
  mutable cached : int;
  mutable failed : int;
  mutable rejected : int;
  mutable expired : int;
  mutable errors : int;
  mutable wrong : int;
  mutable indeterminate : int;
  mutable splices : int;  (* session mode: revisions answered by a splice *)
  mutable gone : int;     (* session mode: 410s (expired/reload-stranded) *)
}

let tally () =
  {
    mu = Mutex.create ();
    hist = Hist.create ();
    ok = 0;
    cached = 0;
    failed = 0;
    rejected = 0;
    expired = 0;
    errors = 0;
    wrong = 0;
    indeterminate = 0;
    splices = 0;
    gone = 0;
  }

let record t f =
  Mutex.lock t.mu;
  f t;
  Mutex.unlock t.mu

let client_loop tally items id =
  let n_items = Array.length items in
  let fd = ref (connect ()) in
  let reconnect () =
    (try Unix.close !fd with Unix.Unix_error _ -> ());
    fd := connect ()
  in
  for i = 0 to !requests - 1 do
    let item = items.((id + i) mod n_items) in
    let body =
      J.to_string
        (J.Obj
           [
             ("query", J.Str item.text);
             ("domain", J.Str item.domain);
             ("engine", J.Str !engine);
             ("timeout", J.Num !timeout_s);
           ])
    in
    let t0 = Unix.gettimeofday () in
    match
      try post !fd "/synthesize" body
      with _ ->
        (* server may have closed an idle keep-alive connection *)
        reconnect ();
        post !fd "/synthesize" body
    with
    | exception _ -> record tally (fun t -> t.errors <- t.errors + 1)
    | status, resp_body ->
        let dt = Unix.gettimeofday () -. t0 in
        record tally (fun t ->
            Hist.observe t.hist dt;
            match status with
            | 200 -> (
                match J.of_string resp_body with
                | Error _ -> t.errors <- t.errors + 1
                | Ok j ->
                    let code = J.str_field "code" j in
                    let cached =
                      Option.value (J.bool_field "cached" j) ~default:false
                    in
                    let timed_out =
                      Option.value (J.bool_field "timed_out" j) ~default:false
                    in
                    if cached then t.cached <- t.cached + 1
                    else if code <> None then t.ok <- t.ok + 1
                    else t.failed <- t.failed + 1;
                    (* correctness vs the single-shot baseline *)
                    if timed_out then t.indeterminate <- t.indeterminate + 1
                    else if code <> item.expected_code then
                      t.wrong <- t.wrong + 1)
            | 503 -> t.rejected <- t.rejected + 1
            | 504 -> t.expired <- t.expired + 1
            | _ -> t.errors <- t.errors + 1)
  done;
  try Unix.close !fd with Unix.Unix_error _ -> ()

(* one session client: per iteration, open a session, replay one edit
   sequence revision by revision (checking each answer against the local
   baseline), then delete the session *)
let session_client_loop tally items id =
  let n_items = Array.length items in
  let fd = ref (connect ()) in
  let reconnect () =
    (try Unix.close !fd with Unix.Unix_error _ -> ());
    fd := connect ()
  in
  let post_retry path body =
    try post !fd path body
    with _ ->
      reconnect ();
      post !fd path body
  in
  let delete path =
    write_all !fd
      (Printf.sprintf "DELETE %s HTTP/1.1\r\nhost: %s\r\n\r\n" path !host);
    read_response !fd
  in
  for i = 0 to !requests - 1 do
    let item = items.((id + i) mod n_items) in
    match
      post_retry "/session"
        (J.to_string
           (J.Obj
              [ ("domain", J.Str item.s_domain); ("engine", J.Str !engine) ]))
    with
    | exception _ -> record tally (fun t -> t.errors <- t.errors + 1)
    | 201, create_body -> (
        match
          Result.bind (J.of_string create_body) (fun j ->
              Option.to_result ~none:"no session id" (J.str_field "session" j))
        with
        | Error _ -> record tally (fun t -> t.errors <- t.errors + 1)
        | Ok sid ->
            let qpath = Printf.sprintf "/session/%s/query" sid in
            List.iter
              (fun (text, expected_code) ->
                let t0 = Unix.gettimeofday () in
                match
                  post_retry qpath
                    (J.to_string (J.Obj [ ("query", J.Str text) ]))
                with
                | exception _ ->
                    record tally (fun t -> t.errors <- t.errors + 1)
                | status, resp_body ->
                    let dt = Unix.gettimeofday () -. t0 in
                    record tally (fun t ->
                        Hist.observe t.hist dt;
                        match status with
                        | 200 -> (
                            match J.of_string resp_body with
                            | Error _ -> t.errors <- t.errors + 1
                            | Ok j ->
                                let code = J.str_field "code" j in
                                let timed_out =
                                  Option.value (J.bool_field "timed_out" j)
                                    ~default:false
                                in
                                let splice =
                                  match J.member "reuse" j with
                                  | Some r ->
                                      Option.value (J.bool_field "splice" r)
                                        ~default:false
                                  | None -> false
                                in
                                if splice then t.splices <- t.splices + 1;
                                if code <> None then t.ok <- t.ok + 1
                                else t.failed <- t.failed + 1;
                                if timed_out then
                                  t.indeterminate <- t.indeterminate + 1
                                else if code <> expected_code then
                                  t.wrong <- t.wrong + 1)
                        | 410 -> t.gone <- t.gone + 1
                        | 503 -> t.rejected <- t.rejected + 1
                        | 504 -> t.expired <- t.expired + 1
                        | _ -> t.errors <- t.errors + 1))
              item.s_revisions;
            (match delete ("/session/" ^ sid) with
            | exception _ -> reconnect ()
            | _ -> ()))
    | _, _ -> record tally (fun t -> t.errors <- t.errors + 1)
  done;
  try Unix.close !fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen [options]";
  let session_mode = !sessions > 0 in
  (* --shards composes with --sessions: a sharded run drives sticky
     (session) and stateless (/synthesize) traffic at the same time,
     exercising both routing paths through the front router *)
  let mixed = !shards > 0 && session_mode in
  let stateless_mode = (not session_mode) || mixed in
  let sitems =
    if session_mode then Array.of_list (build_session_mix ()) else [||]
  in
  let items = if stateless_mode then Array.of_list (build_mix ()) else [||] in
  let server =
    if !port = 0 then begin
      if !shards > 0 then begin
        let module Router = Dggt_shard.Router in
        let exe = Harness.worker_exe () in
        let r =
          Router.create
            {
              Router.addr = !host;
              port = 0;
              shards = !shards;
              exe;
              worker_args =
                (if !workers > 0 then
                   [ "--workers"; string_of_int !workers ]
                 else [])
                @ [
                    "--queue"; string_of_int !queue;
                    "--cache-size"; string_of_int !cache_size;
                    "--timeout"; Printf.sprintf "%g" !timeout_s;
                  ];
              store_dir =
                (if !warm_store = "" then None else Some !warm_store);
              proxy_timeout_s = Float.max 30.0 (!timeout_s *. 2.0);
            }
        in
        port := Router.port r;
        Printf.printf "in-process %d-shard router on port %d\n%!" !shards
          !port;
        Some (`Router r)
      end
      else begin
        let s, p =
          Harness.serve ~timeout_s:!timeout_s
            ~tweak:(fun p ->
              {
                p with
                Serve.addr = !host;
                workers = !workers;
                queue_capacity = !queue;
                cache_size = !cache_size;
                store_dir = (if !warm_store = "" then None else Some !warm_store);
              })
            ()
        in
        port := p;
        Printf.printf "in-process server on port %d\n%!" !port;
        Some (`Single s)
      end
    end
    else None
  in
  let t = tally () in
  let wall0 = Unix.gettimeofday () in
  let threads =
    (if session_mode then
       List.init !sessions (fun id ->
           Thread.create (fun () -> session_client_loop t sitems id) ())
     else [])
    @
    if stateless_mode then
      List.init !clients (fun id ->
          Thread.create (fun () -> client_loop t items id) ())
    else []
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. wall0 in
  let answered = t.ok + t.cached + t.failed in
  let total =
    if session_mode then answered + t.rejected + t.expired + t.gone + t.errors
    else !clients * !requests
  in
  if mixed then
    Printf.printf
      "\n%d outcomes (%d session clients + %d stateless clients, %d \
       iterations each), %.2f s wall\n"
      total !sessions !clients !requests wall
  else if session_mode then
    Printf.printf
      "\n%d session revisions (%d session clients x %d sequences), %.2f s \
       wall\n"
      total !sessions !requests wall
  else
    Printf.printf "\n%d requests (%d clients x %d), %.2f s wall\n" total
      !clients !requests wall;
  Printf.printf "throughput: %.1f req/s\n" (float_of_int total /. wall);
  Printf.printf "latency: p50 %.1f ms, p90 %.1f ms, p99 %.1f ms, max %.1f ms\n"
    (1000. *. Hist.quantile t.hist 0.5)
    (1000. *. Hist.quantile t.hist 0.9)
    (1000. *. Hist.quantile t.hist 0.99)
    (1000. *. Hist.max_value t.hist);
  Printf.printf
    "outcomes: %d ok, %d cached, %d failed, %d rejected (503), %d expired \
     (504), %d transport errors\n"
    t.ok t.cached t.failed t.rejected t.expired t.errors;
  if session_mode then
    Printf.printf "sessions: %d spliced revisions, %d gone (410)\n" t.splices
      t.gone
  else if answered > 0 then
    Printf.printf "whole-query cache hit rate: %.1f%% of answered requests\n"
      (100. *. float_of_int t.cached /. float_of_int answered);
  Printf.printf "correctness: %d wrong answers, %d indeterminate (timeout)\n"
    t.wrong t.indeterminate;
  if !print_metrics then begin
    let fd = connect () in
    (match get fd "/metrics" with
    | 200, body -> print_string body
    | s, _ -> Printf.printf "GET /metrics -> %d\n" s);
    try Unix.close fd with Unix.Unix_error _ -> ()
  end;
  (match server with
  | Some (`Single s) -> Serve.stop s
  | Some (`Router r) -> Dggt_shard.Router.stop r
  | None -> ());
  if t.wrong > 0 then Harness.fail "%d wrong answers" t.wrong;
  Harness.finish ()
