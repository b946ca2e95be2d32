(* lib/shard: request placement, the metrics merger, and an end-to-end
   pass over a live router with real worker processes. *)

module Promerge = Dggt_shard.Promerge
module Router = Dggt_shard.Router
module Supervisor = Dggt_shard.Supervisor
module J = Dggt_server.Jsonio

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* placement                                                          *)
(* ------------------------------------------------------------------ *)

let keys total = List.init total (Printf.sprintf "key-%d")

(* A key's slot is a function of the key and the slot count alone, and
   every key gets a slot in range. *)
let test_placement_deterministic () =
  List.iter
    (fun n ->
      List.iter
        (fun k ->
          let s = Router.slot_of ~shards:n k in
          check_b "in range" true (s >= 0 && s < n);
          check_i "deterministic" s (Router.slot_of ~shards:n k))
        (keys 200))
    [ 1; 4; 7 ]

(* 1,000 keys spread over 4 slots with every slot holding at least a
   third of its even share. *)
let test_placement_spread () =
  let n = 4 and total = 1000 in
  let census = Array.make n 0 in
  List.iter
    (fun k ->
      let s = Router.slot_of ~shards:n k in
      census.(s) <- census.(s) + 1)
    (keys total);
  Array.iteri
    (fun slot c ->
      if c < total / n / 3 then
        Alcotest.failf "slot %d owns only %d of %d keys" slot c total)
    census

(* A stateless request is placed by its query text, so the two
   spellings of TextEditing send one query to one slot. *)
let test_placement_query_text () =
  let n = 4 in
  let q = "insert \"> \" at the start of each line" in
  let post domain =
    {
      Dggt_server.Httpd.meth = "POST";
      path = "/rank";
      query = [];
      headers = [];
      body = J.to_string (J.Obj [ ("query", J.Str q); ("domain", J.Str domain) ]);
    }
  in
  let slot req = Router.slot_of ~shards:n (Router.query_text req) in
  check_i "te and textediting land on one slot" (slot (post "te"))
    (slot (post "textediting"));
  let get =
    { (post "te") with meth = "GET"; body = ""; query = [ ("query", q) ] }
  in
  check_s "a GET's query text comes from its URL" q (Router.query_text get)

(* ------------------------------------------------------------------ *)
(* prometheus merge                                                   *)
(* ------------------------------------------------------------------ *)

let test_promerge_relabel () =
  check_s "labeled sample" "m{shard=\"3\",a=\"b\"} 1"
    (Promerge.relabel ~shard:3 "m{a=\"b\"} 1");
  check_s "bare sample" "m{shard=\"3\"} 2" (Promerge.relabel ~shard:3 "m 2");
  check_s "comments pass through" "# HELP m words"
    (Promerge.relabel ~shard:3 "# HELP m words")

let test_promerge_merge () =
  let w0 = "# HELP m words\n# TYPE m counter\nm{a=\"b\"} 1\n" in
  let w1 = "# HELP m words\n# TYPE m counter\nm{a=\"b\"} 5\n" in
  let merged = Promerge.merge [ (0, w0); (1, w1) ] ~extra:"router_up 1\n" in
  let lines =
    String.split_on_char '\n' merged |> List.filter (fun l -> l <> "")
  in
  let count p = List.length (List.filter p lines) in
  check_i "HELP deduped" 1 (count (fun l -> l = "# HELP m words"));
  check_i "TYPE deduped" 1 (count (fun l -> l = "# TYPE m counter"));
  check_i "both samples survive, relabeled" 1
    (count (fun l -> l = "m{shard=\"0\",a=\"b\"} 1"));
  check_i "second worker sample" 1
    (count (fun l -> l = "m{shard=\"1\",a=\"b\"} 5"));
  check_i "router extra appended verbatim" 1
    (count (fun l -> l = "router_up 1"))

(* ------------------------------------------------------------------ *)
(* end to end: a live router over real worker processes               *)
(* ------------------------------------------------------------------ *)

(* the dggt binary, resolved inside the same _build tree as this test
   runner (test/dune declares the dependency). The runner's cwd depends
   on how it was launched — `dune runtest` runs it in test/, `dune exec`
   where it was invoked — so try every plausible root. *)
let cli_exe () =
  let rel = Filename.concat "bin" "dggt_cli.exe" in
  let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let candidates =
    [
      abs
        (Filename.concat
           (Filename.dirname (Filename.dirname Sys.executable_name))
           rel);
      abs (Filename.concat Filename.parent_dir_name rel);
      abs (Filename.concat (Filename.concat "_build" "default") rel);
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> Some exe
  | None ->
      Printf.eprintf
        "test_shard: dggt_cli.exe not found near the runner; router \
         end-to-end coverage skipped (looked at %s)\n%!"
        (String.concat ", " candidates);
      None

let with_router f =
  match cli_exe () with
  | None -> () (* binary not built alongside the tests; nothing to drive *)
  | Some exe ->
      let router =
        Router.create
          {
            Router.default_params with
            Router.port = 0;
            shards = 2;
            exe;
            worker_args =
              [
                "--workers"; "1"; "--queue"; "16"; "--cache-size"; "64";
                "--timeout"; "10";
              ];
          }
      in
      Fun.protect ~finally:(fun () -> Router.stop router) (fun () -> f router)

(* "<uid>.w<slot>e<epoch>" -> slot *)
let slot_of_sid sid =
  match String.rindex_opt sid '.' with
  | None -> Alcotest.failf "session id %S carries no placement" sid
  | Some i -> (
      let suffix = String.sub sid (i + 1) (String.length sid - i - 1) in
      try Scanf.sscanf suffix "w%de%d" (fun slot _epoch -> slot)
      with Scanf.Scan_failure _ | Failure _ | End_of_file ->
        Alcotest.failf "unparseable placement suffix %S" suffix)

let await_respawn router slot ~min_respawns =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match Supervisor.find (Router.supervisor router) slot with
    | Some w
      when w.Supervisor.state = Supervisor.Healthy
           && w.Supervisor.respawns >= min_respawns ->
        ()
    | _ ->
        if Unix.gettimeofday () >= deadline then
          Alcotest.failf "slot %d did not respawn to healthy" slot
        else begin
          Thread.delay 0.05;
          go ()
        end
  in
  go ()

let test_router_end_to_end () =
  with_router (fun router ->
      let port = Router.port router in
      let http = Test_server.http in
      (* topology: /version names both workers with live pids *)
      let st, body = http ~port ~meth:"GET" ~path:"/version" () in
      check_i "version status" 200 st;
      let j = Result.get_ok (J.of_string body) in
      check_b "router role" true (J.str_field "role" j = Some "router");
      let workers =
        match J.member "workers" j with
        | Some (J.Arr ws) -> ws
        | _ -> Alcotest.fail "no workers array in /version"
      in
      check_i "two workers" 2 (List.length workers);
      List.iter
        (fun w ->
          check_b "live pid" true
            (match J.int_field "pid" w with Some p -> p > 0 | None -> false))
        workers;
      check_b "digests agree" true
        (J.bool_field "pack_digest_mismatch" j = Some false);
      (* stateless traffic reaches both domain homes *)
      let rank domain query =
        http ~port ~meth:"POST" ~path:"/rank"
          ~body:
            (J.to_string
               (J.Obj [ ("query", J.Str query); ("domain", J.Str domain) ]))
          ()
      in
      let st, body = rank "te" "insert \"> \" at the start of each line" in
      check_i "te rank via router" 200 st;
      check_b "te rank ok" true
        (J.bool_field "ok" (Result.get_ok (J.of_string body)) = Some true);
      let st, _ = rank "am" "find nodes of type functionDecl" in
      check_i "am rank via router" 200 st;
      (* sticky: the minted id encodes a slot this router really has *)
      let st, body =
        http ~port ~meth:"POST" ~path:"/session"
          ~body:(J.to_string (J.Obj [ ("domain", J.Str "te") ]))
          ()
      in
      check_i "session create" 201 st;
      let sid =
        Option.get (J.str_field "session" (Result.get_ok (J.of_string body)))
      in
      let slot = slot_of_sid sid in
      check_b "slot in range" true (slot = 0 || slot = 1);
      let qbody =
        J.to_string (J.Obj [ ("query", J.Str "delete all numbers") ])
      in
      let qpath = "/session/" ^ sid ^ "/query" in
      let st, _ = http ~port ~meth:"POST" ~path:qpath ~body:qbody () in
      check_i "session query routed to its worker" 200 st;
      (* a second query to the same id keeps working: same live worker *)
      let st, _ = http ~port ~meth:"POST" ~path:qpath ~body:qbody () in
      check_i "session query again" 200 st;
      (* kill the session's worker: after the respawn the old epoch is
         gone and the sticky request must answer 410, not silently land
         on a fresh worker that never heard of the session *)
      let pid =
        match Supervisor.find (Router.supervisor router) slot with
        | Some w -> w.Supervisor.pid
        | None -> Alcotest.failf "no worker behind slot %d" slot
      in
      Unix.kill pid Sys.sigkill;
      await_respawn router slot ~min_respawns:1;
      let st, _ = http ~port ~meth:"POST" ~path:qpath ~body:qbody () in
      check_i "replaced worker answers 410 Gone" 410 st;
      (* the respawn is visible in the merged exposition *)
      let _, metrics = http ~port ~meth:"GET" ~path:"/metrics" () in
      check_b "respawn counted" true
        (Dggt_util.Strutil.contains_sub
           ~sub:
             (Printf.sprintf "dggt_shard_respawns_total{shard=\"%d\"} 1" slot)
           metrics);
      check_b "sticky 410 counted" true
        (Dggt_util.Strutil.contains_sub ~sub:"dggt_shard_sticky_gone_total 1"
           metrics);
      (* a fresh session created after the respawn works again *)
      let st, body =
        http ~port ~meth:"POST" ~path:"/session"
          ~body:(J.to_string (J.Obj [ ("domain", J.Str "te") ]))
          ()
      in
      check_i "post-respawn session create" 201 st;
      let sid2 =
        Option.get (J.str_field "session" (Result.get_ok (J.of_string body)))
      in
      let st, _ =
        http ~port ~meth:"POST"
          ~path:("/session/" ^ sid2 ^ "/query")
          ~body:qbody ()
      in
      check_i "post-respawn session query" 200 st)

(* the router makes its workers' socket directory and takes it with it *)
let test_router_stop_removes_sockets_dir () =
  match cli_exe () with
  | None -> ()
  | Some exe ->
      let router =
        Router.create
          {
            Router.default_params with
            Router.port = 0;
            shards = 1;
            exe;
            worker_args = [ "--workers"; "1" ];
          }
      in
      let dir =
        match Supervisor.workers (Router.supervisor router) with
        | w :: _ -> Filename.dirname w.Supervisor.socket
        | [] -> Alcotest.fail "no worker slot"
      in
      check_b "sockets directory made" true (Sys.file_exists dir);
      Router.stop router;
      check_b "sockets directory removed" false (Sys.file_exists dir)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun n -> remove_tree (Filename.concat path n))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [dggt serve --shards 1 --store DIR --store-interval 0.2]: the worker
   spills on the interval the user set, not on the 60 s default *)
let test_cli_store_interval () =
  match cli_exe () with
  | None -> ()
  | Some exe ->
      let store =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "dggt-test-shard-store-%d" (Unix.getpid ()))
      in
      remove_tree store;
      let r, w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process exe
          [|
            exe; "serve"; "--port"; "0"; "--shards"; "1"; "--workers"; "1";
            "--store"; store; "--store-interval"; "0.2";
          |]
          Unix.stdin w Unix.stderr
      in
      Unix.close w;
      let out = Unix.in_channel_of_descr r in
      let spilled =
        Fun.protect
          ~finally:(fun () ->
            Unix.kill pid Sys.sigterm;
            ignore (Unix.waitpid [] pid);
            close_in out;
            remove_tree store)
          (fun () ->
            (* the router's startup line (its worker prints too): every
               worker is up and the router handles SIGTERM *)
            while
              not
                (Dggt_util.Strutil.contains_sub ~sub:"router on"
                   (input_line out))
            do
              ()
            done;
            let snapshot =
              List.fold_left Filename.concat store [ "shard-0"; "snapshot" ]
            in
            let deadline = Unix.gettimeofday () +. 20.0 in
            while
              (not (Sys.file_exists snapshot))
              && Unix.gettimeofday () < deadline
            do
              Thread.delay 0.05
            done;
            Sys.file_exists snapshot)
      in
      check_b "worker spilled before the default interval" true spilled;
      check_b "sockets directory removed" false
        (Sys.file_exists
           (Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "dggt-sh-%d-0" pid)))

(* poll [cond] every 5 ms until it holds (true) or [s] seconds pass *)
let await_until s cond =
  let deadline = Unix.gettimeofday () +. s in
  let rec go () =
    cond ()
    || Unix.gettimeofday () < deadline
       && begin
         Thread.delay 0.005;
         go ()
       end
  in
  go ()

(* pids of the processes whose command line names [sub] *)
let processes_naming sub =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some pid -> (
             match
               In_channel.with_open_bin
                 (Filename.concat (Filename.concat "/proc" d) "cmdline")
                 In_channel.input_all
             with
             | cmdline when Dggt_util.Strutil.contains_sub ~sub cmdline ->
                 Some pid
             | _ -> None
             | exception Sys_error _ -> None))

(* [dggt serve --shards 1 ARGS], its output discarded *)
let serve_one_shard exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      Unix.create_process exe
        (Array.of_list
           ([ exe; "serve"; "--shards"; "1"; "--workers"; "1" ] @ args))
        Unix.stdin null null)

let sockets_dir pid =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dggt-sh-%d-0" pid)

(* whether the router [pid] exits within 10 s (it is killed otherwise),
   then how many worker processes and whether its sockets directory
   outlived it; what did is killed and removed *)
let exit_and_remains pid =
  let exited =
    await_until 10.0 (fun () -> fst (Unix.waitpid [ Unix.WNOHANG ] pid) = pid)
  in
  if not exited then begin
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  end;
  let dir = sockets_dir pid in
  let left = processes_naming dir and dir_left = Sys.file_exists dir in
  List.iter
    (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
    left;
  remove_tree dir;
  (exited, List.length left, dir_left)

(* [dggt serve --shards 1] gets SIGTERM the moment its sockets directory
   exists: its worker is not even listening, so the router is still
   waiting for the fleet's first heartbeats and has printed no startup
   line. It must still stop the worker and remove the directory. *)
let test_cli_sigterm_at_startup () =
  match cli_exe () with
  | None -> ()
  | Some exe ->
      let pid = serve_one_shard exe [ "--port"; "0" ] in
      let made = await_until 20.0 (fun () -> Sys.file_exists (sockets_dir pid)) in
      Unix.kill pid Sys.sigterm;
      let exited, left, dir_left = exit_and_remains pid in
      check_b "sockets directory made" true made;
      check_b "router exited within 10 s" true exited;
      check_i "worker processes left" 0 left;
      check_b "sockets directory removed" false dir_left

(* [dggt serve --shards 1] on a client port another socket listens on
   fails, and stops its worker and removes its sockets directory first *)
let test_cli_port_taken () =
  match cli_exe () with
  | None -> ()
  | Some exe ->
      let taken = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close taken)
        (fun () ->
          Unix.bind taken (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          Unix.listen taken 1;
          let port =
            match Unix.getsockname taken with
            | Unix.ADDR_INET (_, p) -> p
            | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
          in
          let pid = serve_one_shard exe [ "--port"; string_of_int port ] in
          let exited, left, dir_left = exit_and_remains pid in
          check_b "router exited within 10 s" true exited;
          check_i "worker processes left" 0 left;
          check_b "sockets directory removed" false dir_left)

let suite =
  [
    Alcotest.test_case "placement: deterministic and total" `Quick
      test_placement_deterministic;
    Alcotest.test_case "placement: keys spread over all slots" `Quick
      test_placement_spread;
    Alcotest.test_case "placement: a request goes by its query" `Quick
      test_placement_query_text;
    Alcotest.test_case "promerge: relabel" `Quick test_promerge_relabel;
    Alcotest.test_case "promerge: merge dedups comments" `Quick
      test_promerge_merge;
    Alcotest.test_case "router: topology, routing, sticky 410" `Slow
      test_router_end_to_end;
    Alcotest.test_case "router: stop removes the sockets directory" `Slow
      test_router_stop_removes_sockets_dir;
    Alcotest.test_case "cli: shard workers get --store-interval" `Slow
      test_cli_store_interval;
    Alcotest.test_case "cli: SIGTERM during startup stops the workers" `Slow
      test_cli_sigterm_at_startup;
    Alcotest.test_case "cli: a taken port stops the workers" `Slow
      test_cli_port_taken;
  ]
