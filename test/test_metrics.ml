(* The /metrics exposition, pinned: one fixed traffic script runs against
   an in-process server with a warm store and against a 2-shard router,
   and every series listed in [metrics_series.txt] must still be
   exported, with its recorded value where one is recorded. Both texts
   must also be well-formed: one HELP and one TYPE line per family, both
   before its samples, and no series twice. *)

open Dggt_server
module J = Jsonio
module Router = Dggt_shard.Router

let http = Test_server.http

(* ------------------------------------------------------------------ *)
(* the traffic script                                                 *)
(* ------------------------------------------------------------------ *)

let post ~port path fields =
  let body = J.Obj (List.map (fun (k, v) -> (k, J.Str v)) fields) in
  http ~port ~meth:"POST" ~path ~body:(J.to_string body) ()

let expect what want (st, body) =
  if st <> want then
    Alcotest.failf "%s: status %d, want %d (%s)" what st want body;
  body

(* A /synthesize, a repeated /rank, a live stream, a stream replayed
   from the cache, a session with two revisions (the second splices)
   and a bad request. No /rank follows a /synthesize of the same query
   and k, so how the whole-query cache is keyed changes no answer. *)
let traffic port =
  let te = ("domain", "te") in
  let q1 = "delete all numbers"
  and q2 = "insert \"> \" at the start of each line"
  and q3 = "Append \":\" in every line containing numerals." in
  let ask what path q = expect what 200 (post ~port path [ ("query", q); te ]) in
  ignore (ask "synthesize" "/synthesize" q1);
  ignore (ask "rank" "/rank" q2);
  let again = ask "rank again" "/rank" q2 in
  if J.bool_field "cached" (Result.get_ok (J.of_string again)) <> Some true
  then Alcotest.fail "the repeated /rank was not a cache hit";
  ignore (ask "stream" "/rank?stream=1" q3);
  ignore (ask "replay" "/rank?stream=1" q2);
  let sid =
    expect "session" 201 (post ~port "/session" [ te ])
    |> J.of_string |> Result.get_ok |> J.str_field "session" |> Option.get
  in
  let qpath = "/session/" ^ sid ^ "/query" in
  let q4 = "delete all numbers in every line" in
  ignore (expect "revision 1" 200 (post ~port qpath [ ("query", q4) ]));
  ignore (expect "revision 2" 200 (post ~port qpath [ ("query", q4 ^ " .") ]));
  ignore
    (expect "bad request" 400
       (http ~port ~meth:"POST" ~path:"/synthesize" ~body:"{oops" ()))

let scrape port =
  expect "metrics" 200 (http ~port ~meth:"GET" ~path:"/metrics" ())

(* the boot job compiles every domain after the server listens: wait
   until [n] compile rows are exported, so no series depends on how far
   the boot got *)
let await_compiles port n =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rows () =
    List.length
      (List.filter
         (fun l -> String.starts_with ~prefix:"dggt_autom_compiles_total{" l)
         (String.split_on_char '\n' (scrape port)))
  in
  while rows () < n do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "fewer than %d automaton compiles after 60 s" n;
    Thread.delay 0.02
  done

(* ------------------------------------------------------------------ *)
(* reading an exposition                                              *)
(* ------------------------------------------------------------------ *)

type sample = { name : string; labels : string; value : string }

(* "name{labels} value" or "name value"; comments and blanks are None *)
let parse_sample line =
  if line = "" || line.[0] = '#' then None
  else
    let from s i = String.sub s i (String.length s - i) in
    let head, value =
      match String.rindex_opt line ' ' with
      | Some i -> (String.sub line 0 i, from line (i + 1))
      | None -> Alcotest.failf "sample without a value: %S" line
    in
    match String.index_opt head '{' with
    | Some i -> Some { name = String.sub head 0 i; labels = from head i; value }
    | None -> Some { name = head; labels = ""; value }

(* [# HELP name ...] / [# TYPE name kind] as (kind, name, rest) *)
let parse_comment line =
  match String.split_on_char ' ' line with
  | "#" :: (("HELP" | "TYPE") as kind) :: name :: rest ->
      Some (kind, name, String.concat " " rest)
  | _ -> None

(* every family's declared type *)
let types text =
  List.filter_map
    (fun l ->
      match parse_comment l with Some ("TYPE", n, k) -> Some (n, k) | _ -> None)
    (String.split_on_char '\n' text)

(* the family a sample belongs to: a histogram's _bucket/_sum/_count
   samples belong to the histogram *)
let family_of types name =
  let base suffix =
    if String.ends_with ~suffix name then
      let b = String.sub name 0 (String.length name - String.length suffix) in
      if List.assoc_opt b types = Some "histogram" then Some b else None
    else None
  in
  match List.find_map base [ "_bucket"; "_sum"; "_count" ] with
  | Some b -> b
  | None -> name

(* Counters whose value depends on the clock, on the collector, or on
   how the caches are laid out: the golden file lists them by name. *)
let value_free name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [
      "dggt_gc_"; "dggt_pool_worker_"; "dggt_cache_";
      "dggt_store_spills_total"; "dggt_shard_heartbeat_failures_total";
    ]

(* The router tags every worker sample with its shard. Which worker
   served a request is placement, not exposition: the shard label reads
   "*" and the samples it merges are summed. *)
let unshard labels =
  let b = Buffer.create (String.length labels) in
  let n = String.length labels in
  let rec go i =
    if i < n then
      if i + 7 <= n && String.sub labels i 7 = "shard=\"" then begin
        Buffer.add_string b "shard=\"*\"";
        let j = String.index_from labels (i + 7) '"' in
        go (j + 1)
      end
      else begin
        Buffer.add_char b labels.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* The text as golden lines, "<series>" or "<series> <value>", sorted. *)
let series text =
  let types = types text in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match parse_sample line with
      | None -> ()
      | Some s ->
          let key = s.name ^ unshard s.labels in
          let counted =
            List.assoc_opt (family_of types s.name) types = Some "counter"
            && not (value_free s.name)
          in
          let v = if counted then float_of_string_opt s.value else None in
          let prev = Option.join (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key
            (match (prev, v) with Some a, Some b -> Some (a +. b) | _, v -> v))
    (String.split_on_char '\n' text);
  Hashtbl.fold
    (fun k v acc ->
      (match v with
      | Some v -> Printf.sprintf "%s %.17g" k v
      | None -> k)
      :: acc)
    tbl []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* the checks                                                         *)
(* ------------------------------------------------------------------ *)

let golden_file () =
  match Test_digest.pinned_file "metrics_series.txt" with
  | Some p -> p
  | None -> Alcotest.fail "metrics_series.txt not found"

(* the golden lines of one target ("server" or "router") *)
let golden target =
  Test_digest.read_lines (golden_file ())
  |> List.filter_map (fun l ->
         if l.[0] = '#' then None
         else
           match String.index_opt l ' ' with
           | Some i when String.sub l 0 i = target ->
               Some (String.sub l (i + 1) (String.length l - i - 1))
           | _ -> None)

(* every golden series is exported, with its golden value; the only
   series allowed to go are the retired rank cache's *)
let check_golden target text =
  let now = series text in
  let retired g =
    Dggt_util.Strutil.contains_sub ~sub:"cache=\"rank_cache\"" g
  in
  let missing =
    List.filter (fun g -> not (List.mem g now || retired g)) (golden target)
  in
  if missing <> [] then begin
    List.iter (fun l -> Printf.eprintf "%s %s\n" target l) now;
    Alcotest.failf
      "%s: %d golden series missing or changed, first %S (the current list \
       is on stderr)"
      target (List.length missing) (List.hd missing)
  end

(* one HELP and one TYPE per family, both before its first sample; no
   series twice *)
let check_well_formed target text =
  let lines = String.split_on_char '\n' text in
  let types = types text in
  let seen = Hashtbl.create 64 and samples = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match parse_comment line with
      | Some (kind, name, _) ->
          if Hashtbl.mem seen (kind, name) then
            Alcotest.failf "%s: %s %s appears twice" target kind name;
          Hashtbl.replace seen (kind, name) ()
      | None -> (
          match parse_sample line with
          | None -> ()
          | Some s ->
              let fam = family_of types s.name in
              if
                not
                  (Hashtbl.mem seen ("HELP", fam)
                  && Hashtbl.mem seen ("TYPE", fam))
              then
                Alcotest.failf "%s: sample %S before its family's HELP and TYPE"
                  target line;
              let key = s.name ^ s.labels in
              if Hashtbl.mem samples key then
                Alcotest.failf "%s: series %s appears twice" target key;
              Hashtbl.replace samples key ()))
    lines;
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem seen ("HELP", name)) then
        Alcotest.failf "%s: family %s has no HELP" target name)
    types

let check target text =
  check_golden target text;
  check_well_formed target text

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun n -> remove_tree (Filename.concat path n))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_server () =
  let store =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dggt-metrics-store-%d" (Unix.getpid ()))
  in
  remove_tree store;
  let srv =
    Serve.create
      {
        Serve.default_params with
        Serve.port = 0;
        workers = 1;
        queue_capacity = 8;
        cache_size = 32;
        store_dir = Some store;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop srv;
      remove_tree store)
    (fun () ->
      let port = Serve.port srv in
      await_compiles port 2;
      traffic port;
      check "server" (scrape port))

let test_router () =
  match Test_shard.cli_exe () with
  | None -> ()
  | Some exe ->
      let router =
        Router.create
          {
            Router.default_params with
            Router.port = 0;
            shards = 2;
            exe;
            worker_args =
              [ "--workers"; "1"; "--queue"; "16"; "--cache-size"; "64" ];
          }
      in
      Fun.protect
        ~finally:(fun () -> Router.stop router)
        (fun () ->
          let port = Router.port router in
          await_compiles port 4;
          traffic port;
          check "router" (scrape port))

let suite =
  [
    Alcotest.test_case "server exposition: golden series, well-formed" `Quick
      test_server;
    Alcotest.test_case "router exposition: golden series, well-formed" `Slow
      test_router;
  ]
