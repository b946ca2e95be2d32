(* Tests for the warm-start store: the snapshot file written and read by
   Dggt_server.Warmstore, and an end-to-end cold-boot / warm-boot
   exercise of `dggt serve --store`.

   The damage cases pin the refuse-and-boot-cold contract: every one
   runs the load a boot runs, which must never raise, must leave the
   caches untouched and must say why it refused. *)

module Warmstore = Dggt_server.Warmstore
module Cache = Dggt_server.Cache
module Engine = Dggt_core.Engine
module J = Dggt_server.Jsonio

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* scratch directories and byte surgery                               *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dggt-test-store-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  let clear () =
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir)
  in
  if Sys.file_exists dir then clear () else Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      try
        clear ();
        Unix.rmdir dir
      with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* the file a spill writes; its temp file adds ".tmp" *)
let snapshot dir = Filename.concat dir "snapshot"

let flip_byte path off =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
  write_file path (Bytes.to_string s)

(* offsets of the header line's four fields: schema, pack digest,
   payload MD5, payload length *)
let field_offsets s =
  let schema = String.index s '\n' + 1 in
  let next i = String.index_from s i ' ' + 1 in
  let pack = next schema in
  let md5 = next pack in
  (schema, pack, md5, next md5)

(* offset of [sub]'s first occurrence in [s] *)
let find_in s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.fail ("substring not found: " ^ sub)
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* caches and snapshots                                               *)
(* ------------------------------------------------------------------ *)

let outcome code =
  {
    Engine.expr = None;
    code = Some code;
    cgt_size = Some 2;
    ranked = [];
    time_s = 0.01;
    timed_out = false;
    failure = None;
    stats = Dggt_core.Stats.create ();
  }

let fresh_caches ?(capacity = 16) () =
  { Warmstore.q = Cache.create ~capacity; word = Cache.create ~capacity }

let q_key ~gen i =
  (gen, "TextEditing", "dggt", Printf.sprintf "query %d" i, Engine.Plain)

let spill_ok ?(generation = 1) ?(pack_digest = "none") dir caches =
  match Warmstore.spill dir ~generation ~pack_digest caches with
  | Ok r -> r
  | Error e -> Alcotest.fail ("spill: " ^ e)

(* a snapshot of one q_cache entry whose code is [code] *)
let spill_one ?pack_digest dir code =
  let c = fresh_caches () in
  Cache.add c.Warmstore.q (q_key ~gen:1 1) (outcome code);
  ignore (spill_ok ?pack_digest dir c)

let verdict_name = function
  | Warmstore.Absent -> "absent"
  | Warmstore.Loaded n -> Printf.sprintf "loaded %d" n
  | Warmstore.Skipped why -> "skipped: " ^ why
  | Warmstore.Rejected why -> "rejected: " ^ why

(* what a boot does with [dir]: the verdict, after checking that a
   refusal left the caches empty *)
let boot_load ?(pack_digest = "none") dir =
  let fresh = fresh_caches () in
  let v = Warmstore.load dir ~generation:2 ~pack_digest fresh in
  (match v with
  | Warmstore.Loaded _ -> ()
  | _ ->
      check_i
        ("nothing replayed when " ^ verdict_name v)
        0
        (Cache.length fresh.Warmstore.q + Cache.length fresh.Warmstore.word));
  (v, fresh)

let expect_rejected what dir =
  match fst (boot_load dir) with
  | Warmstore.Rejected _ -> (
      match Warmstore.inspect dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: inspect accepted a damaged snapshot" what)
  | v -> Alcotest.failf "%s: expected a rejection, got %s" what (verdict_name v)

(* ------------------------------------------------------------------ *)
(* the snapshot file                                                  *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_dir (fun dir ->
      check_b "no snapshot yet" true (fst (boot_load dir) = Warmstore.Absent);
      check_b "inspect: none" true (Warmstore.inspect dir = Ok None);
      let c = fresh_caches () in
      List.iter
        (fun i -> Cache.add c.Warmstore.q (q_key ~gen:1 i) (outcome "x"))
        [ 1; 2; 3 ];
      Cache.add c.Warmstore.q
        (1, "TextEditing", "dggt", "query 1", Engine.Ranked 5)
        (outcome "x");
      Cache.add c.Warmstore.word
        (1, "TextEditing", "delete", "VB")
        [ { Dggt_core.Word2api.api = "Delete"; score = 1.0 } ];
      let r = spill_ok ~pack_digest:"digest-A" dir c in
      check_i "entries spilled" 5 r.Warmstore.sp_entries;
      check_i "bytes spilled" r.Warmstore.sp_bytes
        (String.length (read_file (snapshot dir)));
      (match Warmstore.inspect dir with
      | Ok (Some s) ->
          check_i "bytes" r.Warmstore.sp_bytes s.Warmstore.bytes;
          check_i "schema" Warmstore.schema_version s.Warmstore.schema;
          check_s "pack digest" "digest-A" s.Warmstore.pack_digest;
          check_b "entries per cache" true
            (s.Warmstore.entries
            = [ ("q_cache", 4); ("word_cache", 1) ])
      | Ok None -> Alcotest.fail "inspect: snapshot missing"
      | Error e -> Alcotest.fail ("inspect: " ^ e));
      match fst (boot_load ~pack_digest:"digest-A" dir) with
      | Warmstore.Loaded n -> check_i "entries replayed" 5 n
      | v -> Alcotest.fail (verdict_name v))

(* a spill cut short before its rename leaves its temp file beside the
   previous snapshot: the load never reads it, and the next spill
   replaces it *)
let test_store_uncommitted_tail () =
  with_dir (fun dir ->
      spill_one dir "committed-answer";
      let good = read_file (snapshot dir) in
      write_file (snapshot dir ^ ".tmp")
        (String.sub good 0 (String.length good / 2));
      (match boot_load dir with
      | Warmstore.Loaded 1, fresh -> (
          match Cache.find fresh.Warmstore.q (q_key ~gen:2 1) with
          | Some o ->
              check_b "the good snapshot's answer" true
                (o.Engine.code = Some "committed-answer")
          | None -> Alcotest.fail "entry missing")
      | v, _ -> Alcotest.fail (verdict_name v));
      spill_one dir "next-answer";
      check_b "temp file gone after a spill" false
        (Sys.file_exists (snapshot dir ^ ".tmp")))

let test_store_truncated_log () =
  with_dir (fun dir ->
      spill_one dir "first-payload";
      let good = read_file (snapshot dir) in
      let eol = String.index good '\n' in
      (* cut inside the payload, inside the header line, inside the
         magic, and to nothing *)
      List.iter
        (fun keep ->
          write_file (snapshot dir) (String.sub good 0 keep);
          expect_rejected (Printf.sprintf "cut to %d bytes" keep) dir)
        [ String.length good - 5; eol + 10; 4; 0 ])

let test_store_flipped_header_byte () =
  with_dir (fun dir ->
      spill_one dir "p-one";
      let good = read_file (snapshot dir) in
      let schema, _, md5, length = field_offsets good in
      List.iter
        (fun (what, off) ->
          write_file (snapshot dir) good;
          flip_byte (snapshot dir) off;
          expect_rejected what dir)
        [
          ("magic", 0);
          ("schema field", schema);
          ("MD5 field", md5);
          ("length field", length);
          ("header line end", String.index_from good schema '\n');
        ])

let test_store_flipped_payload_byte () =
  with_dir (fun dir ->
      spill_one dir "victim-payload-xyz";
      let path = snapshot dir in
      flip_byte path (find_in (read_file path) "victim-payload-xyz");
      expect_rejected "payload byte" dir)

(* a snapshot of another payload layout is skipped whole, unread *)
let test_store_schema_bump () =
  with_dir (fun dir ->
      spill_one dir "old-layout";
      let good = read_file (snapshot dir) in
      let schema, pack, _, _ = field_offsets good in
      let other = Warmstore.schema_version + 1 in
      write_file (snapshot dir)
        (String.sub good 0 schema ^ string_of_int other ^ " "
        ^ String.sub good pack (String.length good - pack));
      (match fst (boot_load dir) with
      | Warmstore.Skipped _ -> ()
      | v -> Alcotest.fail (verdict_name v));
      match Warmstore.inspect dir with
      | Ok (Some s) ->
          check_i "schema reported" other s.Warmstore.schema;
          check_b "payload unread" true (s.Warmstore.entries = [])
      | _ -> Alcotest.fail "an intact snapshot of another schema is not damage")

(* ------------------------------------------------------------------ *)
(* warmstore: typed spill/load with the server's key discipline       *)
(* ------------------------------------------------------------------ *)

let test_warmstore_roundtrip () =
  with_dir (fun dir ->
      let caches = fresh_caches () in
      (* three entries, oldest first: load must reproduce this recency *)
      List.iter
        (fun i ->
          Cache.add caches.Warmstore.q (q_key ~gen:3 i)
            (outcome (Printf.sprintf "code%d" i)))
        [ 1; 2; 3 ];
      Cache.add caches.Warmstore.word
        (3, "TextEditing", "delete", "VB")
        [ { Dggt_core.Word2api.api = "Delete"; score = 1.0 } ];
      (* a late write under an older generation (a request that outlived
         a reload) is not the current packs' answer: it stays behind *)
      Cache.add caches.Warmstore.q (q_key ~gen:2 9) (outcome "stale");
      let r = spill_ok ~generation:3 dir caches in
      check_i "entries" 4 r.Warmstore.sp_entries;
      (* a restart: a different process-local generation, same content *)
      let fresh = fresh_caches () in
      (match Warmstore.load dir ~generation:9 ~pack_digest:"none" fresh with
      | Warmstore.Loaded n -> check_i "entries replayed" 4 n
      | v -> Alcotest.fail (verdict_name v));
      (* re-keyed under the booting generation, recency order intact *)
      check_b "recency preserved" true
        (Cache.keys_mru fresh.Warmstore.q
        = [ q_key ~gen:9 3; q_key ~gen:9 2; q_key ~gen:9 1 ]);
      (match Cache.find fresh.Warmstore.q (q_key ~gen:9 2) with
      | Some o -> check_b "value" true (o.Engine.code = Some "code2")
      | _ -> Alcotest.fail "warm q_cache entry missing");
      (match
         Cache.find fresh.Warmstore.word (9, "TextEditing", "delete", "VB")
       with
      | Some [ c ] -> check_s "candidate" "Delete" c.Dggt_core.Word2api.api
      | _ -> Alcotest.fail "warm word_cache entry missing");
      (* the old generation's keys do not exist *)
      check_b "old gen gone" true
        (Cache.find fresh.Warmstore.q (q_key ~gen:3 1) = None))

let test_warmstore_pack_digest_mismatch () =
  with_dir (fun dir ->
      spill_one ~pack_digest:"digest-A" dir "stale";
      (* the packs changed since the spill: nothing may be served *)
      match fst (boot_load ~pack_digest:"digest-B" dir) with
      | Warmstore.Skipped _ -> ()
      | v -> Alcotest.fail (verdict_name v))

(* the key covers the built-ins too: a snapshot spilled by a binary
   whose embedded TextEditing grammar differs, here by one comment line,
   is refused *)
let test_warmstore_builtin_grammar_change () =
  let module Registry = Dggt_pack.Domain_registry in
  let module Te = Dggt_domains.Te_pack in
  let registry grammar =
    Registry.create
      ~builtins:
        [
          Dggt_domains.Pack.builtin ~dir:"examples/packs/textediting"
            ~manifest:Te.domain_pack ~grammar ~doc:Te.api_doc
            ~queries:Te.queries_tsv;
        ]
      ()
  in
  let before = Registry.pack_digest (registry Te.grammar_bnf) in
  let after =
    Registry.pack_digest (registry (Te.grammar_bnf ^ "# edited\n"))
  in
  with_dir (fun dir ->
      spill_one ~pack_digest:before dir "old grammar";
      (match fst (boot_load ~pack_digest:before dir) with
      | Warmstore.Loaded 1 -> ()
      | v -> Alcotest.fail ("same texts: " ^ verdict_name v));
      match fst (boot_load ~pack_digest:after dir) with
      | Warmstore.Skipped _ -> ()
      | v -> Alcotest.fail ("edited grammar: " ^ verdict_name v))

(* every spill replaces the whole snapshot *)
let test_warmstore_newest_wins () =
  with_dir (fun dir ->
      let c1 = fresh_caches () in
      Cache.add c1.Warmstore.q (q_key ~gen:1 1) (outcome "old-answer");
      Cache.add c1.Warmstore.q (q_key ~gen:1 3) (outcome "dropped-later");
      ignore (spill_ok dir c1);
      let c2 = fresh_caches () in
      Cache.add c2.Warmstore.q (q_key ~gen:1 1) (outcome "new-answer");
      Cache.add c2.Warmstore.q (q_key ~gen:1 2) (outcome "second");
      ignore (spill_ok dir c2);
      match boot_load dir with
      | Warmstore.Loaded 2, fresh -> (
          check_b "first snapshot's entry gone" true
            (Cache.find fresh.Warmstore.q (q_key ~gen:2 3) = None);
          match Cache.find fresh.Warmstore.q (q_key ~gen:2 1) with
          | Some o ->
              check_b "newest value" true (o.Engine.code = Some "new-answer")
          | None -> Alcotest.fail "entry missing")
      | v, _ -> Alcotest.fail (verdict_name v))

(* a payload that passes the header, length and MD5 checks but is not a
   payload this build wrote *)
let test_warmstore_flipped_payload () =
  with_dir (fun dir ->
      let payload = "not-a-marshalled-payload" in
      write_file (snapshot dir)
        (Printf.sprintf "DGGT warm snapshot\n%d none %s %d\n%s"
           Warmstore.schema_version
           (Digest.to_hex (Digest.string payload))
           (String.length payload) payload);
      expect_rejected "foreign payload" dir)

(* ------------------------------------------------------------------ *)
(* end to end: dggt serve --store across a restart                    *)
(* ------------------------------------------------------------------ *)

module Serve = Dggt_server.Serve

let store_params dir =
  {
    Serve.default_params with
    Serve.port = 0;
    workers = 1;
    queue_capacity = 8;
    cache_size = 32;
    store_dir = Some dir;
    store_interval_s = 0.0;
  }

let synth_body = {|{"query":"delete all numbers in every line","domain":"te"}|}

(* the value of the first /metrics sample named [name] *)
let metric body name =
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; v ] when n = name -> int_of_string_opt v
         | _ -> None)

let check_store_metrics srv ~loaded ~skipped ~rejected =
  let _, body =
    Test_server.http ~port:(Serve.port srv) ~meth:"GET" ~path:"/metrics" ()
  in
  List.iter
    (fun (name, want) -> check_b name true (metric body name = Some want))
    [
      ("dggt_store_records_loaded_total", loaded);
      ("dggt_store_records_skipped_total", skipped);
      ("dggt_store_records_rejected_total", rejected);
    ]

(* POST the query; (cached, code) *)
let synthesize srv =
  let st, body =
    Test_server.http ~port:(Serve.port srv) ~meth:"POST" ~path:"/synthesize"
      ~body:synth_body ()
  in
  check_i "status" 200 st;
  let j = Result.get_ok (J.of_string body) in
  (J.bool_field "cached" j, Option.get (J.str_field "code" j))

(* exit code of `dggt store verify DIR`, when the binary is at hand *)
let verify_exit dir =
  Option.map
    (fun exe ->
      let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process exe [| exe; "store"; "verify"; dir |] Unix.stdin
          null null
      in
      Unix.close null;
      match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1)
    (Test_shard.cli_exe ())

let test_e2e_warm_boot () =
  with_dir (fun dir ->
      (* cold boot: compute, then shut down (spills the snapshot) *)
      let srv = Serve.create (store_params dir) in
      check_store_metrics srv ~loaded:0 ~skipped:0 ~rejected:0;
      let cached, code = synthesize srv in
      check_b "cold computes" true (cached = Some false);
      Serve.stop srv;
      (* warm boot: same store, new process-equivalent server *)
      let srv = Serve.create (store_params dir) in
      check_store_metrics srv ~loaded:1 ~skipped:0 ~rejected:0;
      let cached, warm_code = synthesize srv in
      check_b "warm first request hits" true (cached = Some true);
      check_s "byte-identical code" code warm_code;
      Serve.stop srv)

let test_e2e_corrupt_store_boots () =
  with_dir (fun dir ->
      let srv = Serve.create (store_params dir) in
      let _, code = synthesize srv in
      Serve.stop srv;
      Option.iter (check_i "verify passes a good snapshot" 0) (verify_exit dir);
      (* wreck the payload digest: the whole snapshot is refused *)
      let _, _, md5, _ = field_offsets (read_file (snapshot dir)) in
      flip_byte (snapshot dir) md5;
      Option.iter
        (fun c -> check_b "verify fails a damaged one" true (c <> 0))
        (verify_exit dir);
      let srv = Serve.create (store_params dir) in
      check_store_metrics srv ~loaded:0 ~skipped:0 ~rejected:1;
      let cached, warm_code = synthesize srv in
      (* nothing warm was trusted: the request recomputes... *)
      check_b "recomputed" true (cached = Some false);
      (* ...and recomputation reproduces the answer *)
      check_s "same code" code warm_code;
      Serve.stop srv)

(* the record log an older build kept (store.log + store.idx) is not
   read: the server boots cold and writes its own snapshot beside it *)
let test_e2e_old_store_log () =
  with_dir (fun dir ->
      write_file (Filename.concat dir "store.log") "DGGTSTORE1\nREC1\000\000";
      write_file (Filename.concat dir "store.idx") "DGGTIDX1\n16\n1\n";
      let srv = Serve.create (store_params dir) in
      check_store_metrics srv ~loaded:0 ~skipped:0 ~rejected:0;
      let cached, _ = synthesize srv in
      check_b "cold" true (cached = Some false);
      Serve.stop srv;
      check_b "snapshot written" true (Sys.file_exists (snapshot dir)))

let suite =
  [
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "uncommitted tail ignored" `Quick
      test_store_uncommitted_tail;
    Alcotest.test_case "truncated log" `Quick test_store_truncated_log;
    Alcotest.test_case "flipped payload byte" `Quick
      test_store_flipped_payload_byte;
    Alcotest.test_case "flipped header byte" `Quick
      test_store_flipped_header_byte;
    Alcotest.test_case "schema bump skips" `Quick test_store_schema_bump;
    Alcotest.test_case "warmstore roundtrip + re-key" `Quick
      test_warmstore_roundtrip;
    Alcotest.test_case "pack digest mismatch" `Quick
      test_warmstore_pack_digest_mismatch;
    Alcotest.test_case "newest snapshot wins" `Quick
      test_warmstore_newest_wins;
    Alcotest.test_case "corrupt payload rejected" `Quick
      test_warmstore_flipped_payload;
    Alcotest.test_case "e2e warm boot" `Quick test_e2e_warm_boot;
    Alcotest.test_case "e2e corrupt store boots" `Quick
      test_e2e_corrupt_store_boots;
    Alcotest.test_case "e2e old store.log boots cold" `Quick
      test_e2e_old_store_log;
    Alcotest.test_case "built-in grammar change refuses snapshot" `Quick
      test_warmstore_builtin_grammar_change;
  ]
