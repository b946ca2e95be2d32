(* Tests for the warm-start store: the generic record container
   (dggt_store), the typed spill/load glue (Dggt_server.Warmstore), and
   an end-to-end cold-boot / warm-boot exercise of `dggt serve --store`.

   The corruption cases pin the refuse-and-rebuild contract: a damaged
   store may cost recomputation, it must never crash a boot or serve a
   record that failed a check. *)

module Store = Dggt_store.Store
module Warmstore = Dggt_server.Warmstore
module Cache = Dggt_server.Cache
module Registry = Dggt_pack.Domain_registry
module Engine = Dggt_core.Engine
module Domain = Dggt_domains.Domain
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
  if Sys.file_exists dir then
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun n -> Sys.remove (Filename.concat dir n))
           (Sys.readdir dir);
         Unix.rmdir dir
       with Sys_error _ | Unix.Unix_error _ -> ()))
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let log_path dir = Filename.concat dir "store.log"

(* flip one byte of store.log in place (the index is left alone, so the
   damage sits inside the committed region) *)
let flip_byte dir off =
  let s = Bytes.of_string (read_file (log_path dir)) in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0xff));
  write_file (log_path dir) (Bytes.to_string s)

(* offset of [sub]'s first occurrence in store.log *)
let find_in_log dir sub =
  let s = read_file (log_path dir) in
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.fail ("substring not found: " ^ sub)
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go 0

let rec_ ?(kind = "cache") ?(name = "r") ?(generation = 1)
    ?(pack_digest = "none") ?(engine = "*") ?(schema = 1) payload =
  { Store.hdr = { kind; name; generation; pack_digest; engine; schema };
    payload }

let open_ok ?(schema = 1) dir =
  match Store.open_dir ~schema dir with
  | Ok s -> s
  | Error e -> Alcotest.fail ("open_dir: " ^ e)

let append_ok s rs =
  match Store.append s rs with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("append: " ^ e)

(* ------------------------------------------------------------------ *)
(* container: roundtrip, index, compaction                            *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_dir (fun dir ->
      let s = open_ok dir in
      append_ok s
        [
          rec_ ~name:"a" "payload-alpha";
          rec_ ~kind:"autom" ~name:"b" ~pack_digest:"ck1" "payload-beta";
        ];
      (* a reopen sees the same records, oldest first *)
      let s = open_ok dir in
      let l = Store.load s in
      check_i "loaded" 2 l.Store.loaded;
      check_i "skipped" 0 l.Store.skipped;
      check_i "rejected" 0 l.Store.rejected;
      check_i "trailing" 0 l.Store.trailing_bytes;
      (match l.Store.records with
      | [ r1; r2 ] ->
          check_s "r1 payload" "payload-alpha" r1.Store.payload;
          check_s "r1 name" "a" r1.Store.hdr.Store.name;
          check_s "r2 kind" "autom" r2.Store.hdr.Store.kind;
          check_s "r2 digest" "ck1" r2.Store.hdr.Store.pack_digest
      | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs));
      let st = Store.stats s in
      check_b "kinds" true
        (st.Store.kinds = [ ("autom", 1); ("cache", 1) ]
        || st.Store.kinds = [ ("cache", 1); ("autom", 1) ]))

let test_store_uncommitted_tail () =
  with_dir (fun dir ->
      let s = open_ok dir in
      append_ok s [ rec_ "committed-one" ];
      (* a crash mid-append: bytes past the index's commit point *)
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (log_path dir)
      in
      output_string oc "REC1garbage-that-never-got-committed";
      close_out oc;
      let l = Store.load (open_ok dir) in
      check_i "loaded" 1 l.Store.loaded;
      check_i "rejected" 0 l.Store.rejected;
      check_b "tail counted" true (l.Store.trailing_bytes > 0))

let test_store_truncated_log () =
  with_dir (fun dir ->
      let s = open_ok dir in
      append_ok s [ rec_ ~name:"a" "first-payload"; rec_ ~name:"b" "second-payload" ];
      (* chop the last bytes off the committed region *)
      let bytes = read_file (log_path dir) in
      write_file (log_path dir)
        (String.sub bytes 0 (String.length bytes - 5));
      let l = Store.load (open_ok dir) in
      check_i "first survives" 1 l.Store.loaded;
      check_b "damage counted" true (l.Store.rejected >= 1);
      match l.Store.records with
      | [ r ] -> check_s "surviving payload" "first-payload" r.Store.payload
      | _ -> Alcotest.fail "expected exactly the first record")

let test_store_flipped_payload_byte () =
  with_dir (fun dir ->
      let s = open_ok dir in
      append_ok s
        [ rec_ ~name:"a" "victim-payload-xyz"; rec_ ~name:"b" "innocent-bystander" ];
      flip_byte dir (find_in_log dir "victim-payload-xyz");
      (* payload damage rejects that record only: the frame lengths were
         covered by the (intact) header digest, so the scan continues *)
      let l = Store.load (open_ok dir) in
      check_i "one rejected" 1 l.Store.rejected;
      check_i "one loaded" 1 l.Store.loaded;
      match l.Store.records with
      | [ r ] -> check_s "bystander survives" "innocent-bystander" r.Store.payload
      | _ -> Alcotest.fail "expected exactly the second record")

let test_store_flipped_header_byte () =
  with_dir (fun dir ->
      let s = open_ok dir in
      append_ok s [ rec_ ~name:"a" "p-one"; rec_ ~name:"b" "p-two" ];
      (* first frame: magic (11) + marker (4) + two u32 lengths (8) + two
         MD5s (32) = the header bytes start at offset 55; damaging them
         poisons the scan, so both records are rejected *)
      flip_byte dir 55;
      (* header damage stops the scan: nothing after it is recoverable
         (or even countable), so the verdict is one rejection, zero loads *)
      let l = Store.load (open_ok dir) in
      check_i "nothing loads" 0 l.Store.loaded;
      check_i "poison counted once" 1 l.Store.rejected)

let test_store_schema_bump () =
  with_dir (fun dir ->
      let s = open_ok ~schema:1 dir in
      append_ok s [ rec_ ~schema:1 "old-layout" ];
      (* the same directory opened by a binary with a newer payload
         layout: valid records of the old schema are skips, not errors *)
      let l = Store.load (open_ok ~schema:2 dir) in
      check_i "loaded" 0 l.Store.loaded;
      check_i "skipped" 1 l.Store.skipped;
      check_i "rejected" 0 l.Store.rejected)

let test_store_compact () =
  with_dir (fun dir ->
      let s = open_ok dir in
      (* periodic spills append whole snapshots: same identity repeats *)
      append_ok s [ rec_ ~name:"a" "v1"; rec_ ~name:"b" "b1" ];
      append_ok s [ rec_ ~name:"a" "v2" ];
      append_ok s [ rec_ ~name:"a" "v3"; rec_ ~kind:"autom" ~name:"a" "auto" ];
      (match Store.compact s with
      | Error e -> Alcotest.fail e
      | Ok r ->
          check_i "kept newest per identity" 3 r.Store.kept;
          check_i "dropped superseded" 2 r.Store.dropped;
          check_b "shrunk" true (r.Store.bytes_after < r.Store.bytes_before));
      let l = Store.load (open_ok dir) in
      check_i "post-compact load" 3 l.Store.loaded;
      check_b "newest payload survives" true
        (List.exists
           (fun r ->
             r.Store.hdr.Store.kind = "cache"
             && r.Store.hdr.Store.name = "a"
             && r.Store.payload = "v3")
           l.Store.records);
      (* a drop predicate removes matching records entirely *)
      (match Store.compact ~drop:(fun h -> h.Store.kind = "autom") s with
      | Error e -> Alcotest.fail e
      | Ok r -> check_i "dropped by predicate" 1 r.Store.dropped);
      let l = Store.load (open_ok dir) in
      check_i "autom gone" 2 l.Store.loaded)

(* ------------------------------------------------------------------ *)
(* warmstore: typed spill/load with the server's key discipline       *)
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
  {
    Warmstore.q = Cache.create ~capacity;
    rank = Cache.create ~capacity;
    word = Cache.create ~capacity;
  }

let q_key ~gen i = (gen, "TextEditing", "dggt", Printf.sprintf "query %d" i, 1)

let registry () = Registry.create ()

let test_warmstore_roundtrip () =
  with_dir (fun dir ->
      let s = open_ok ~schema:Warmstore.schema_version dir in
      let caches = fresh_caches () in
      (* three entries, oldest first: load must reproduce this recency *)
      List.iter
        (fun i -> Cache.add caches.Warmstore.q (q_key ~gen:3 i) (outcome (Printf.sprintf "code%d" i), []))
        [ 1; 2; 3 ];
      Cache.add caches.Warmstore.word
        (3, "TextEditing", "delete", "VB")
        [ { Dggt_core.Word2api.api = "Delete"; score = 1.0 } ];
      (match
         Warmstore.spill s ~generation:3 ~pack_digest:"none" caches
           ~automata:[]
       with
      | Error e -> Alcotest.fail e
      | Ok r ->
          check_i "records" 2 r.Warmstore.sp_records;
          check_i "entries" 4 r.Warmstore.sp_entries);
      (* a restart: a different process-local generation, same content *)
      let fresh = fresh_caches () in
      let r, _ =
        Warmstore.load s ~generation:9 ~pack_digest:"none"
          ~registry:(registry ()) fresh
      in
      check_i "applied" 2 r.Warmstore.ld_applied;
      check_i "entries replayed" 4 r.Warmstore.ld_cache_entries;
      check_i "rejected" 0 r.Warmstore.ld_rejected;
      (* re-keyed under the booting generation, recency order intact *)
      check_b "recency preserved" true
        (Cache.keys_mru fresh.Warmstore.q
        = [ q_key ~gen:9 3; q_key ~gen:9 2; q_key ~gen:9 1 ]);
      (match Cache.find fresh.Warmstore.q (q_key ~gen:9 2) with
      | Some (o, []) -> check_b "value" true (o.Engine.code = Some "code2")
      | _ -> Alcotest.fail "warm q_cache entry missing");
      (match Cache.find fresh.Warmstore.word (9, "TextEditing", "delete", "VB") with
      | Some [ c ] -> check_s "candidate" "Delete" c.Dggt_core.Word2api.api
      | _ -> Alcotest.fail "warm word_cache entry missing");
      (* the old generation's keys do not exist *)
      check_b "old gen gone" true
        (Cache.find fresh.Warmstore.q (q_key ~gen:3 1) = None))

let test_warmstore_pack_digest_mismatch () =
  with_dir (fun dir ->
      let s = open_ok ~schema:Warmstore.schema_version dir in
      let caches = fresh_caches () in
      Cache.add caches.Warmstore.q (q_key ~gen:1 1) (outcome "stale", []);
      (match
         Warmstore.spill s ~generation:1 ~pack_digest:"digest-A" caches
           ~automata:[]
       with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      (* the packs changed since the spill: nothing may be served *)
      let fresh = fresh_caches () in
      let r, _ =
        Warmstore.load s ~generation:2 ~pack_digest:"digest-B"
          ~registry:(registry ()) fresh
      in
      check_i "nothing applied" 0 r.Warmstore.ld_applied;
      check_i "nothing rejected" 0 r.Warmstore.ld_rejected;
      check_b "mismatch is a skip" true (r.Warmstore.ld_skipped >= 1);
      check_i "cache stays empty" 0 (Cache.length fresh.Warmstore.q))

let test_warmstore_newest_wins () =
  with_dir (fun dir ->
      let s = open_ok ~schema:Warmstore.schema_version dir in
      (* two periodic spills of the same server: snapshot 2 supersedes 1 *)
      let c1 = fresh_caches () in
      Cache.add c1.Warmstore.q (q_key ~gen:1 1) (outcome "old-answer", []);
      (match Warmstore.spill s ~generation:1 ~pack_digest:"none" c1 ~automata:[] with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      let c2 = fresh_caches () in
      Cache.add c2.Warmstore.q (q_key ~gen:1 1) (outcome "new-answer", []);
      Cache.add c2.Warmstore.q (q_key ~gen:1 2) (outcome "second", []);
      (match Warmstore.spill s ~generation:1 ~pack_digest:"none" c2 ~automata:[] with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      let fresh = fresh_caches () in
      let r, _ =
        Warmstore.load s ~generation:5 ~pack_digest:"none"
          ~registry:(registry ()) fresh
      in
      check_i "newest snapshot applied" 1 r.Warmstore.ld_applied;
      check_b "superseded counted" true (r.Warmstore.ld_skipped >= 1);
      check_i "two entries" 2 (Cache.length fresh.Warmstore.q);
      match Cache.find fresh.Warmstore.q (q_key ~gen:5 1) with
      | Some (o, _) -> check_b "newest value" true (o.Engine.code = Some "new-answer")
      | None -> Alcotest.fail "entry missing")

let test_warmstore_flipped_payload () =
  with_dir (fun dir ->
      let s = open_ok ~schema:Warmstore.schema_version dir in
      let caches = fresh_caches () in
      Cache.add caches.Warmstore.q (q_key ~gen:1 1)
        (outcome "corrupt-me-please", []);
      (match Warmstore.spill s ~generation:1 ~pack_digest:"none" caches ~automata:[] with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      (* the marshalled outcome embeds the code string verbatim *)
      flip_byte dir (find_in_log dir "corrupt-me-please");
      let fresh = fresh_caches () in
      let r, _ =
        Warmstore.load s ~generation:2 ~pack_digest:"none"
          ~registry:(registry ()) fresh
      in
      check_i "rejected" 1 r.Warmstore.ld_rejected;
      check_i "nothing applied" 0 r.Warmstore.ld_applied;
      check_i "cache stays empty" 0 (Cache.length fresh.Warmstore.q))

(* ------------------------------------------------------------------ *)
(* automaton images: digest-guarded restore, registry seeding         *)
(* ------------------------------------------------------------------ *)

let test_autom_image_roundtrip () =
  let module Autom = Dggt_autom.Autom in
  let te = Dggt_domains.Text_editing.domain in
  let am = Dggt_domains.Astmatcher.domain in
  let g = Lazy.force te.Domain.graph in
  let a = Autom.compile g in
  let img = Autom.to_image a in
  check_s "image digest" (Autom.digest a) (Autom.image_digest img);
  (match Autom.of_image g img with
  | Error e -> Alcotest.fail e
  | Ok b ->
      check_b "same graph" true (Autom.graph b == g);
      check_s "same digest" (Autom.digest a) (Autom.digest b);
      check_b "compile time carried" true
        (Autom.compile_time_s b = Autom.compile_time_s a));
  (* restoring against a different grammar refuses *)
  match Autom.of_image (Lazy.force am.Domain.graph) img with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "image restored against the wrong graph"

let test_warmstore_automata () =
  with_dir (fun dir ->
      let s = open_ok ~schema:Warmstore.schema_version dir in
      let reg1 = registry () in
      let e1 = Option.get (Registry.find_entry reg1 "te") in
      let a1, compiled = Registry.automaton reg1 e1 in
      check_b "cold compile" true compiled;
      (match
         Warmstore.spill s ~generation:1 ~pack_digest:"none"
           (fresh_caches ())
           ~automata:[ (e1.Registry.domain.Domain.name, Registry.content_key e1, a1) ]
       with
      | Error e -> Alcotest.fail e
      | Ok r -> check_i "one autom record" 1 r.Warmstore.sp_records);
      (* a new process: fresh registry, load seeds its automaton cache *)
      let reg2 = registry () in
      let r, images =
        Warmstore.load s ~generation:1 ~pack_digest:"none" ~registry:reg2
          (fresh_caches ())
      in
      check_i "held for the build" 1 r.Warmstore.ld_automata;
      check_i "rejected" 0 r.Warmstore.ld_rejected;
      let e2 = Option.get (Registry.find_entry reg2 "te") in
      (* the entry's build restores the image before asking for the
         automaton; an entry without a record has nothing to seed *)
      check_b "seeded" true (Warmstore.seed images reg2 e2 = `Seeded);
      check_b "no image for ASTMatcher" true
        (Warmstore.seed images reg2 (Option.get (Registry.find_entry reg2 "am"))
        = `Absent);
      let a2, compiled2 = Registry.automaton reg2 e2 in
      check_b "warm boot pays no compile" false compiled2;
      check_s "same tables" (Dggt_autom.Autom.digest a1)
        (Dggt_autom.Autom.digest a2);
      (* a record keyed by a content key no registry entry carries (the
         pack changed): skipped, never force-fed *)
      let reg3 = registry () in
      let bad = open_ok ~schema:Warmstore.schema_version dir in
      ignore bad;
      let c = fresh_caches () in
      (match
         Warmstore.spill s ~generation:1 ~pack_digest:"none" c
           ~automata:
             [ (e1.Registry.domain.Domain.name, "stale-content-key", a1) ]
       with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      let r3, images3 =
        Warmstore.load s ~generation:1 ~pack_digest:"none" ~registry:reg3
          (fresh_caches ())
      in
      check_b "nothing to seed" true
        (Warmstore.seed images3 reg3 (Option.get (Registry.find_entry reg3 "te"))
        = `Absent);
      (* the newest record for TextEditing's automaton identity carries
         the stale key, so nothing seeds *)
      check_i "stale key seeds nothing" 0 r3.Warmstore.ld_automata;
      check_b "counted as skip" true (r3.Warmstore.ld_skipped >= 1))

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

let has_line ~prefix body =
  String.split_on_char '\n' body
  |> List.exists (fun l ->
         String.length l >= String.length prefix
         && String.sub l 0 (String.length prefix) = prefix)

let test_e2e_warm_boot () =
  with_dir (fun dir ->
      (* cold boot: compute, then shut down (spills the snapshot) *)
      let srv = Serve.create (store_params dir) in
      let port = Serve.port srv in
      let st, body =
        Test_server.http ~port ~meth:"POST" ~path:"/synthesize"
          ~body:synth_body ()
      in
      check_i "cold status" 200 st;
      let j = Result.get_ok (J.of_string body) in
      check_b "cold computes" true (J.bool_field "cached" j = Some false);
      let code = Option.get (J.str_field "code" j) in
      Serve.stop srv;
      (* warm boot: same store, new process-equivalent server *)
      let srv = Serve.create (store_params dir) in
      let port = Serve.port srv in
      let _, metrics =
        Test_server.http ~port ~meth:"GET" ~path:"/metrics" ()
      in
      check_b "store section exported" true
        (has_line ~prefix:"dggt_store_records_loaded_total" metrics);
      check_b "zero warm compiles" false
        (has_line ~prefix:"dggt_autom_compiles_total{" metrics);
      let st, body =
        Test_server.http ~port ~meth:"POST" ~path:"/synthesize"
          ~body:synth_body ()
      in
      check_i "warm status" 200 st;
      let j = Result.get_ok (J.of_string body) in
      check_b "warm first request hits" true
        (J.bool_field "cached" j = Some true);
      check_s "byte-identical code" code (Option.get (J.str_field "code" j));
      Serve.stop srv)

let test_e2e_corrupt_store_boots () =
  with_dir (fun dir ->
      let srv = Serve.create (store_params dir) in
      let port = Serve.port srv in
      let st, body =
        Test_server.http ~port ~meth:"POST" ~path:"/synthesize"
          ~body:synth_body ()
      in
      check_i "cold status" 200 st;
      let code =
        Option.get (J.str_field "code" (Result.get_ok (J.of_string body)))
      in
      Serve.stop srv;
      (* wreck the first frame's header: the whole committed log is
         poisoned from there — the worst case short of deleting it *)
      flip_byte dir 55;
      let srv = Serve.create (store_params dir) in
      let port = Serve.port srv in
      let st, body =
        Test_server.http ~port ~meth:"POST" ~path:"/synthesize"
          ~body:synth_body ()
      in
      check_i "boot survives corruption" 200 st;
      let j = Result.get_ok (J.of_string body) in
      (* nothing warm was trusted: the request recomputes... *)
      check_b "recomputed" true (J.bool_field "cached" j = Some false);
      (* ...and recomputation reproduces the answer *)
      check_s "same code" code (Option.get (J.str_field "code" j));
      Serve.stop srv)

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
    Alcotest.test_case "compact keeps newest" `Quick test_store_compact;
    Alcotest.test_case "warmstore roundtrip + re-key" `Quick
      test_warmstore_roundtrip;
    Alcotest.test_case "pack digest mismatch" `Quick
      test_warmstore_pack_digest_mismatch;
    Alcotest.test_case "newest snapshot wins" `Quick
      test_warmstore_newest_wins;
    Alcotest.test_case "corrupt payload rejected" `Quick
      test_warmstore_flipped_payload;
    Alcotest.test_case "automaton image roundtrip" `Quick
      test_autom_image_roundtrip;
    Alcotest.test_case "automata spill + seed" `Quick
      test_warmstore_automata;
    Alcotest.test_case "e2e warm boot" `Quick test_e2e_warm_boot;
    Alcotest.test_case "e2e corrupt store boots" `Quick
      test_e2e_corrupt_store_boots;
  ]
