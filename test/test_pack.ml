(* Tests for the pack format and dggt_pack: manifest/docfile/queryfile
   parse errors with file:line diagnostics, loader error paths, the
   semantic checker, the mutex-guarded domain registry, dump/load golden
   equivalence against the built-in domains, and the pack-aware endpoints
   of dggt serve (/version, /reload, generation-keyed cache
   invalidation). *)

open Dggt_pack
module Domain = Dggt_domains.Domain
module Err = Dggt_domains.Err
module Manifest = Dggt_domains.Manifest
module Pack = Dggt_domains.Pack
module Engine = Dggt_core.Engine
module J = Dggt_server.Jsonio
module Serve = Dggt_server.Serve

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* scratch pack directories                                           *)
(* ------------------------------------------------------------------ *)

let counter = ref 0
let made = ref []

(* every directory [fresh_dir] made is removed when the suite ends *)
let () = at_exit (fun () -> List.iter Test_shard.remove_tree !made)

let fresh_dir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dggt_pack_test_%d_%d" (Unix.getpid ()) !counter)
  in
  let rec mkdir_p p =
    if not (Sys.file_exists p) then begin
      mkdir_p (Filename.dirname p);
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  mkdir_p d;
  made := d :: !made;
  d

let write path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let read path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let replace_all s ~old ~fresh =
  let ol = String.length old in
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i > n - ol then Buffer.add_substring buf s i (n - i)
    else if String.sub s i ol = old then begin
      Buffer.add_string buf fresh;
      go (i + ol)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let file_replace path ~old ~fresh = write path (replace_all (read path) ~old ~fresh)

(* a disposable copy of the TextEditing domain as a pack, for mutation *)
let te_pack_dir () =
  let d = Filename.concat (fresh_dir ()) "textediting" in
  Dump.dump ~dir:d ~aliases:[ "te" ] Dggt_domains.Text_editing.domain;
  d

(* the same pack with its eval envelope taken out, for the envelope tests *)
let unpinned_pack_dir () =
  let d = te_pack_dir () in
  let m = Filename.concat d "domain.pack" in
  write m
    (String.split_on_char '\n' (read m)
    |> List.filter (fun l -> not (String.starts_with ~prefix:"expect-" l))
    |> String.concat "\n");
  d

let line_count path = List.length (String.split_on_char '\n' (read path))

let err_of = function
  | Error (e : Err.t) -> e
  | Ok _ -> Alcotest.fail "expected a load error"

let base = Filename.basename

(* ------------------------------------------------------------------ *)
(* loader error paths                                                 *)
(* ------------------------------------------------------------------ *)

let test_load_roundtrip_clean () =
  let d = te_pack_dir () in
  match Loader.load d with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok l ->
      check_s "name" "TextEditing" l.Loader.domain.Domain.name;
      check_b "alias te" true (List.mem "te" l.Loader.settings.Pack.aliases);
      check_b "digest nonempty" true
        (String.length (Lazy.force l.Loader.domain.Domain.digest) = 32);
      check_i "no findings" 0 (List.length (Check.run l))

let test_missing_file () =
  let d = te_pack_dir () in
  Sys.remove (Filename.concat d "api.doc");
  let e = err_of (Loader.load d) in
  check_s "names api.doc" "api.doc" (base e.Err.file);
  check_b "mentions missing" true
    (Dggt_util.Strutil.contains_sub ~sub:"no such file" e.Err.message);
  (* the rendered form carries the path *)
  check_b "to_string has path" true
    (Dggt_util.Strutil.contains_sub ~sub:"api.doc" (Err.to_string e))

let test_missing_manifest () =
  let d = te_pack_dir () in
  Sys.remove (Filename.concat d "domain.pack");
  let e = err_of (Loader.load d) in
  check_s "names domain.pack" "domain.pack" (base e.Err.file)

let test_malformed_bnf () =
  let d = te_pack_dir () in
  let g = Filename.concat d "grammar.bnf" in
  let lines = line_count g in
  write g (read g ^ "oops ::= ;;;\n");
  let e = err_of (Loader.load d) in
  check_s "names grammar.bnf" "grammar.bnf" (base e.Err.file);
  check_b "line points at the bad rule" true (e.Err.line >= lines);
  check_b "line rendered" true
    (Dggt_util.Strutil.contains_sub
       ~sub:(Printf.sprintf "grammar.bnf:%d" e.Err.line)
       (Err.to_string e))

let test_unknown_manifest_key () =
  let d = te_pack_dir () in
  let m = Filename.concat d "domain.pack" in
  write m (read m ^ "bogus-key = 1\n");
  let e = err_of (Loader.load d) in
  check_s "names domain.pack" "domain.pack" (base e.Err.file);
  check_i "points at the key" (line_count m - 1) e.Err.line;
  check_b "names the key" true
    (Dggt_util.Strutil.contains_sub ~sub:"bogus-key" e.Err.message)

let test_manifest_syntax_error () =
  let d = te_pack_dir () in
  let m = Filename.concat d "domain.pack" in
  write m (read m ^ "this line has no equals sign\n");
  let e = err_of (Loader.load d) in
  check_s "names domain.pack" "domain.pack" (base e.Err.file);
  check_i "points at the line" (line_count m - 1) e.Err.line

let test_unparseable_ground_truth () =
  let d = te_pack_dir () in
  let q = Filename.concat d "queries.tsv" in
  let lines = String.split_on_char '\n' (read q) in
  (* corrupt the 5th query's EXPECTED column (header comments occupy the
     first two lines) *)
  let target = 7 in
  let mangled =
    List.mapi
      (fun i l ->
        if i = target - 1 then
          match String.rindex_opt l '\t' with
          | Some t -> String.sub l 0 (t + 1) ^ "NOT(A(CODELET"
          | None -> l
        else l)
      lines
  in
  write q (String.concat "\n" mangled);
  let e = err_of (Loader.load d) in
  check_s "names queries.tsv" "queries.tsv" (base e.Err.file);
  check_i "points at the query line" target e.Err.line;
  check_b "says unparseable" true
    (Dggt_util.Strutil.contains_sub ~sub:"ground-truth" e.Err.message)

let test_bad_limits () =
  let d = te_pack_dir () in
  let m = Filename.concat d "domain.pack" in
  write m (read m ^ "max-nodes = 0\n");
  let e = err_of (Loader.load d) in
  check_s "names domain.pack" "domain.pack" (base e.Err.file);
  check_i "points at the limit" (line_count m - 1) e.Err.line;
  check_b "says positive" true
    (Dggt_util.Strutil.contains_sub ~sub:"positive" e.Err.message)

let test_manifest_num_value () =
  let d = fresh_dir () in
  let p = Filename.concat d "m.pack" in
  write p "a = 2.5\nb = nope\n";
  match Manifest.load p with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok m ->
      check_b "num" true (Manifest.num_value m "a" = Ok (Some 2.5));
      check_b "absent is None" true (Manifest.num_value m "missing" = Ok None);
      check_b "non-numeric errors" true
        (Result.is_error (Manifest.num_value m "b"))

let test_envelope_keys () =
  let d = unpinned_pack_dir () in
  let m = Filename.concat d "domain.pack" in
  write m (read m ^ "expect-accuracy = 0.85\nexpect-p95-ms = 1500\n");
  (match Loader.load d with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok l ->
      check_b "accuracy floor parsed" true
        (l.Loader.settings.Pack.expect_accuracy = Some 0.85);
      check_b "p95 ceiling parsed" true (l.Loader.settings.Pack.expect_p95_ms = Some 1500.0));
  (* a pack without the keys simply has no envelope *)
  let d2 = unpinned_pack_dir () in
  match Loader.load d2 with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok l ->
      check_b "no envelope by default" true
        (l.Loader.settings.Pack.expect_accuracy = None && l.Loader.settings.Pack.expect_p95_ms = None)

let test_envelope_validation () =
  (* accuracy outside [0, 1] *)
  let d = unpinned_pack_dir () in
  let m = Filename.concat d "domain.pack" in
  write m (read m ^ "expect-accuracy = 1.5\n");
  let e = err_of (Loader.load d) in
  check_s "names domain.pack" "domain.pack" (base e.Err.file);
  check_i "points at the key" (line_count m - 1) e.Err.line;
  check_b "says fraction" true
    (Dggt_util.Strutil.contains_sub ~sub:"fraction" e.Err.message);
  (* p95 ceiling must be positive *)
  let d = unpinned_pack_dir () in
  write
    (Filename.concat d "domain.pack")
    (read (Filename.concat d "domain.pack") ^ "expect-p95-ms = 0\n");
  let e = err_of (Loader.load d) in
  check_b "says positive" true
    (Dggt_util.Strutil.contains_sub ~sub:"positive" e.Err.message);
  (* non-numeric value *)
  let d = unpinned_pack_dir () in
  write
    (Filename.concat d "domain.pack")
    (read (Filename.concat d "domain.pack") ^ "expect-accuracy = fast\n");
  let e = err_of (Loader.load d) in
  check_b "says number" true
    (Dggt_util.Strutil.contains_sub ~sub:"number" e.Err.message)

let test_undefined_start () =
  let d = te_pack_dir () in
  let m = Filename.concat d "domain.pack" in
  file_replace m ~old:"start = cmd" ~fresh:"start = nonexistent";
  let e = err_of (Loader.load d) in
  (* the grammar file is fine; the manifest's start line is wrong *)
  check_s "names domain.pack" "domain.pack" (base e.Err.file);
  check_b "has a line" true (e.Err.line > 0);
  check_b "names the symbol" true
    (Dggt_util.Strutil.contains_sub ~sub:"nonexistent" e.Err.message)

let test_queries_optional () =
  let d = te_pack_dir () in
  Sys.remove (Filename.concat d "queries.tsv");
  match Loader.load d with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok l -> check_i "no queries" 0 (List.length l.Loader.domain.Domain.queries)

(* ------------------------------------------------------------------ *)
(* semantic checks                                                    *)
(* ------------------------------------------------------------------ *)

let findings_of dir =
  match Loader.load dir with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok l -> Check.run l

let test_check_unknown_doc_api () =
  let d = te_pack_dir () in
  let doc = Filename.concat d "api.doc" in
  write doc (read doc ^ "BOGUSAPI\t-\tan api the grammar cannot produce\n");
  let fs = findings_of d in
  check_b "reported against its api.doc line" true
    (List.exists
       (fun (f : Err.t) ->
         base f.Err.file = "api.doc"
         && f.Err.line = line_count doc - 1
         && Dggt_util.Strutil.contains_sub ~sub:"BOGUSAPI" f.Err.message)
       fs)

let test_check_undocumented_terminal () =
  let d = te_pack_dir () in
  let doc = Filename.concat d "api.doc" in
  (* drop MOVE from the document: the grammar still derives it *)
  let lines =
    List.filter
      (fun l -> not (Dggt_util.Strutil.contains_sub ~sub:"MOVE\t" l))
      (String.split_on_char '\n' (read doc))
  in
  write doc (String.concat "\n" lines);
  let fs = findings_of d in
  (* attributed to the grammar: the terminal exists there with no entry *)
  check_b "undocumented MOVE reported" true
    (List.exists
       (fun (f : Err.t) ->
         base f.Err.file = "grammar.bnf"
         && Dggt_util.Strutil.contains_sub ~sub:"MOVE" f.Err.message)
       fs)

let test_check_query_uses_undocumented_api () =
  let d = te_pack_dir () in
  let q = Filename.concat d "queries.tsv" in
  write q
    (read q
   ^ "9999\t-\tmade-up query\tDELETE(WORD(), UNDOCUMENTEDAPI())\n");
  let fs = findings_of d in
  check_b "reported" true
    (List.exists
       (fun (f : Err.t) ->
         base f.Err.file = "queries.tsv"
         && f.Err.line = line_count q - 1
         && Dggt_util.Strutil.contains_sub ~sub:"UNDOCUMENTEDAPI"
              f.Err.message)
       fs)

(* ------------------------------------------------------------------ *)
(* registry                                                           *)
(* ------------------------------------------------------------------ *)

let test_registry_builtins () =
  let reg = Domain_registry.create () in
  check_i "two builtins" 2 (List.length (Domain_registry.entries reg));
  check_b "by name" true (Domain_registry.find reg "TextEditing" <> None);
  check_b "case-insensitive" true (Domain_registry.find reg "textediting" <> None);
  check_b "alias te" true (Domain_registry.find reg "te" <> None);
  check_b "alias AM" true (Domain_registry.find reg "AM" <> None);
  check_b "unknown" true (Domain_registry.find reg "nope" = None);
  check_i "generation starts at 0" 0 (Domain_registry.generation reg);
  (* the built-ins' embedded texts are part of the key *)
  let d = Domain_registry.pack_digest reg in
  check_b "built-ins digested" true (String.length d = 32);
  check_s "same texts, same digest" d
    (Domain_registry.pack_digest (Domain_registry.create ()))

(* a process that only uses TextEditing never parses or hashes
   ASTMatcher's texts *)
let test_registry_builtins_lazy () =
  let reg = Domain_registry.create () in
  let te = Option.get (Domain_registry.find_entry reg "te") in
  let autom, _ = Domain_registry.automaton reg te in
  let o =
    Engine.respond
      (Domain.configure ~autom te.Domain_registry.domain
         (Engine.default Engine.Dggt_alg))
      { Engine.input = Engine.Text "delete all numbers"; mode = Engine.Plain }
  in
  check_b "TextEditing answers" true (o.Engine.code <> None);
  check_b "TextEditing hashed" true
    (Lazy.is_val te.Domain_registry.domain.Domain.digest);
  let am = Option.get (Domain_registry.find reg "am") in
  check_b "ASTMatcher grammar unparsed" false (Lazy.is_val am.Domain.graph);
  check_b "ASTMatcher document unparsed" false (Lazy.is_val am.Domain.doc);
  check_b "ASTMatcher texts unhashed" false (Lazy.is_val am.Domain.digest)

let test_registry_duplicate_register () =
  let reg = Domain_registry.create () in
  (match Domain_registry.register reg Dggt_domains.Text_editing.domain with
  | Ok () -> Alcotest.fail "duplicate register accepted"
  | Error msg ->
      check_b "names the clash" true
        (Dggt_util.Strutil.contains_sub ~sub:"textediting" msg));
  check_i "registry unchanged" 2 (List.length (Domain_registry.entries reg));
  check_i "generation unchanged" 0 (Domain_registry.generation reg)

(* a packs root holding one TE clone under a different name/alias *)
let clone_packs_root ?(name = "TEClone") ?(alias = "tec") () =
  let root = fresh_dir () in
  let d = Filename.concat root "teclone" in
  Dump.dump ~dir:d ~aliases:[ alias ] Dggt_domains.Text_editing.domain;
  let m = Filename.concat d "domain.pack" in
  file_replace m ~old:"name = TextEditing" ~fresh:("name = " ^ name);
  (root, d)

let test_registry_load_dir () =
  let root, _ = clone_packs_root () in
  let reg = Domain_registry.create () in
  (match Domain_registry.load_dir reg root with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok packs -> check_i "one pack" 1 (List.length packs));
  check_i "generation bumped" 1 (Domain_registry.generation reg);
  check_i "three domains" 3 (List.length (Domain_registry.entries reg));
  check_b "clone by name" true (Domain_registry.find reg "teclone" <> None);
  check_b "clone by alias" true (Domain_registry.find reg "TEC" <> None);
  check_b "digest set" true (Domain_registry.pack_digest reg <> "none");
  (* a reload replaces, never accumulates *)
  (match Domain_registry.load_dir reg root with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok _ -> ());
  check_i "still three domains" 3 (List.length (Domain_registry.entries reg));
  check_i "generation bumped again" 2 (Domain_registry.generation reg)

let test_registry_duplicate_pack_name () =
  (* two packs in one root claiming the same name *)
  let root = fresh_dir () in
  let d1 = Filename.concat root "a_first" in
  let d2 = Filename.concat root "b_second" in
  Dump.dump ~dir:d1 ~aliases:[ "c1" ] Dggt_domains.Text_editing.domain;
  Dump.dump ~dir:d2 ~aliases:[ "c2" ] Dggt_domains.Text_editing.domain;
  List.iter
    (fun d ->
      file_replace
        (Filename.concat d "domain.pack")
        ~old:"name = TextEditing" ~fresh:"name = Twin")
    [ d1; d2 ];
  let reg = Domain_registry.create () in
  let e = err_of (Domain_registry.load_dir reg root) in
  (* reported against the second (clashing) pack's manifest, at name = *)
  check_b "in b_second" true
    (Dggt_util.Strutil.contains_sub ~sub:"b_second" e.Err.file);
  check_s "names domain.pack" "domain.pack" (base e.Err.file);
  check_i "at the name line" 2 e.Err.line;
  check_b "says duplicate" true
    (Dggt_util.Strutil.contains_sub ~sub:"duplicate" e.Err.message);
  (* all-or-nothing: nothing was registered *)
  check_i "registry unchanged" 2 (List.length (Domain_registry.entries reg));
  check_i "generation unchanged" 0 (Domain_registry.generation reg)

let test_registry_pack_overrides_builtin () =
  (* a pack reusing a built-in name (or alias) shadows the built-in: the
     built-ins' packs under examples/packs/ are directly servable *)
  let root, _ = clone_packs_root ~name:"TextEditing" ~alias:"te" () in
  let reg = Domain_registry.create () in
  (match Domain_registry.load_dir reg root with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok packs -> check_i "one pack" 1 (List.length packs));
  check_i "still two domains" 2 (List.length (Domain_registry.entries reg));
  let e = Option.get (Domain_registry.find_entry reg "te") in
  check_b "pack won the name" true
    (match e.Domain_registry.origin with
    | Domain_registry.Pack _ -> true
    | Domain_registry.Builtin -> false);
  (* built-ins come back once the packs are gone *)
  let empty = fresh_dir () in
  (match Domain_registry.load_dir reg empty with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok packs -> check_i "no packs" 0 (List.length packs));
  let e = Option.get (Domain_registry.find_entry reg "te") in
  check_b "builtin restored" true
    (e.Domain_registry.origin = Domain_registry.Builtin)

let test_registry_failed_reload_keeps_packs () =
  let root, d = clone_packs_root () in
  let reg = Domain_registry.create () in
  (match Domain_registry.load_dir reg root with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok _ -> ());
  let digest_before = Domain_registry.pack_digest reg in
  (* break the pack, reload: the old clone must survive untouched *)
  let g = Filename.concat d "grammar.bnf" in
  let saved = read g in
  write g "not ::= a ; grammar ::=\n";
  (match Domain_registry.load_dir reg root with
  | Ok _ -> Alcotest.fail "broken pack loaded"
  | Error _ -> ());
  check_i "generation unchanged" 1 (Domain_registry.generation reg);
  check_b "clone still resolvable" true
    (Domain_registry.find reg "TEClone" <> None);
  check_s "digest unchanged" digest_before (Domain_registry.pack_digest reg);
  write g saved

(* ------------------------------------------------------------------ *)
(* golden equivalence: dump → load reproduces the built-in domain     *)
(* ------------------------------------------------------------------ *)

let structural_identity (orig : Domain.t) (fromdisk : Domain.t) =
  let g0 = Lazy.force orig.Domain.graph
  and g1 = Lazy.force fromdisk.Domain.graph in
  check_b "grammar (CFG) identical" true
    (g1.Dggt_grammar.Ggraph.cfg = g0.Dggt_grammar.Ggraph.cfg);
  check_b "API document identical" true
    (Dggt_core.Apidoc.entries (Lazy.force fromdisk.Domain.doc)
    = Dggt_core.Apidoc.entries (Lazy.force orig.Domain.doc));
  check_b "queries identical" true (fromdisk.Domain.queries = orig.Domain.queries);
  check_b "defaults identical" true (fromdisk.Domain.defaults = orig.Domain.defaults);
  check_b "stop verbs identical" true
    (fromdisk.Domain.stop_verbs = orig.Domain.stop_verbs);
  check_b "top-k identical" true (fromdisk.Domain.top_k = orig.Domain.top_k);
  check_b "eval envelope identical" true
    (fromdisk.Domain.expect_accuracy = orig.Domain.expect_accuracy
    && fromdisk.Domain.expect_p95_ms = orig.Domain.expect_p95_ms);
  check_b "path limits identical" true
    (fromdisk.Domain.path_limits = orig.Domain.path_limits);
  (* unit_filter round-trips as its extension over the doc's APIs — the
     only values the engine ever applies it to *)
  let apis =
    List.map
      (fun (e : Dggt_core.Apidoc.entry) -> e.Dggt_core.Apidoc.api)
      (Dggt_core.Apidoc.entries (Lazy.force orig.Domain.doc))
  in
  let extension d =
    List.map
      (fun a ->
        match d.Domain.unit_filter with None -> true | Some f -> f a)
      apis
  in
  check_b "unit filter extension identical" true
    (extension fromdisk = extension orig)

(* byte-identical synthesis, every [stride]th query *)
let synthesis_identity ?(stride = 1) (orig : Domain.t) (fromdisk : Domain.t) =
  let cfg = { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some 20.0 } in
  let s0 = Domain.configure orig cfg and s1 = Domain.configure fromdisk cfg in
  List.iteri
    (fun i (q : Domain.query) ->
      if i mod stride = 0 then
        let request =
          { Engine.input = Engine.Text q.Domain.text; mode = Engine.Plain }
        in
        let a = Engine.respond s0 request and b = Engine.respond s1 request in
        Alcotest.(check (option string))
          (Printf.sprintf "%s q%d" orig.Domain.name q.Domain.id)
          a.Engine.code b.Engine.code)
    orig.Domain.queries

let dump_and_load (d : Domain.t) =
  let dir = Filename.concat (fresh_dir ()) "pack" in
  Dump.dump ~dir d;
  match Loader.load dir with
  | Error e -> Alcotest.fail (Err.to_string e)
  | Ok l ->
      check_i "check clean" 0 (List.length (Check.run l));
      l.Loader.domain

let test_golden_textediting () =
  let orig = Dggt_domains.Text_editing.domain in
  let fromdisk = dump_and_load orig in
  structural_identity orig fromdisk;
  (* the full 200-query sweep: cheap for TextEditing *)
  synthesis_identity orig fromdisk

let test_golden_astmatcher () =
  let orig = Dggt_domains.Astmatcher.domain in
  let fromdisk = dump_and_load orig in
  structural_identity orig fromdisk;
  (* structural identity already implies byte-identical synthesis (the
     engine is deterministic over these inputs); spot-check a slice here
     and sweep all 100 queries when DGGT_GOLDEN_FULL=1 (CI) *)
  let full = Sys.getenv_opt "DGGT_GOLDEN_FULL" = Some "1" in
  synthesis_identity ~stride:(if full then 1 else 10) orig fromdisk

(* a dump keeps the source pack's eval envelope, so --check-envelope on
   the dump checks what the pack pinned *)
let test_dump_envelope () =
  List.iter
    (fun ((d : Domain.t), acc, p95) ->
      let dir = Filename.concat (fresh_dir ()) "pack" in
      Dump.dump ~dir d;
      match Loader.load dir with
      | Error e -> Alcotest.fail (Err.to_string e)
      | Ok l ->
          let s = l.Loader.settings in
          Alcotest.(check (option (float 0.0)))
            (d.Domain.name ^ " expect-accuracy") (Some acc)
            s.Dggt_domains.Pack.expect_accuracy;
          Alcotest.(check (option (float 0.0)))
            (d.Domain.name ^ " expect-p95-ms") (Some p95)
            s.Dggt_domains.Pack.expect_p95_ms)
    [
      (Dggt_domains.Text_editing.domain, 0.85, 2000.0);
      (Dggt_domains.Astmatcher.domain, 0.80, 1500.0);
    ]

(* one committed example pack, loaded from the copy dune places in the
   build tree beside the test executable (a [source_tree] dep in
   test/dune); missing packs fail the test instead of skipping it *)
let committed_pack sub =
  let dir =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "examples"; "packs"; sub ]
  in
  if not (Sys.file_exists dir) then
    Alcotest.failf "committed pack %s not found at %s" sub dir;
  match Loader.load dir with
  | Ok l -> l
  | Error e -> Alcotest.fail (Err.to_string e)

(* the committed packs load and check clean from disk, and each
   built-in is its pack: the embedded texts hash to the digest of the
   directory they were embedded from *)
let test_committed_packs () =
  List.iter
    (fun (sub, (orig, _)) ->
      let l = committed_pack sub in
      check_i (sub ^ " check clean") 0 (List.length (Check.run l));
      check_s (sub ^ " embedded = committed")
        (Lazy.force l.Loader.domain.Domain.digest)
        (Lazy.force orig.Domain.digest);
      structural_identity orig l.Loader.domain)
    [
      ("textediting", Dggt_domains.Text_editing.make ());
      ("astmatcher", Dggt_domains.Astmatcher.make ());
    ]

(* The head-production map built in [Ggraph.build] answers exactly what
   linearization used to scan for: the one production whose RHS starts
   with the API and has arguments. Checked for every API of both
   built-in grammars and both committed packs. *)
let test_head_productions () =
  let scan (g : Dggt_grammar.Ggraph.t) api =
    let open Dggt_grammar in
    match
      Array.to_list g.Ggraph.cfg.Cfg.productions
      |> List.filter (fun (p : Cfg.production) ->
             match p.Cfg.rhs with Cfg.T t :: _ :: _ -> t = api | _ -> false)
    with
    | [ p ] -> Some p
    | _ -> None
  in
  let packs =
    List.map
      (fun sub -> (committed_pack sub).Loader.domain)
      [ "textediting"; "astmatcher" ]
  in
  let heads = ref 0 in
  List.iter
    (fun (d : Domain.t) ->
      let g = Lazy.force d.Domain.graph in
      List.iter
        (fun (api, _) ->
          let got = Dggt_grammar.Ggraph.head_production g api in
          if got <> None then incr heads;
          if got <> scan g api then Alcotest.failf "%s: head production of %s" d.Domain.name api)
        (Dggt_grammar.Ggraph.api_nodes g))
    ([ Dggt_domains.Text_editing.domain; Dggt_domains.Astmatcher.domain ] @ packs);
  check_b "some APIs head a production" true (!heads > 0)

(* ------------------------------------------------------------------ *)
(* serve: /version, v:1, /reload                                      *)
(* ------------------------------------------------------------------ *)

let http = Test_server.http

let with_pack_server ?packs f =
  let params =
    {
      Serve.default_params with
      Serve.port = 0;
      workers = 2;
      queue_capacity = 64;
      cache_size = 64;
      packs_dir = packs;
    }
  in
  let srv = Serve.create params in
  Fun.protect ~finally:(fun () -> Serve.stop srv) (fun () -> f srv)

let get_json ~port ~meth ~path ?body () =
  let st, raw = http ~port ~meth ~path ?body () in
  (st, Result.get_ok (J.of_string raw))

let test_serve_version_and_v () =
  with_pack_server (fun srv ->
      let port = Serve.port srv in
      let st, j = get_json ~port ~meth:"GET" ~path:"/version" () in
      check_i "version status" 200 st;
      check_b "v=1" true (J.int_field "v" j = Some 1);
      check_b "build present" true (J.str_field "build" j <> None);
      check_b "generation 0" true (J.int_field "generation" j = Some 0);
      check_b "built-ins digest" true
        (J.str_field "pack_digest" j
        = Some (Domain_registry.pack_digest (Domain_registry.create ())));
      (* synth and rank responses carry v too *)
      let body =
        J.to_string
          (J.Obj [ ("query", J.Str "delete all numbers"); ("domain", J.Str "te") ])
      in
      let st, j = get_json ~port ~meth:"POST" ~path:"/synthesize" ~body () in
      check_i "synth status" 200 st;
      check_b "synth v=1" true (J.int_field "v" j = Some 1);
      let st, j = get_json ~port ~meth:"POST" ~path:"/rank" ~body () in
      check_i "rank status" 200 st;
      check_b "rank v=1" true (J.int_field "v" j = Some 1);
      let st, j = get_json ~port ~meth:"GET" ~path:"/domains" () in
      check_i "domains status" 200 st;
      check_b "domains v=1" true (J.int_field "v" j = Some 1);
      (* reload without --packs is a client error *)
      let st, _ = get_json ~port ~meth:"POST" ~path:"/reload" () in
      check_i "reload without packs" 400 st)

let member_exn name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.fail ("missing field " ^ name)

let test_serve_packs_and_reload () =
  let root, pdir = clone_packs_root () in
  with_pack_server ~packs:root (fun srv ->
      let port = Serve.port srv in
      (* startup load: generation 1, digest set, clone listed as a pack *)
      let st, j = get_json ~port ~meth:"GET" ~path:"/version" () in
      check_i "version status" 200 st;
      check_b "generation 1" true (J.int_field "generation" j = Some 1);
      check_b "digest set" true (J.str_field "pack_digest" j <> Some "none");
      let digest1 = Option.get (J.str_field "pack_digest" j) in
      let _, j = get_json ~port ~meth:"GET" ~path:"/domains" () in
      let origins =
        match member_exn "domains" j with
        | J.Arr ds ->
            List.filter_map
              (fun d ->
                match (J.str_field "name" d, J.str_field "origin" d) with
                | Some n, Some o -> Some (n, o)
                | _ -> None)
              ds
        | _ -> Alcotest.fail "domains not an array"
      in
      check_b "builtin origin" true
        (List.assoc_opt "TextEditing" origins = Some "builtin");
      check_b "pack origin" true
        (List.assoc_opt "TEClone" origins = Some "pack");
      (* the clone synthesizes exactly like the built-in, via its alias *)
      let q = "delete all numbers" in
      let synth dom =
        let body =
          J.to_string (J.Obj [ ("query", J.Str q); ("domain", J.Str dom) ])
        in
        let st, j = get_json ~port ~meth:"POST" ~path:"/synthesize" ~body () in
        check_i (dom ^ " status") 200 st;
        (Option.get (J.str_field "code" j), J.bool_field "cached" j = Some true)
      in
      let te_code, _ = synth "te" in
      let clone_code, cached = synth "tec" in
      check_s "clone code identical" te_code clone_code;
      check_b "first clone query computed" false cached;
      let _, cached = synth "tec" in
      check_b "repeat served from cache" true cached;
      (* reload: generation bumps, the digest changes with the pack body,
         and the caches are invalidated *)
      file_replace
        (Filename.concat pdir "domain.pack")
        ~old:"source = " ~fresh:"source = v2 ";
      let st, j = get_json ~port ~meth:"POST" ~path:"/reload" () in
      check_i "reload status" 200 st;
      check_b "reload ok" true (J.bool_field "ok" j = Some true);
      check_b "reload generation 2" true (J.int_field "generation" j = Some 2);
      check_b "one pack loaded" true (J.int_field "packs_loaded" j = Some 1);
      let st, j = get_json ~port ~meth:"GET" ~path:"/version" () in
      check_i "version after reload" 200 st;
      check_b "generation 2" true (J.int_field "generation" j = Some 2);
      check_b "digest changed" true
        (J.str_field "pack_digest" j <> Some digest1);
      let code, cached = synth "tec" in
      check_b "cache invalidated by reload" false cached;
      check_s "still the same codelet" te_code code;
      (* a broken pack must not take the service down: 500, old domains
         keep serving, generation unchanged *)
      let g = Filename.concat pdir "grammar.bnf" in
      let saved = read g in
      write g "broken ::=\n";
      let st, j = get_json ~port ~meth:"POST" ~path:"/reload" () in
      check_i "broken reload status" 500 st;
      check_b "diagnostic names grammar.bnf" true
        (Dggt_util.Strutil.contains_sub ~sub:"grammar.bnf"
           (Option.value (J.str_field "detail" j) ~default:""));
      let st, j = get_json ~port ~meth:"GET" ~path:"/version" () in
      check_i "version still up" 200 st;
      check_b "generation still 2" true (J.int_field "generation" j = Some 2);
      let code, _ = synth "tec" in
      check_s "old snapshot keeps serving" te_code code;
      write g saved)

(* hot reload under live traffic: every in-flight and subsequent request
   must succeed — reloads may only change what later requests see *)
let test_serve_reload_under_load () =
  let root, pdir = clone_packs_root () in
  with_pack_server ~packs:root (fun srv ->
      let port = Serve.port srv in
      let queries =
        [ "delete all numbers"; "select the first word"; "print each line" ]
      in
      let failures = Atomic.make 0 in
      let statuses = Atomic.make [] in
      let worker dom =
        Thread.create (fun () ->
            List.iter
              (fun q ->
                let body =
                  J.to_string
                    (J.Obj [ ("query", J.Str q); ("domain", J.Str dom) ])
                in
                let st, _ =
                  http ~port ~meth:"POST" ~path:"/synthesize" ~body ()
                in
                let rec push () =
                  let old = Atomic.get statuses in
                  if not (Atomic.compare_and_set statuses old (st :: old))
                  then push ()
                in
                push ();
                if st <> 200 then Atomic.incr failures)
              (queries @ queries @ queries))
      in
      let threads = [ worker "te" (); worker "tec" (); worker "TEClone" () ] in
      (* interleave reloads with the traffic *)
      for i = 1 to 3 do
        file_replace
          (Filename.concat pdir "domain.pack")
          ~old:"source = " ~fresh:"source = r ";
        let st, _ = get_json ~port ~meth:"POST" ~path:"/reload" () in
        check_i (Printf.sprintf "reload %d ok" i) 200 st;
        Thread.delay 0.05
      done;
      List.iter Thread.join threads;
      check_i "no failed requests" 0 (Atomic.get failures);
      check_i "all requests answered" 27
        (List.length (Atomic.get statuses));
      (* traffic continued across generations *)
      let _, j = get_json ~port ~meth:"GET" ~path:"/version" () in
      check_b "generation advanced" true
        (match J.int_field "generation" j with Some g -> g >= 4 | None -> false))

(* Premise: the reload is sent the moment [Serve.create] returns, while
   the boot job is still building ASTMatcher (~0.1 s on 2 vCPUs), and
   the pack it loads shadows TextEditing. The reload waits for the boot
   job, then swaps its own states in, and those stay: TextEditing is the
   pack's, and a session opened after the reload is not stranded (410)
   by a boot state of the old generation. *)
let test_serve_reload_during_boot () =
  let root = fresh_dir () in
  with_pack_server ~packs:root (fun srv ->
      let port = Serve.port srv in
      Dump.dump ~dir:(Filename.concat root "te") ~aliases:[ "te" ]
        Dggt_domains.Text_editing.domain;
      let st, j = get_json ~port ~meth:"POST" ~path:"/reload" () in
      check_i "reload status" 200 st;
      (* the boot's load of the (then empty) directory was generation 1 *)
      check_b "generation 2" true (J.int_field "generation" j = Some 2);
      check_b "both domains rebuilt" true
        (member_exn "domains" j = J.Arr [ J.Str "ASTMatcher"; J.Str "TextEditing" ]);
      let _, j = get_json ~port ~meth:"GET" ~path:"/domains" () in
      (match member_exn "domains" j with
      | J.Arr ds ->
          List.iter
            (fun d ->
              check_b "built" true (J.member "apis" d <> None);
              if J.str_field "name" d = Some "TextEditing" then
                check_b "TextEditing is the pack's" true
                  (J.str_field "origin" d = Some "pack"))
            ds
      | _ -> Alcotest.fail "domains not an array");
      let st, j =
        get_json ~port ~meth:"POST" ~path:"/session" ~body:{|{"domain":"am"}|} ()
      in
      check_i "session on the reloaded ASTMatcher" 201 st;
      let st, _ =
        http ~port ~meth:"POST"
          ~path:("/session/" ^ Option.get (J.str_field "session" j) ^ "/query")
          ~body:{|{"query":"find functions named \"main\""}|} ()
      in
      check_i "session query is not stranded" 200 st)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "load round-trip clean" `Quick test_load_roundtrip_clean;
    Alcotest.test_case "missing api.doc" `Quick test_missing_file;
    Alcotest.test_case "missing manifest" `Quick test_missing_manifest;
    Alcotest.test_case "malformed grammar.bnf" `Quick test_malformed_bnf;
    Alcotest.test_case "unknown manifest key" `Quick test_unknown_manifest_key;
    Alcotest.test_case "manifest syntax error" `Quick test_manifest_syntax_error;
    Alcotest.test_case "unparseable ground truth" `Quick
      test_unparseable_ground_truth;
    Alcotest.test_case "bad limits" `Quick test_bad_limits;
    Alcotest.test_case "manifest num_value" `Quick test_manifest_num_value;
    Alcotest.test_case "envelope keys parsed" `Quick test_envelope_keys;
    Alcotest.test_case "envelope validation" `Quick test_envelope_validation;
    Alcotest.test_case "undefined start symbol" `Quick test_undefined_start;
    Alcotest.test_case "queries.tsv optional" `Quick test_queries_optional;
    Alcotest.test_case "check: unknown doc api" `Quick test_check_unknown_doc_api;
    Alcotest.test_case "check: undocumented terminal" `Quick
      test_check_undocumented_terminal;
    Alcotest.test_case "check: query uses undocumented api" `Quick
      test_check_query_uses_undocumented_api;
    Alcotest.test_case "registry builtins" `Quick test_registry_builtins;
    Alcotest.test_case "registry duplicate register" `Quick
      test_registry_duplicate_register;
    Alcotest.test_case "registry load_dir" `Quick test_registry_load_dir;
    Alcotest.test_case "registry duplicate pack name" `Quick
      test_registry_duplicate_pack_name;
    Alcotest.test_case "registry pack overrides builtin" `Quick
      test_registry_pack_overrides_builtin;
    Alcotest.test_case "registry failed reload keeps packs" `Quick
      test_registry_failed_reload_keeps_packs;
    Alcotest.test_case "golden: textediting" `Slow test_golden_textediting;
    Alcotest.test_case "golden: astmatcher" `Slow test_golden_astmatcher;
    Alcotest.test_case "committed example packs" `Quick test_committed_packs;
    Alcotest.test_case "dump keeps the eval envelope" `Quick test_dump_envelope;
    Alcotest.test_case "head productions = scan, built-ins and packs" `Quick
      test_head_productions;
    Alcotest.test_case "serve: version and v=1" `Quick test_serve_version_and_v;
    Alcotest.test_case "serve: packs and reload" `Quick
      test_serve_packs_and_reload;
    Alcotest.test_case "serve: reload under load" `Quick
      test_serve_reload_under_load;
    Alcotest.test_case "serve: reload during boot" `Quick
      test_serve_reload_during_boot;
    Alcotest.test_case "registry builtins stay lazy" `Quick
      test_registry_builtins_lazy;
  ]
