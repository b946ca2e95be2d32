(* Tests for dggt_autom: the compiled automaton's path enumeration must
   be byte-identical to the interpreted reversed DFS kept as the oracle
   Refgpath — on the Figure 4 fixture, on randomized grammars, under
   randomized tight limits, and across every API pair of the built-in
   domains — plus memo determinism, engine-level outcome equivalence,
   and the registry's digest-keyed automaton cache (pointer-equal reuse
   across unchanged reloads, recompile on content change). *)

open Dggt_grammar
module Autom = Dggt_autom.Autom
module Engine = Dggt_core.Engine
module Runner = Dggt_eval.Runner
module Domain = Dggt_domains.Domain
module Registry = Dggt_pack.Domain_registry
module Refgpath = Dggt_eval.Refgpath

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* same Figure 4 grammar as test_core / test_props *)
let fig4_bnf =
  {|
cmd        ::= insert ;
insert     ::= INSERT insert_arg ;
insert_arg ::= string pos iter ;
string     ::= STRING ;
pos        ::= position | START ;
position   ::= POSITION pos_arg ;
pos_arg    ::= after | startfrom ;
after      ::= AFTER string ;
startfrom  ::= STARTFROM string ;
iter       ::= iterscope | ALL ;
iterscope  ::= ITERATIONSCOPE scope ;
scope      ::= linescope | DOCSCOPE ;
|}

let fig4 =
  lazy (Ggraph.build (Result.get_ok (Cfg.of_text ~start:"cmd" fig4_bnf)))

let fig4_autom = lazy (Autom.compile (Lazy.force fig4))

let api_names g = List.map fst (Ggraph.api_nodes g)

(* one check per list, silent when the lists agree: the full pair
   sweeps compare hundreds of thousands of lists, and a logged
   assertion per path would write gigabytes of test output. Paths are
   compared as whole records. Equal records imply equal node chains
   (the claims' source nodes, then the last API) and equal edge sets,
   and so equal edge sequences: on a simple path an edge's source fixes
   its place. *)
let paths_equal name expected got =
  let same (a : Gpath.t) (b : Gpath.t) = a = b in
  let rec first_diff i = function
    | [], [] -> None
    | a :: xs, b :: ys when same a b -> first_diff (i + 1) (xs, ys)
    | _ -> Some i
  in
  match first_diff 0 (expected, got) with
  | None -> ()
  | Some i ->
      Alcotest.failf "%s: paths differ at index %d (%d expected, %d got)" name
        i (List.length expected) (List.length got)

(* every (API, API) pair of [g] agrees between DFS and table walk *)
let all_pairs_agree ?limits name g a =
  let apis = api_names g in
  List.iter
    (fun src_api ->
      List.iter
        (fun dst_api ->
          paths_equal
            (Printf.sprintf "%s %s->%s" name src_api dst_api)
            (Refgpath.search_between_apis ?limits g ~src_api ~dst_api)
            (Autom.paths_between_apis ?limits a ~src_api ~dst_api))
        apis)
    apis

(* ------------------------------------------------------------------ *)
(* equivalence on the fixture and the built-ins                       *)
(* ------------------------------------------------------------------ *)

let test_fig4_all_pairs () =
  all_pairs_agree "fig4" (Lazy.force fig4) (Lazy.force fig4_autom)

let test_fig4_from_root () =
  let g = Lazy.force fig4 and a = Lazy.force fig4_autom in
  for dst = 0 to Ggraph.node_count g - 1 do
    paths_equal
      (Printf.sprintf "fig4 root->%d" dst)
      (Refgpath.search_from_root g ~dst)
      (Autom.paths_from_root a ~dst)
  done

let test_textediting_all_pairs () =
  let g = Lazy.force Dggt_domains.Text_editing.domain.Domain.graph in
  all_pairs_agree "te" g (Autom.compile g)

(* 487 APIs make the exhaustive square 237,169 searches: all of them
   only under DGGT_GOLDEN_FULL=1, a seeded 400-pair sample otherwise.
   The sweep never repeats a pair, so its automaton keeps no memo (a
   full memo of default-limit path lists outgrows a small host).
   [pack_limits] runs the domain's own caps, the ones its queries'
   EdgeToPath runs under; otherwise the defaults. *)
let test_astmatcher_pairs ~pack_limits () =
  let dom = Dggt_domains.Astmatcher.domain in
  let g = Lazy.force dom.Domain.graph in
  let a = Autom.compile ~memo_cap:0 g in
  let limits =
    if pack_limits then Option.get dom.Domain.path_limits
    else Gpath.default_limits
  in
  if Sys.getenv_opt "DGGT_GOLDEN_FULL" = Some "1" then
    all_pairs_agree ~limits "am" g a
  else begin
    let apis = Array.of_list (api_names g) in
    let rng = Random.State.make [| 0x5eed |] in
    let n = Array.length apis in
    for _ = 1 to 400 do
      let src_api = apis.(Random.State.int rng n) in
      let dst_api = apis.(Random.State.int rng n) in
      paths_equal
        (Printf.sprintf "am %s->%s" src_api dst_api)
        (Refgpath.search_between_apis ~limits g ~src_api ~dst_api)
        (Autom.paths_between_apis ~limits a ~src_api ~dst_api)
    done
  end

(* ------------------------------------------------------------------ *)
(* randomized grammars and limits (QCheck)                            *)
(* ------------------------------------------------------------------ *)

(* a random grammar over nonterminals n0..n5 and APIs A0..A7: every
   nonterminal defined, 1-3 alternatives of 1-3 symbols each; cycles and
   unreachable rules are all legal and exactly what should stress the
   iterative-deepening port *)
let gen_grammar =
  let open QCheck.Gen in
  let nts = Array.init 6 (fun i -> Printf.sprintf "n%d" i) in
  let apis = Array.init 8 (fun i -> Printf.sprintf "A%d" i) in
  let symbol =
    frequency
      [ (1, map (Array.get nts) (int_bound 5));
        (1, map (Array.get apis) (int_bound 7)) ]
  in
  let alternative = map (String.concat " ") (list_size (int_range 1 3) symbol) in
  let rule nt =
    map
      (fun alts -> Printf.sprintf "%s ::= %s ;" nt (String.concat " | " alts))
      (list_size (int_range 1 3) alternative)
  in
  map (String.concat "\n")
    (flatten_l (Array.to_list (Array.map rule nts)))

let gen_limits =
  let open QCheck.Gen in
  map
    (fun (max_nodes, (max_paths, max_steps)) ->
      { Gpath.max_nodes; max_paths; max_steps })
    (pair (int_range 1 12) (pair (int_range 1 40) (int_range 1 2000)))

let prop_random_grammar =
  QCheck.Test.make ~name:"random grammars: automaton = DFS (default limits)"
    ~count:60
    (QCheck.make ~print:Fun.id gen_grammar)
    (fun bnf ->
      match Cfg.of_text ~start:"n0" bnf with
      | Error _ -> true (* e.g. "n0" never produces an API; not our concern *)
      | exception _ -> true
      | Ok cfg ->
          let g = Ggraph.build cfg in
          let a = Autom.compile g in
          let apis = api_names g in
          List.for_all
            (fun src_api ->
              List.for_all
                (fun dst_api ->
                  Refgpath.search_between_apis g ~src_api ~dst_api
                  = Autom.paths_between_apis a ~src_api ~dst_api)
                apis)
            apis
          && List.for_all
               (fun dst ->
                 Refgpath.search_from_root g ~dst = Autom.paths_from_root a ~dst)
               (List.init (Ggraph.node_count g) Fun.id))

let prop_random_limits =
  (* truncation order under every cap must match: limits key the memo, so
     each distinct triple exercises a fresh table walk *)
  QCheck.Test.make ~name:"fig4: automaton = DFS under random tight limits"
    ~count:200
    (QCheck.make
       (QCheck.Gen.pair gen_limits
          (QCheck.Gen.pair (QCheck.Gen.int_bound 9) (QCheck.Gen.int_bound 9))))
    (fun (limits, (i, j)) ->
      let g = Lazy.force fig4 in
      let a = Lazy.force fig4_autom in
      let apis = Array.of_list (api_names g) in
      let src_api = apis.(i mod Array.length apis) in
      let dst_api = apis.(j mod Array.length apis) in
      Refgpath.search_between_apis ~limits g ~src_api ~dst_api
      = Autom.paths_between_apis ~limits a ~src_api ~dst_api)

(* ------------------------------------------------------------------ *)
(* memo and introspection                                             *)
(* ------------------------------------------------------------------ *)

let test_memo_determinism () =
  let a = Autom.compile (Lazy.force fig4) in
  let before = Autom.memo_counters a in
  let p1 = Autom.paths_between_apis a ~src_api:"INSERT" ~dst_api:"STRING" in
  let p2 = Autom.paths_between_apis a ~src_api:"INSERT" ~dst_api:"STRING" in
  check_b "second call is the memoized list" true (p1 == p2);
  let after = Autom.memo_counters a in
  check_b "hits advanced" true (after.Autom.hits > before.Autom.hits);
  check_b "misses advanced" true (after.Autom.misses > before.Autom.misses);
  check_b "entries bounded by misses" true
    (after.Autom.entries <= after.Autom.misses);
  (* distinct limits are distinct memo keys, not a stale-entry hit *)
  let tight = { Gpath.max_nodes = 3; max_paths = 1; max_steps = 50 } in
  let p3 =
    Autom.paths_between_apis ~limits:tight a ~src_api:"INSERT"
      ~dst_api:"STRING"
  in
  check_b "tight limits see their own entry" false (p1 == p3)

let test_digest_and_stats () =
  let g = Lazy.force fig4 in
  let a1 = Autom.compile g and a2 = Autom.compile g in
  check_s "digest is structural" (Autom.digest a1) (Autom.digest a2);
  check_b "graph is the compiled graph" true (Autom.graph a1 == g);
  check_b "compile time recorded" true (Autom.compile_time_s a1 >= 0.0);
  let te = Lazy.force Dggt_domains.Text_editing.domain.Domain.graph in
  check_b "different grammars, different digests" true
    (Autom.digest a1 <> Autom.digest (Autom.compile te));
  check_b "pp_stats prints" true
    (String.length (Format.asprintf "%a" Autom.pp_stats a1) > 0)

(* The built-ins' digests as literals (the values BENCH_automaton.json
   records): a compile that changes a single graph byte, or a digest
   writer that renders one differently, fails here. What /version
   reports. *)
let test_builtin_digests () =
  List.iter
    (fun ((d : Domain.t), pinned) ->
      check_s (d.Domain.name ^ " digest") pinned
        (Autom.digest (Autom.compile (Lazy.force d.Domain.graph))))
    [
      (Dggt_domains.Astmatcher.domain, "d7a5a49959e42adde33e43ea574002b9");
      (Dggt_domains.Text_editing.domain, "0add585ad62d7c32a4c6345ecfc6cb9b");
    ]

(* ------------------------------------------------------------------ *)
(* engine-level equivalence                                           *)
(* ------------------------------------------------------------------ *)

(* The two pipelines [bench automaton] compares: the reference answers
   every EdgeToPath search with the frozen DFS through the engine's
   edge2path hook, the other runs the domain's automaton. *)
let engine_equiv (dom : Domain.t) () =
  let dom =
    { dom with Domain.queries = List.filteri (fun i _ -> i < 8) dom.Domain.queries }
  in
  let tweak c = { c with Engine.timeout_s = None; max_steps = Some 100_000 } in
  let plain =
    Runner.run_domain ~tweak ~caches:(Refgpath.lookups dom) dom Engine.Dggt_alg
  in
  let fast = Runner.run_domain ~tweak dom Engine.Dggt_alg in
  List.iter2
    (fun (s : Runner.qresult) (p : Runner.qresult) ->
      let q = s.Runner.query.Domain.text in
      Alcotest.(check (option string))
        (q ^ ": code") s.Runner.outcome.Engine.code p.Runner.outcome.Engine.code;
      Alcotest.(check (option int))
        (q ^ ": cgt_size") s.Runner.outcome.Engine.cgt_size
        p.Runner.outcome.Engine.cgt_size;
      check_b (q ^ ": timed_out") s.Runner.outcome.Engine.timed_out
        p.Runner.outcome.Engine.timed_out;
      Alcotest.(check (option string))
        (q ^ ": failure") s.Runner.outcome.Engine.failure
        p.Runner.outcome.Engine.failure;
      check_b (q ^ ": stats") true
        (s.Runner.outcome.Engine.stats = p.Runner.outcome.Engine.stats))
    plain.Runner.results fast.Runner.results

(* ------------------------------------------------------------------ *)
(* registry cache: compile once per content digest                    *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dggt_autom_test_%d" (Unix.getpid ()))
  in
  if Sys.file_exists d then
    Sys.readdir d |> Array.iter (fun sub ->
        let p = Filename.concat d sub in
        if Sys.is_directory p then
          Sys.readdir p |> Array.iter (fun f -> Sys.remove (Filename.concat p f)))
  else Unix.mkdir d 0o755;
  d

let test_registry_cache () =
  let dir = temp_dir () in
  Dggt_pack.Dump.dump
    ~dir:(Filename.concat dir "te")
    Dggt_domains.Text_editing.domain;
  let reg = Registry.create ~builtins:[] () in
  (match Registry.load_dir reg dir with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Dggt_domains.Err.to_string e));
  let entry () =
    match Registry.find_entry reg "textediting" with
    | Some e -> e
    | None -> Alcotest.fail "pack entry missing"
  in
  let a1, fresh1 = Registry.automaton reg (entry ()) in
  check_b "first call compiles" true fresh1;
  let a2, fresh2 = Registry.automaton reg (entry ()) in
  check_b "second call reuses" false fresh2;
  check_b "second call pointer-equal" true (a1 == a2);
  (* reload with an unchanged pack: same digest, same automaton *)
  (match Registry.load_dir reg dir with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Dggt_domains.Err.to_string e));
  let a3, fresh3 = Registry.automaton reg (entry ()) in
  check_b "unchanged reload reuses" false fresh3;
  check_b "unchanged reload pointer-equal" true (a1 == a3);
  (* touch the grammar: new digest, fresh compile *)
  let bnf = Filename.concat (Filename.concat dir "te") "grammar.bnf" in
  let ic = open_in bnf in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out bnf in
  output_string oc (text ^ "\nextra_rule ::= MOVECURSOR ;\n");
  close_out oc;
  (match Registry.load_dir reg dir with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Dggt_domains.Err.to_string e));
  let a4, fresh4 = Registry.automaton reg (entry ()) in
  check_b "changed grammar recompiles" true fresh4;
  check_b "changed grammar, new automaton" false (a1 == a4);
  check_b "changed grammar, new digest" false
    (Autom.digest a1 = Autom.digest a4)

let suite =
  [
    ("fig4: automaton = DFS on every API pair", `Quick, test_fig4_all_pairs);
    ("fig4: automaton = DFS from root", `Quick, test_fig4_from_root);
    ( "textediting: automaton = DFS on every API pair",
      `Quick,
      test_textediting_all_pairs );
    ( "astmatcher: automaton = DFS (sampled; DGGT_GOLDEN_FULL=1 for all)",
      `Slow,
      test_astmatcher_pairs ~pack_limits:false );
    ( "astmatcher: automaton = DFS, pack limits (sampled; DGGT_GOLDEN_FULL=1 \
       for all)",
      `Slow,
      test_astmatcher_pairs ~pack_limits:true );
    ("memo: determinism and counters", `Quick, test_memo_determinism);
    ("digest: structural, stats printable", `Quick, test_digest_and_stats);
    ("digest: built-ins pinned", `Quick, test_builtin_digests);
    ( "engine: autom = plain, DGGT textediting",
      `Quick,
      engine_equiv Dggt_domains.Text_editing.domain );
    ( "engine: autom = plain, DGGT astmatcher",
      `Quick,
      engine_equiv Dggt_domains.Astmatcher.domain );
    ("registry: one compile per content digest", `Quick, test_registry_cache);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_random_grammar; prop_random_limits ]
