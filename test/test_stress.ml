(* Failure injection and structural introspection: malformed inputs,
   budget exhaustion at every stage, degenerate grammars, and Figure 5-style
   assertions on the dynamic grammar graph DGGT builds. *)

open Dggt_grammar
open Dggt_core
module Nlu = Dggt_nlu

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

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
linescope  ::= LINESCOPE ;
|}

let graph = lazy (Ggraph.build (Result.get_ok (Cfg.of_text ~start:"cmd" fig4_bnf)))
let autom = lazy (Dggt_autom.Autom.compile (Lazy.force graph))

let doc =
  lazy
    (Apidoc.make ~literal_apis:[ "STRING" ]
       [
         ("INSERT", "insert add append a string at a position");
         ("STRING", "a literal string of characters text");
         ("START", "the start beginning of the scope");
         ("POSITION", "a position in the text");
         ("AFTER", "position after a string");
         ("STARTFROM", "position starting from a string");
         ("ALL", "all occurrences");
         ("ITERATIONSCOPE", "iterate over every each scope");
         ("LINESCOPE", "line scope each line");
         ("DOCSCOPE", "whole document file scope");
       ])

(* ------------------------------------------------------------------ *)
(* Dynamic grammar graph structure (paper Figure 5)                   *)
(* ------------------------------------------------------------------ *)

let build_dgg query =
  let g = Lazy.force graph in
  let dg = Queryprune.prune (Nlu.Depparser.parse query) in
  let w2a = Word2api.build (Lazy.force doc) dg in
  let e2p = Edge2path.build (Lazy.force autom) dg w2a in
  let stats = Stats.create () in
  let budget = Dggt_util.Budget.unlimited () in
  let res, dyng = Dggt.synthesize_with_graph ~budget ~stats g dg w2a e2p in
  (res, dyng, dg, stats)

let test_dgg_structure () =
  (* "insert '-' at the start": sibling edges under insert (literal and
     position) — the graph must contain the start node, API nodes for every
     candidate interpretation, and partial-CGT nodes for the surviving
     sibling combinations. Only the API nodes are stored; the start node
     and the combination nodes are counted: the node count exceeds the
     start node and the API nodes by one per merged combination, and each
     brings at least one path edge. *)
  check_i "one start node" 1 (Dgg.node_count (Dgg.create Semiring.Min_size));
  let res, dyng, dg, stats = build_dgg "insert \"-\" at the start" in
  check_b "synthesis succeeded" true (res <> None);
  let apis = List.length (Dgg.nodes dyng) in
  check_b "API nodes for candidate interpretations" true (apis >= 4);
  let pcgts = Dgg.node_count dyng - 1 - apis in
  check_b "partial-CGT nodes for sibling combinations" true (pcgts >= 1);
  check_b "an edge per partial-CGT node at least" true
    (stats.Stats.dgg_edges >= pcgts);
  (* the winning assignment covers only nodes of the dependency graph and
     the root's chosen API node has the reported size *)
  (match res with
  | Some r ->
      List.iter
        (fun (node, _) ->
          check_b "assignment references dep nodes" true (Nlu.Depgraph.mem dg node))
        r.Synres.assignment;
      check_i "size equals CGT's API count" r.Synres.size
        (Dggt_eval.Refcgt.api_size (Lazy.force graph) r.Synres.cgt)
  | None -> ())

let test_dgg_memoizes_best () =
  (* the sealed cell API: for any solved API node, its best candidate
     really has the recorded size/coverage, and the choices list is
     ordered best-first. *)
  let _, dyng, _, _ = build_dgg "insert \"-\" at the start of each line" in
  List.iter
    (fun (n : Dgg.node) ->
      if Dgg.solved n then begin
        let c = Option.get (Dgg.best n) in
        check_i "size consistent with stored CGT" (Dgg.size n)
          (Dggt_eval.Refcgt.api_size (Lazy.force graph) c.Semiring.cgt);
        check_b "assignment nonempty when solved" true
          (c.Semiring.assignment <> []);
        check_b "best heads the choices" true
          (match Dgg.choices n with
          | h :: _ -> h == c
          | [] -> false)
      end)
    (Dgg.nodes dyng)

let test_dgg_stats_structure () =
  let _, dyng, _, stats = build_dgg "insert \"-\" at the start of each line" in
  check_i "stats node count matches graph" stats.Stats.dgg_nodes
    (Dgg.node_count dyng);
  check_i "stats edge count matches graph" stats.Stats.dgg_edges
    (Dgg.edge_count dyng);
  check_b "pruning monotone" true
    (stats.Stats.combos_total >= stats.Stats.combos_after_gprune
    && stats.Stats.combos_after_gprune >= stats.Stats.combos_after_sprune)

(* ------------------------------------------------------------------ *)
(* Budget exhaustion at every stage                                   *)
(* ------------------------------------------------------------------ *)

(* one plain text request against a bare target *)
let synth cfg target q =
  Engine.respond { Engine.cfg; target }
    { Engine.input = Engine.Text q; mode = Engine.Plain }

let test_budget_exhaustion_ladder () =
  (* with step budgets from tiny to generous, the engine must either time
     out cleanly or produce the same answer as the unlimited run — never
     crash, never return garbage *)
  let tgt = Engine.target (Lazy.force autom) (Lazy.force doc) in
  let q = "insert \"-\" at the start of each line" in
  let reference =
    synth { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = None } tgt q
  in
  List.iter
    (fun steps ->
      let cfg =
        {
          (Engine.default Engine.Dggt_alg) with
          Engine.timeout_s = None;
          max_steps = Some steps;
        }
      in
      let o = synth cfg tgt q in
      if not o.Engine.timed_out then
        Alcotest.(check (option string))
          (Printf.sprintf "steps=%d agrees with unlimited" steps)
          reference.Engine.code o.Engine.code)
    [ 1; 2; 5; 10; 50; 100; 1000; 100_000 ]

let test_hisyn_budget_ladder () =
  let tgt = Engine.target (Lazy.force autom) (Lazy.force doc) in
  let q = "insert \"-\" at the start" in
  List.iter
    (fun steps ->
      let cfg =
        {
          (Engine.default Engine.Hisyn_alg) with
          Engine.timeout_s = None;
          max_steps = Some steps;
        }
      in
      let o = synth cfg tgt q in
      check_b "timeout or code" true (o.Engine.timed_out || o.Engine.code <> None))
    [ 1; 3; 7; 19; 1_000_000 ]

(* ------------------------------------------------------------------ *)
(* Degenerate grammars and inputs                                     *)
(* ------------------------------------------------------------------ *)

let test_single_rule_grammar () =
  let cfg = Result.get_ok (Cfg.of_text ~start:"s" "s ::= ONLY ;") in
  let g = Ggraph.build cfg in
  let d = Apidoc.make [ ("ONLY", "the only thing there is") ] in
  let o =
    synth (Engine.default Engine.Dggt_alg) (Engine.target (Dggt_autom.Autom.compile g) d)
      "the only thing"
  in
  Alcotest.(check (option string)) "trivial grammar synthesizes" (Some "ONLY()")
    o.Engine.code

let test_self_recursive_grammar () =
  (* e ::= WRAP e | LIT: unbounded derivations; path caps keep everything
     terminating, and synthesis still works *)
  let cfg = Result.get_ok (Cfg.of_text ~start:"e" "e ::= wrap | LIT ;\nwrap ::= WRAP e ;") in
  let g = Ggraph.build cfg in
  let d =
    Apidoc.make [ ("WRAP", "wrap the inner expression"); ("LIT", "a literal leaf value") ]
  in
  let o =
    synth (Engine.default Engine.Dggt_alg) (Engine.target (Dggt_autom.Autom.compile g) d)
      "wrap a literal"
  in
  Alcotest.(check (option string)) "recursive grammar" (Some "WRAP(LIT())") o.Engine.code

let test_absurd_inputs_total () =
  let tgt = Engine.target (Lazy.force autom) (Lazy.force doc) in
  let cfg = { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some 3.0 } in
  (* outcome is well-formed either way *)
  let well_formed (o : Engine.outcome) =
    check_b "code xor failure" true
      ((o.Engine.code <> None) <> (o.Engine.failure <> None))
  in
  List.iter
    (fun q -> well_formed (synth cfg tgt q))
    [
      "";
      "????";
      String.concat " " (List.init 120 (fun i -> if i mod 2 = 0 then "insert" else "line"));
      "\"\" \"\" \"\"";
      "insert insert insert insert";
      "\xe2\x82\xac \xc3\xbc \xf0\x9f\x98\x80";
      String.make 4096 'a';
    ];
  (* Long coordinated lists on the built-in domains. Every listed word is
     an orphan with several governor candidates, so the placements
     multiply: relocation must build only the first eight dependency
     graphs, and the product of group sizes must not wrap the counters
     negative. *)
  List.iter
    (fun (dom, q, graphs) ->
      let o =
        Engine.respond (Dggt_domains.Domain.configure dom cfg)
          { Engine.input = Engine.Text q; mode = Engine.Plain }
      in
      well_formed o;
      check_b "combos_total non-negative" true (o.Engine.stats.Stats.combos_total >= 0);
      Option.iter (fun n -> check_i "reloc_graphs" n o.Engine.stats.Stats.reloc_graphs) graphs)
    [
      ( Dggt_domains.Text_editing.domain,
        "insert a colon after each word, number, line, sentence, character, \
         digit, space, tab, comma, period, letter, token, paragraph, string, \
         word and number",
        Some 8 );
      ( Dggt_domains.Astmatcher.domain,
        "find call expressions, declarations, statements, loops, variables, \
         functions, classes, methods, fields, parameters, casts, literals, \
         operators, members, templates and records",
        None );
    ]

let test_empty_document () =
  let g = Lazy.force graph in
  let d = Apidoc.make [] in
  let o =
    synth (Engine.default Engine.Dggt_alg) (Engine.target (Dggt_autom.Autom.compile g) d)
      "insert a string"
  in
  check_b "no candidates -> clean failure" true (o.Engine.code = None)

let test_doc_grammar_mismatch () =
  (* a document mentioning APIs the grammar lacks must not crash *)
  let g = Lazy.force graph in
  let d = Apidoc.make [ ("GHOST", "a phantom api that the grammar does not know") ] in
  let o =
    synth (Engine.default Engine.Dggt_alg) (Engine.target (Dggt_autom.Autom.compile g) d)
      "a phantom api"
  in
  check_b "unknown APIs ignored" true (o.Engine.code = None)

let suite =
  [
    Alcotest.test_case "dgg structure (Fig 5)" `Quick test_dgg_structure;
    Alcotest.test_case "dgg memoization consistent" `Quick test_dgg_memoizes_best;
    Alcotest.test_case "dgg stats mirror graph" `Quick test_dgg_stats_structure;
    Alcotest.test_case "DGGT budget ladder" `Quick test_budget_exhaustion_ladder;
    Alcotest.test_case "HISyn budget ladder" `Quick test_hisyn_budget_ladder;
    Alcotest.test_case "single-rule grammar" `Quick test_single_rule_grammar;
    Alcotest.test_case "self-recursive grammar" `Quick test_self_recursive_grammar;
    Alcotest.test_case "absurd inputs are total" `Quick test_absurd_inputs_total;
    Alcotest.test_case "empty document" `Quick test_empty_document;
    Alcotest.test_case "doc/grammar mismatch" `Quick test_doc_grammar_mismatch;
  ]
