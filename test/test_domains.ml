(* Tests for the two benchmark domains: grammar well-formedness, document
   consistency, ground-truth validity, and end-to-end synthesis on the
   paper's published examples. *)

open Dggt_grammar
open Dggt_core
open Dggt_domains

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let te = Text_editing.domain
let am = Astmatcher.domain

let synth dom alg q =
  Engine.respond
    (Domain.configure dom
       { (Engine.default alg) with Engine.timeout_s = Some 10.0 })
    { Engine.input = Engine.Text q; mode = Engine.Plain }

(* ------------------------------------------------------------------ *)
(* Structural well-formedness                                         *)
(* ------------------------------------------------------------------ *)

let test_te_counts () =
  check_i "TextEditing has 52 APIs (paper: 52)" 52 (Domain.api_count te);
  check_i "TextEditing has 200 queries (paper: 200)" 200 (Domain.query_count te)

let test_am_counts () =
  (* the paper reports 505 matcher APIs; our reconstruction of the public
     vocabulary lands close *)
  let n = Domain.api_count am in
  check_b (Printf.sprintf "ASTMatcher has ~505 APIs (got %d)" n) true
    (n >= 450 && n <= 520);
  check_i "ASTMatcher has 100 queries (paper: 100)" 100 (Domain.query_count am)

let test_grammars_build () =
  List.iter
    (fun (dom : Domain.t) ->
      let g = Lazy.force dom.Domain.graph in
      check_b (dom.Domain.name ^ " grammar graph nonempty") true
        (Ggraph.node_count g > 0 && Ggraph.edge_count g > 0))
    [ te; am ]

let test_doc_covers_grammar () =
  (* every grammar terminal has a document entry and vice versa *)
  List.iter
    (fun (dom : Domain.t) ->
      let g = Lazy.force dom.Domain.graph in
      let doc = Lazy.force dom.Domain.doc in
      List.iter
        (fun (api, _) ->
          check_b
            (Printf.sprintf "%s: %s documented" dom.Domain.name api)
            true
            (Apidoc.find doc api <> None))
        (Ggraph.api_nodes g);
      List.iter
        (fun (e : Apidoc.entry) ->
          check_b
            (Printf.sprintf "%s: %s in grammar" dom.Domain.name e.Apidoc.api)
            true
            (Ggraph.api_node g e.Apidoc.api <> None))
        (Apidoc.entries doc))
    [ te; am ]

let test_query_ids () =
  List.iter
    (fun (dom : Domain.t) ->
      let ids = List.map (fun (q : Domain.query) -> q.Domain.id) dom.Domain.queries in
      check_b (dom.Domain.name ^ " ids unique") true
        (List.length ids = List.length (List.sort_uniq compare ids)))
    [ te; am ]

let test_ground_truths_parse () =
  (* every expected codelet must be syntactically valid and use only
     documented APIs *)
  List.iter
    (fun (dom : Domain.t) ->
      let doc = Lazy.force dom.Domain.doc in
      List.iter
        (fun (q : Domain.query) ->
          let e = Domain.expected_expr q (* raises on bad truth *) in
          List.iter
            (fun api ->
              check_b
                (Printf.sprintf "%s #%d uses documented API %s" dom.Domain.name
                   q.Domain.id api)
                true
                (Apidoc.find doc api <> None))
            (Dggt_util.Listutil.uniq (Tree2expr.api_multiset e)))
        dom.Domain.queries)
    [ te; am ]

let test_am_grammar_shape () =
  (* every node matcher (a noun API) X has n_X ::= X a_X, and a_X occurs
     on no other right-hand side: an argument nonterminal shared by two
     node matchers would get two parents as soon as a query chains them,
     and the merged CGT would stop being a tree *)
  let g = Lazy.force am.Domain.graph in
  let cfg = g.Ggraph.cfg in
  let uses = Hashtbl.create 1024 in
  Array.iter
    (fun (p : Cfg.production) ->
      List.iter
        (function Cfg.N n -> Hashtbl.add uses n p.Cfg.lhs | Cfg.T _ -> ())
        p.Cfg.rhs)
    cfg.Cfg.productions;
  let nouns =
    List.filter
      (fun (e : Apidoc.entry) -> e.Apidoc.pos_pref = Apidoc.Nounish)
      (Apidoc.entries (Lazy.force am.Domain.doc))
  in
  check_b "node matchers present" true (List.length nouns > 100);
  List.iter
    (fun (e : Apidoc.entry) ->
      let x = e.Apidoc.api in
      let n_x = "n_" ^ x and a_x = "a_" ^ x in
      check_b (n_x ^ " ::= " ^ x ^ " " ^ a_x) true
        (List.map
           (fun (p : Cfg.production) -> p.Cfg.rhs)
           (Cfg.productions_of cfg n_x)
        = [ [ Cfg.T x; Cfg.N a_x ] ]);
      check_b (a_x ^ " defined") true (Cfg.is_nonterminal cfg a_x);
      check_b (a_x ^ " private to " ^ n_x) true
        (Hashtbl.find_all uses a_x = [ n_x ]))
    nouns;
  check_b "__strlit present" true (Ggraph.api_node g "__strlit" <> None);
  check_b "__intlit present" true (Ggraph.api_node g "__intlit" <> None)

let test_am_kind_discipline () =
  (* a traversal matcher's target nonterminal matches its declared kind:
     hasBody leads to statements, hasDeclaration to declarations *)
  let autom = Lazy.force am.Domain.autom in
  let search a b = Dggt_autom.Autom.paths_between_apis autom ~src_api:a ~dst_api:b in
  let path_exists a b = search a b <> [] in
  check_b "hasBody -> compoundStmt" true (path_exists "hasBody" "compoundStmt");
  check_b "hasDeclaration -> functionDecl" true (path_exists "hasDeclaration" "functionDecl");
  check_b "returns -> pointerType" true (path_exists "returns" "pointerType");
  (* kind discipline: a type-only traversal reaches a statement only by
     detouring through a polymorphic traversal (has/hasDescendant), never
     directly *)
  check_b "pointee -> breakStmt only via detour" true
    (search "pointee" "breakStmt"
    |> List.for_all (fun p -> Dggt_grammar.Gpath.size p > 2));
  (* narrowing applicability: hasName under decl matchers, not type ones *)
  check_b "functionDecl -> hasName" true (path_exists "functionDecl" "hasName");
  check_b "pointerType -> direct hasName impossible" true
    (match search "pointerType" "hasName" with
    | [] -> true
    | ps -> List.for_all (fun p -> Dggt_grammar.Gpath.size p > 2) ps)

let test_defaults_parse () =
  List.iter
    (fun (nt, text) ->
      match Tree2expr.parse text with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "default for %s unparsable: %s" nt m)
    te.Domain.defaults

(* ------------------------------------------------------------------ *)
(* End-to-end: the paper's published examples                         *)
(* ------------------------------------------------------------------ *)

let expect_code dom alg query code =
  let o = synth dom alg query in
  check_s query code (Option.value o.Engine.code ~default:"<fail>")

let test_paper_example_1 () =
  (* Table I example 1 -- the running example of Figs. 3-5 *)
  expect_code te Engine.Dggt_alg "Append \":\" in every line containing numerals."
    "INSERT(STRING(\":\"), END(), ITERATIONSCOPE(LINESCOPE(), BCONDOCCURRENCE(CONTAINS(NUMBERTOKEN()), ALL())))"

let test_paper_example_2 () =
  expect_code te Engine.Dggt_alg
    "if a sentence starts with \"-\", add \":\" after 14 characters"
    "INSERT(STRING(\":\"), AFTER(CHARNUM(NUMBER(14))), ITERATIONSCOPE(SENTENCESCOPE(), BCONDOCCURRENCE(STARTSWITH(PATTERN(\"-\")), ALL())))"

let test_paper_example_5 () =
  expect_code am Engine.Dggt_alg
    "find cxx constructor expressions which declare a cxx method named \"PI\""
    "cxxConstructExpr(hasDeclaration(cxxMethodDecl(hasName(\"PI\"))))"

let test_paper_example_6 () =
  expect_code am Engine.Dggt_alg
    "search for call expressions whose argument is a float literal"
    "callExpr(hasArgument(floatLiteral()))"

let test_paper_example_7 () =
  expect_code am Engine.Dggt_alg "list all binary operators named \"*\""
    "binaryOperator(hasOperatorName(\"*\"))"

(* ------------------------------------------------------------------ *)
(* Accuracy floor on samples (the full sweep lives in the bench)      *)
(* ------------------------------------------------------------------ *)

let sample_accuracy dom n =
  let qs = Dggt_util.Listutil.take n dom.Domain.queries in
  let ok =
    List.length
      (List.filter
         (fun (q : Domain.query) ->
           let o = synth dom Engine.Dggt_alg q.Domain.text in
           Domain.check dom o.Engine.expr q)
         qs)
  in
  (ok, List.length qs)

let test_te_sample_accuracy () =
  let ok, n = sample_accuracy te 25 in
  check_b (Printf.sprintf "TextEditing sample: %d/%d" ok n) true (ok >= n * 3 / 4)

let test_am_sample_accuracy () =
  let ok, n = sample_accuracy am 25 in
  check_b (Printf.sprintf "ASTMatcher sample: %d/%d" ok n) true (ok >= n * 3 / 4)

(* DGGT must finish every sampled query well inside the interactive
   threshold the paper targets (10 s; typical times are milliseconds). *)
let test_dggt_interactive_speed () =
  List.iter
    (fun (dom : Domain.t) ->
      List.iter
        (fun (q : Domain.query) ->
          let o = synth dom Engine.Dggt_alg q.Domain.text in
          check_b
            (Printf.sprintf "%s #%d under 10 s (%.3fs)" dom.Domain.name
               q.Domain.id o.Engine.time_s)
            true (o.Engine.time_s < 10.0))
        (Dggt_util.Listutil.take 15 dom.Domain.queries))
    [ te; am ]

let suite =
  [
    Alcotest.test_case "TextEditing counts" `Quick test_te_counts;
    Alcotest.test_case "ASTMatcher counts" `Quick test_am_counts;
    Alcotest.test_case "grammars build" `Quick test_grammars_build;
    Alcotest.test_case "doc <-> grammar closure" `Quick test_doc_covers_grammar;
    Alcotest.test_case "query ids unique" `Quick test_query_ids;
    Alcotest.test_case "ground truths parse + documented" `Quick test_ground_truths_parse;
    Alcotest.test_case "defaults parse" `Quick test_defaults_parse;
    Alcotest.test_case "ASTMatcher grammar shape" `Quick test_am_grammar_shape;
    Alcotest.test_case "ASTMatcher kind discipline" `Quick test_am_kind_discipline;
    Alcotest.test_case "paper example 1 (TextEditing)" `Quick test_paper_example_1;
    Alcotest.test_case "paper example 2 (TextEditing)" `Quick test_paper_example_2;
    Alcotest.test_case "paper example 5 (ASTMatcher)" `Quick test_paper_example_5;
    Alcotest.test_case "paper example 6 (ASTMatcher)" `Quick test_paper_example_6;
    Alcotest.test_case "paper example 7 (ASTMatcher)" `Quick test_paper_example_7;
    Alcotest.test_case "TextEditing sample accuracy" `Slow test_te_sample_accuracy;
    Alcotest.test_case "ASTMatcher sample accuracy" `Slow test_am_sample_accuracy;
    Alcotest.test_case "DGGT interactive speed" `Slow test_dggt_interactive_speed;
  ]
