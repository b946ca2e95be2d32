(* Tests for dggt_core: the six-step pipeline, both engines, and the three
   optimizations. The fixture grammar is the paper's Figure 4 fragment. *)

open Dggt_grammar
open Dggt_core
module Nlu = Dggt_nlu

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

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

let fig4_graph =
  lazy
    (let cfg = Result.get_ok (Cfg.of_text ~start:"cmd" fig4_bnf) in
     Ggraph.build cfg)

let fig4_autom = lazy (Dggt_autom.Autom.compile (Lazy.force fig4_graph))

(* the grammar paths between two Figure 4 APIs *)
let search a b =
  Dggt_autom.Autom.paths_between_apis (Lazy.force fig4_autom) ~src_api:a
    ~dst_api:b

let fig4_doc =
  lazy
    (Apidoc.make ~literal_apis:[ "STRING" ]
       [
         ("INSERT", "insert add append a string at a position");
         ("STRING", "a literal string of characters text");
         ("START", "the start beginning of the scope");
         ("POSITION", "a position in the text");
         ("AFTER", "position after a string");
         ("STARTFROM", "position starting from a string");
         ("ALL", "all occurrences everywhere");
         ("ITERATIONSCOPE", "iterate over every each scope");
         ("LINESCOPE", "line scope each line");
         ("DOCSCOPE", "whole document file scope");
       ])

let engine_cfg alg = { (Engine.default alg) with Engine.timeout_s = Some 5.0 }

let fig4_target =
  lazy (Engine.target (Lazy.force fig4_autom) (Lazy.force fig4_doc))

let respond cfg mode q =
  Engine.respond
    { Engine.cfg; target = Lazy.force fig4_target }
    { Engine.input = Engine.Text q; mode }

let synth alg q = respond (engine_cfg alg) Engine.Plain q

let ranked ~k q =
  (respond (engine_cfg Engine.Dggt_alg) (Engine.Ranked k) q).Engine.ranked

(* ------------------------------------------------------------------ *)
(* Apidoc                                                             *)
(* ------------------------------------------------------------------ *)

let test_apidoc_keywords () =
  let kws = Apidoc.derive_keywords ~api:"IterationScope" ~description:"iterate over every scope" in
  check_b "description words" true (List.mem "iterate" kws && List.mem "scope" kws);
  check_b "function words dropped" false (List.mem "over" kws);
  check_b "every kept" true (List.mem "every" kws);
  (* name subtokens live in a separate field *)
  let doc = Apidoc.make [ ("IterationScope", "iterate over every scope") ] in
  (match Apidoc.find doc "IterationScope" with
  | Some e ->
      check_b "name subtokens" true
        (e.Apidoc.name_keywords = [ "iteration"; "scope" ])
  | None -> Alcotest.fail "entry missing");
  (* plural description words are lemmatized *)
  let kws = Apidoc.derive_keywords ~api:"X" ~description:"matches expressions" in
  check_b "lemmatized" true (List.mem "expression" kws)

let test_apidoc_lookup () =
  let doc = Lazy.force fig4_doc in
  check_i "size" 10 (Apidoc.size doc);
  check_b "find" true (Apidoc.find doc "INSERT" <> None);
  check_b "find missing" true (Apidoc.find doc "NOPE" = None);
  Alcotest.(check (list string)) "literal apis" [ "STRING" ] (Apidoc.literal_apis doc);
  check_b "keywords_of missing empty" true (Apidoc.keywords_of doc "NOPE" = [])

(* ------------------------------------------------------------------ *)
(* Queryprune                                                         *)
(* ------------------------------------------------------------------ *)

let texts (g : Nlu.Depgraph.t) =
  List.map (fun (n : Nlu.Depgraph.node) -> n.Nlu.Depgraph.text) g.Nlu.Depgraph.nodes

let test_queryprune_function_words () =
  let g = Nlu.Depparser.parse "insert a string at the start of each line" in
  let p = Queryprune.prune g in
  let kept = texts p in
  check_b "verbs survive" true (List.mem "insert" kept);
  check_b "nouns survive" true (List.mem "string" kept && List.mem "line" kept);
  check_b "quantifier survives" true (List.mem "each" kept);
  check_b "articles dropped" false (List.mem "a" kept || List.mem "the" kept);
  check_b "prepositions dropped" false (List.mem "at" kept || List.mem "of" kept);
  check_b "still a tree" true (Nlu.Depgraph.is_tree p)

let test_queryprune_reconnects () =
  (* "argument is a float literal": pruning the copula must splice
     "literal" up to "argument" *)
  let g = Nlu.Depparser.parse "search for call expressions whose argument is a float literal" in
  let p = Queryprune.prune g in
  let id_of txt =
    (List.find (fun (n : Nlu.Depgraph.node) -> n.Nlu.Depgraph.text = txt) p.Nlu.Depgraph.nodes).Nlu.Depgraph.id
  in
  check_b "copula gone" false (List.mem "is" (texts p));
  match Nlu.Depgraph.parent p (id_of "literal") with
  | Some e -> check_s "literal reattached" "argument" (Nlu.Depgraph.node p e.Nlu.Depgraph.gov).Nlu.Depgraph.text
  | None -> Alcotest.fail "literal lost its governor"

let test_queryprune_stopword_root () =
  let g = Nlu.Depparser.parse "please delete the first word" in
  let p = Queryprune.prune g in
  check_s "root promoted to delete" "delete"
    (Nlu.Depgraph.node p p.Nlu.Depgraph.root).Nlu.Depgraph.text

let test_queryprune_drop_nodes () =
  let g = Nlu.Depparser.parse "insert a string at the start" in
  let p = Queryprune.prune g in
  let id_of txt =
    (List.find (fun (n : Nlu.Depgraph.node) -> n.Nlu.Depgraph.text = txt) p.Nlu.Depgraph.nodes).Nlu.Depgraph.id
  in
  let p' = Queryprune.drop_nodes p [ id_of "start" ] in
  check_b "dropped" false (List.mem "start" (texts p'));
  check_b "still tree" true (Nlu.Depgraph.is_tree p')

(* ------------------------------------------------------------------ *)
(* Word2api                                                           *)
(* ------------------------------------------------------------------ *)

let test_word2api_basic () =
  let g = Queryprune.prune (Nlu.Depparser.parse "insert a string at the start of each line") in
  let w2a = Word2api.build (Lazy.force fig4_doc) g in
  let apis_of txt =
    let n = List.find (fun (n : Nlu.Depgraph.node) -> n.Nlu.Depgraph.text = txt) g.Nlu.Depgraph.nodes in
    Word2api.apis w2a n.Nlu.Depgraph.id
  in
  check_b "insert -> INSERT" true (List.mem "INSERT" (apis_of "insert"));
  check_b "string -> STRING" true (List.mem "STRING" (apis_of "string"));
  check_b "start has START and STARTFROM" true
    (List.mem "START" (apis_of "start") && List.mem "STARTFROM" (apis_of "start"));
  check_b "line -> LINESCOPE" true (List.mem "LINESCOPE" (apis_of "line"))

let test_word2api_literals () =
  let g = Queryprune.prune (Nlu.Depparser.parse "insert \"-\" at the start") in
  let w2a = Word2api.build (Lazy.force fig4_doc) g in
  let lit_node =
    List.find (fun (n : Nlu.Depgraph.node) -> n.Nlu.Depgraph.lit <> None) g.Nlu.Depgraph.nodes
  in
  Alcotest.(check (list string)) "literal maps to STRING" [ "STRING" ]
    (Word2api.apis w2a lit_node.Nlu.Depgraph.id)

let test_word2api_topk_threshold () =
  let g = Queryprune.prune (Nlu.Depparser.parse "insert a string") in
  let w2a1 = Word2api.build ~top_k:1 (Lazy.force fig4_doc) g in
  List.iter
    (fun (n : Nlu.Depgraph.node) ->
      check_b "top_k bound" true (List.length (Word2api.apis w2a1 n.Nlu.Depgraph.id) <= 1))
    g.Nlu.Depgraph.nodes;
  let w2a_strict = Word2api.build ~threshold:2.0 (Lazy.force fig4_doc) g in
  check_i "impossible threshold leaves everything uncovered"
    (List.length g.Nlu.Depgraph.nodes)
    (List.length (Word2api.uncovered w2a_strict))

let test_word2api_restrict () =
  let g = Queryprune.prune (Nlu.Depparser.parse "insert at the start") in
  let w2a = Word2api.build (Lazy.force fig4_doc) g in
  let start_node =
    List.find (fun (n : Nlu.Depgraph.node) -> n.Nlu.Depgraph.text = "start") g.Nlu.Depgraph.nodes
  in
  let w2a' = Word2api.restrict w2a start_node.Nlu.Depgraph.id "START" in
  Alcotest.(check (list string)) "restricted" [ "START" ]
    (Word2api.apis w2a' start_node.Nlu.Depgraph.id)

(* ------------------------------------------------------------------ *)
(* Edge2path                                                          *)
(* ------------------------------------------------------------------ *)

let build_e2p q =
  let dg = Queryprune.prune (Nlu.Depparser.parse q) in
  let w2a = Word2api.build (Lazy.force fig4_doc) dg in
  (dg, w2a, Edge2path.build (Lazy.force fig4_autom) dg w2a)

let test_edge2path_basic () =
  let dg, _, e2p = build_e2p "insert a string" in
  let edge = List.hd dg.Nlu.Depgraph.edges in
  let ps = Edge2path.paths_of_edge e2p edge in
  check_b "has paths" true (List.length ps >= 1);
  List.iter
    (fun (p : Edge2path.epath) ->
      check_b "gov api is a candidate" true (p.Edge2path.gov_api <> None))
    ps;
  check_i "total count agrees"
    (List.length (List.concat_map (Edge2path.paths_of_edge e2p) dg.Nlu.Depgraph.edges))
    (Edge2path.total_path_count e2p)

let test_edge2path_orphans () =
  (* "each" (ITERATIONSCOPE) under "line" (LINESCOPE): LINESCOPE has no
     descendant ITERATIONSCOPE, so "each" must be an orphan. *)
  let _, _, e2p = build_e2p "insert a string at the start of each line" in
  check_b "orphans detected" true (List.length (Edge2path.orphans e2p) >= 1)

let test_edge2path_anchor () =
  let dg, w2a, e2p = build_e2p "insert a string at the start of each line" in
  let dg', e2p' = Edge2path.anchor_orphans (Lazy.force fig4_autom) dg w2a e2p in
  check_i "no orphans left" 0 (List.length (Edge2path.orphans e2p'));
  (* anchored orphans hang off the dependency root *)
  List.iter
    (fun o ->
      match Nlu.Depgraph.parent dg' o with
      | Some e -> check_i "anchored to root" dg'.Nlu.Depgraph.root e.Nlu.Depgraph.gov
      | None -> Alcotest.fail "orphan lost")
    (Edge2path.orphans e2p);
  (* root-anchored paths carry gov_api = None *)
  let anchored =
    List.filter
      (fun (p : Edge2path.epath) -> p.Edge2path.gov_api = None)
      (List.concat_map (Edge2path.paths_of_edge e2p') dg'.Nlu.Depgraph.edges)
  in
  check_b "anchored paths exist" true (anchored <> [])

(* ------------------------------------------------------------------ *)
(* Cgt                                                                *)
(* ------------------------------------------------------------------ *)

let test_cgt_merge_paths () =
  let g = Lazy.force fig4_graph in
  let ps = search "INSERT" "STRING" in
  let short = List.find (fun p -> Gpath.size p = 2) ps in
  let cgt = Cgt.of_paths [ short ] in
  let s = Cgt.scratch g in
  check_i "api size" 2 (Cgt.api_size s cgt);
  check_b "tree" true (Cgt.is_tree s cgt);
  check_b "well-formed" true (Cgt.well_formed s cgt);
  check_i "checked size" 2 (Cgt.check s cgt);
  (match Cgt.root s cgt with
  | Some r -> check_s "root is INSERT" "INSERT" (Ggraph.node_name g r)
  | None -> Alcotest.fail "no root");
  (* merging a path with itself is idempotent *)
  check_b "idempotent merge" true (Cgt.equal cgt (Cgt.merge cgt cgt))

let test_cgt_conflict_invalid () =
  let g = Lazy.force fig4_graph in
  let to_start = search "INSERT" "START" in
  let to_position = search "INSERT" "POSITION" in
  let cgt = Cgt.of_paths [ List.hd to_start; List.hd to_position ] in
  let s = Cgt.scratch g in
  (* START and POSITION are exclusive alternatives of pos: a tree, but
     not a grammar-valid one *)
  check_b "still a tree" true (Cgt.is_tree s cgt);
  check_b "conflicting or-edges rejected" false (Cgt.well_formed s cgt);
  check_i "no checked size" (-1) (Cgt.check s cgt);
  check_b "reference agrees" false (Dggt_eval.Refcgt.is_grammar_valid g cgt)

let test_cgt_empty_and_lone () =
  let g = Lazy.force fig4_graph in
  let s = Cgt.scratch g in
  check_b "empty well-formed" true (Cgt.well_formed s Cgt.empty);
  check_i "empty size" 0 (Cgt.check s Cgt.empty);
  check_b "empty has no root" true (Cgt.root s Cgt.empty = None);
  let nid = Option.get (Ggraph.api_node g "INSERT") in
  let lone = Cgt.merge_path Cgt.empty (Gpath.make g ~nodes:[| nid |] ~edges:[||]) in
  check_b "one-node path = lone node" true (Cgt.equal lone (Cgt.node nid));
  check_i "lone node size" 1 (Cgt.api_size s lone);
  check_b "lone node tree" true (Cgt.is_tree s lone);
  check_b "lone root" true (Cgt.root s lone = Some nid)

let test_cgt_disjoint_not_tree () =
  let g = Lazy.force fig4_graph in
  let a = search "POSITION" "AFTER" in
  let b = search "ITERATIONSCOPE" "LINESCOPE" in
  let cgt = Cgt.of_paths [ List.hd a; List.hd b ] in
  let s = Cgt.scratch g in
  check_b "two components" false (Cgt.is_tree s cgt);
  check_b "not well-formed" false (Cgt.well_formed s cgt)

(* ------------------------------------------------------------------ *)
(* Tree2expr                                                          *)
(* ------------------------------------------------------------------ *)

let test_tree2expr_linearize () =
  let g = Lazy.force fig4_graph in
  let insert_string =
    List.find (fun p -> Gpath.size p = 2) (search "INSERT" "STRING")
  in
  let insert_start = search "INSERT" "START" in
  let cgt = Cgt.of_paths (insert_string :: insert_start) in
  match Tree2expr.of_cgt ~lits:[ ("STRING", ":") ] (Cgt.scratch g) cgt with
  | Ok e ->
      check_s "code" "INSERT(STRING(\":\"), START())" (Tree2expr.to_string e);
      check_s "api" "INSERT" e.Tree2expr.api;
      check_i "two args" 2 (List.length e.Tree2expr.args)
  | Error err -> Alcotest.failf "linearization failed: %a" Tree2expr.pp_error err

let test_tree2expr_arg_order () =
  (* argument order must follow the grammar RHS (string pos iter), not the
     merge order *)
  let g = Lazy.force fig4_graph in
  let p_string =
    List.find (fun p -> Gpath.size p = 2) (search "INSERT" "STRING")
  in
  let p_start = List.hd (search "INSERT" "START") in
  let p_all = List.hd (search "INSERT" "ALL") in
  let orders = [ [ p_all; p_start; p_string ]; [ p_string; p_start; p_all ] ] in
  let codes =
    List.map
      (fun ps ->
        match Tree2expr.of_cgt (Cgt.scratch g) (Cgt.of_paths ps) with
        | Ok e -> Tree2expr.to_string e
        | Error _ -> "fail")
      orders
  in
  check_s "merge order irrelevant" (List.nth codes 0) (List.nth codes 1);
  check_s "grammar order" "INSERT(STRING(), START(), ALL())" (List.nth codes 0)

let test_tree2expr_errors () =
  let g = Lazy.force fig4_graph in
  let s = Cgt.scratch g in
  (match Tree2expr.of_cgt s Cgt.empty with
  | Error Tree2expr.Empty_cgt -> ()
  | _ -> Alcotest.fail "expected Empty_cgt");
  let a = search "POSITION" "AFTER" in
  let b = search "ITERATIONSCOPE" "LINESCOPE" in
  match Tree2expr.of_cgt s (Cgt.of_paths [ List.hd a; List.hd b ]) with
  | Error Tree2expr.Not_a_tree -> ()
  | _ -> Alcotest.fail "expected Not_a_tree"

let test_expr_parse_roundtrip () =
  let cases =
    [
      "INSERT(STRING(\":\"), END(), ITERATIONSCOPE(LINESCOPE(), ALL()))";
      "DELETE(WORDTOKEN())";
      "CHARNUM(14)";
      "cxxConstructExpr(hasDeclaration(cxxMethodDecl(hasName(\"PI\"))))";
      "END";
    ]
  in
  List.iter
    (fun s ->
      match Tree2expr.parse s with
      | Ok e ->
          let printed = Tree2expr.to_string e in
          let reparsed = Result.get_ok (Tree2expr.parse printed) in
          check_b ("round-trip " ^ s) true (Tree2expr.equal e reparsed)
      | Error m -> Alcotest.failf "parse %S failed: %s" s m)
    cases;
  (match Tree2expr.parse "F(" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for F(");
  match Tree2expr.parse "F(\"a\" \"b\")" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for juxtaposed literals"

let test_expr_equal () =
  let p s = Result.get_ok (Tree2expr.parse s) in
  check_b "equal" true (Tree2expr.equal (p "A(B(), C())") (p "A(B, C)"));
  check_b "order matters" false (Tree2expr.equal (p "A(B, C)") (p "A(C, B)"));
  check_b "literal matters" false (Tree2expr.equal (p "A(\"x\")") (p "A(\"y\")"));
  Alcotest.(check (list string)) "api multiset" [ "A"; "B"; "C" ]
    (Tree2expr.api_multiset (p "C(A, B)"))

(* ------------------------------------------------------------------ *)
(* Size-based pruning                                                 *)
(* ------------------------------------------------------------------ *)

let mk_epath id (p : Gpath.t) gov dep edge =
  { Edge2path.id; edge; gov_api = Some gov; dep_api = dep; path = p }

let test_sprune_bounds () =
  let dg = Queryprune.prune (Nlu.Depparser.parse "insert a string") in
  let edge = List.hd dg.Nlu.Depgraph.edges in
  let short =
    List.find (fun p -> Gpath.size p = 2) (search "INSERT" "STRING")
  in
  let long =
    List.find (fun p -> Gpath.size p = 4) (search "INSERT" "STRING")
  in
  let e1 = mk_epath 0 short "INSERT" "STRING" edge in
  let e2 = mk_epath 1 long "INSERT" "STRING" edge in
  (* the reference's bounds: the values Gprune's enumeration reproduces *)
  let module Sprune = Dggt_eval.Refsprune in
  let b1 = Sprune.bounds_of ~extra:(fun _ -> 0) [ e1 ] in
  check_i "singleton lo" 2 b1.Sprune.lo;
  check_i "singleton hi" 2 b1.Sprune.hi;
  let b12 = Sprune.bounds_of ~extra:(fun _ -> 0) [ e1; e2 ] in
  (* union of APIs: INSERT STRING POSITION STARTFROM/AFTER -> 4; sum - 1 = 5 *)
  check_i "pair lo" 4 b12.Sprune.lo;
  check_i "pair hi" 5 b12.Sprune.hi;
  (* extra shifts both bounds *)
  let b12x = Sprune.bounds_of ~extra:(fun _ -> 3) [ e1; e2 ] in
  check_i "extra lo" 10 b12x.Sprune.lo;
  check_i "extra hi" 11 b12x.Sprune.hi

let test_sprune_prunes_dominated () =
  let g = Lazy.force fig4_graph in
  let dg = Queryprune.prune (Nlu.Depparser.parse "insert a string") in
  let edge = List.hd dg.Nlu.Depgraph.edges in
  let short =
    List.find (fun p -> Gpath.size p = 2) (search "INSERT" "STRING")
  in
  let long =
    List.find (fun p -> Gpath.size p = 4) (search "INSERT" "STRING")
  in
  let small = mk_epath 0 short "INSERT" "STRING" edge in
  let big = mk_epath 1 long "INSERT" "STRING" edge in
  let t = Gprune.prepare g in
  let kept ~sprune = (Gprune.combos t ~gprune:true ~sprune [ [ small; big ] ]).Gprune.kept in
  check_b "dominated combo pruned" true (kept ~sprune:true = [ [ small ] ]);
  check_i "disabled keeps all" 2 (List.length (kept ~sprune:false));
  (* an extra on the small path lifts both its bounds past the big one's *)
  let t = Gprune.prepare ~extra:(fun (p : Edge2path.epath) -> if p.Edge2path.id = 0 then 3 else 0) g in
  check_b "extra shifts the choice" true
    ((Gprune.combos t ~gprune:true ~sprune:true [ [ small; big ] ]).Gprune.kept = [ [ big ] ])

(* ------------------------------------------------------------------ *)
(* Gprune                                                             *)
(* ------------------------------------------------------------------ *)

let test_gprune_combos () =
  let g = Lazy.force fig4_graph in
  let dg = Queryprune.prune (Nlu.Depparser.parse "insert a string at the start") in
  let e_string, e_start =
    match dg.Nlu.Depgraph.edges with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "expected two edges"
  in
  let short_string =
    List.find (fun p -> Gpath.size p = 2) (search "INSERT" "STRING")
  in
  let long_string =
    List.find
      (fun p -> Array.exists (fun a -> Ggraph.node_name g a = "STARTFROM") p.Gpath.apis)
      (search "INSERT" "STRING")
  in
  let p_start = List.hd (search "INSERT" "START") in
  let eps =
    [
      mk_epath 0 short_string "INSERT" "STRING" e_string;
      mk_epath 1 long_string "INSERT" "STRING" e_string;
      mk_epath 2 p_start "INSERT" "START" e_start;
    ]
  in
  (* long_string goes through POSITION, conflicting with START at pos *)
  let numbered =
    List.map (fun (p : Edge2path.epath) -> (p.Edge2path.id, p.Edge2path.path)) eps
  in
  check_b "conflict found" true (List.mem (1, 2) (Pathvote.conflicts g numbered));
  let t = Gprune.prepare g in
  let groups = [ [ List.nth eps 0; List.nth eps 1 ]; [ List.nth eps 2 ] ] in
  let r = Gprune.combos t ~gprune:true ~sprune:false groups in
  check_i "total combos" 2 r.Gprune.total;
  check_i "one survivor" 1 (List.length r.Gprune.kept);
  check_i "one conflict-free" 1 r.Gprune.conflict_free;
  let off = Gprune.combos t ~gprune:false ~sprune:false groups in
  check_i "disabled keeps both" 2 (List.length off.Gprune.kept);
  check_i "disabled: both conflict-free" 2 off.Gprune.conflict_free;
  (* The budget is ticked once per path tried at each level, before its
     conflict check. Strings first: 2 at the top, then START under each
     (the second START is tried and rejected) = 4. START first: 1, then
     both strings under it (long_string is tried and rejected) = 3. Size
     pruning filters finished combinations only, so it adds no step. *)
  let steps ?(sprune = false) groups ~gprune =
    let b = Dggt_util.Budget.unlimited () in
    ignore (Gprune.combos ~budget:b t ~gprune ~sprune groups);
    Dggt_util.Budget.steps_used b
  in
  check_i "steps, strings first" 4 (steps groups ~gprune:true);
  check_i "steps, strings first, pruning off" 4 (steps groups ~gprune:false);
  check_i "steps, strings first, size pruning on" 4 (steps ~sprune:true groups ~gprune:true);
  let start_first = [ [ List.nth eps 2 ]; [ List.nth eps 0; List.nth eps 1 ] ] in
  check_i "steps, START first" 3 (steps start_first ~gprune:true);
  check_i "steps, START first, size pruning on" 3 (steps ~sprune:true start_first ~gprune:true);
  check_i "START first survivors" 1
    (List.length (Gprune.combos t ~gprune:true ~sprune:false start_first).Gprune.kept)

(* ------------------------------------------------------------------ *)
(* Orphan                                                             *)
(* ------------------------------------------------------------------ *)

let test_orphan_relocation () =
  let g = Lazy.force fig4_graph in
  let dg = Queryprune.prune (Nlu.Depparser.parse "insert a string at the start of each line") in
  let w2a = Word2api.build (Lazy.force fig4_doc) dg in
  let e2p = Edge2path.build (Lazy.force fig4_autom) dg w2a in
  let orphans = Edge2path.orphans e2p in
  check_b "fixture has orphans" true (orphans <> []);
  List.iter
    (fun o ->
      let govs = Orphan.governor_candidates g dg w2a ~orphan:o in
      check_b "insert can govern orphans" true
        (List.exists
           (fun gv -> (Nlu.Depgraph.node dg gv).Nlu.Depgraph.text = "insert")
           govs);
      check_b "orphan is not its own governor" false (List.mem o govs))
    orphans;
  let variants = Orphan.relocate g dg w2a ~orphans in
  check_b "variants produced" true (List.length variants >= 1);
  List.iter
    (fun v ->
      check_i "same node count" (List.length dg.Nlu.Depgraph.nodes)
        (List.length v.Nlu.Depgraph.nodes))
    variants;
  (* relocated variants resolve the orphans *)
  check_b "some variant has no orphan" true
    (List.exists
       (fun v ->
         let e2p' = Edge2path.build (Lazy.force fig4_autom) v w2a in
         Edge2path.orphans e2p' = [])
       variants)

let test_orphan_caps () =
  let g = Lazy.force fig4_graph in
  let dg = Queryprune.prune (Nlu.Depparser.parse "insert a string at the start of each line") in
  let w2a = Word2api.build (Lazy.force fig4_doc) dg in
  let e2p = Edge2path.build (Lazy.force fig4_autom) dg w2a in
  let variants = Orphan.relocate ~max_graphs:1 g dg w2a ~orphans:(Edge2path.orphans e2p) in
  check_i "cap respected" 1 (List.length variants)

(* ------------------------------------------------------------------ *)
(* Engines                                                            *)
(* ------------------------------------------------------------------ *)

let test_engines_agree_on_fixture () =
  let queries =
    [
      "insert a string";
      "insert a string at the start";
      "insert \"-\" at the start of each line";
      "insert a string at the start of each line";
      "insert a string everywhere in the document";
    ]
  in
  List.iter
    (fun q ->
      let h = synth Engine.Hisyn_alg q in
      let d = synth Engine.Dggt_alg q in
      (* DGGT (with orphan relocation and graceful subtree skipping) solves
         a superset of what the baseline solves *)
      if h.Engine.code <> None then
        check_b (q ^ ": DGGT solves whatever HISyn solves") true
          (d.Engine.code <> None);
      (* when the baseline finds a (full-coverage) answer on an orphan-free
         query, DGGT finds the identical one *)
      if h.Engine.code <> None && h.Engine.stats.Stats.orphan_count = 0 then begin
        check_b (q ^ ": same code when orphan-free") true
          (h.Engine.code = d.Engine.code);
        match (h.Engine.cgt_size, d.Engine.cgt_size) with
        | Some hs, Some ds -> check_i (q ^ ": same size") hs ds
        | _ -> ()
      end)
    queries

let test_engine_insert_example () =
  let d = synth Engine.Dggt_alg "insert \":\" at the start of each line" in
  check_s "paper example"
    "INSERT(STRING(\":\"), START(), ITERATIONSCOPE(LINESCOPE()))"
    (Option.value d.Engine.code ~default:"FAIL")

let test_engine_timeout () =
  let cfg =
    { (Engine.default Engine.Hisyn_alg) with Engine.timeout_s = None; max_steps = Some 3 }
  in
  let o = respond cfg Engine.Plain "insert a string at the start of each line" in
  check_b "timed out" true o.Engine.timed_out;
  check_b "no code" true (o.Engine.code = None);
  check_b "failure recorded" true (o.Engine.failure = Some "timeout")

let test_engine_single_word () =
  let h = synth Engine.Hisyn_alg "insert" in
  let d = synth Engine.Dggt_alg "insert" in
  check_s "hisyn lone api" "INSERT()" (Option.value h.Engine.code ~default:"FAIL");
  check_s "dggt lone api" "INSERT()" (Option.value d.Engine.code ~default:"FAIL")

let test_engine_garbage () =
  let o = synth Engine.Dggt_alg "frobnicate the zyzzyx" in
  check_b "fails gracefully" true (o.Engine.code = None && o.Engine.failure <> None);
  let o = synth Engine.Dggt_alg "" in
  check_b "empty query fails gracefully" true (o.Engine.code = None)

let test_engine_ablation_flags () =
  (* with all optimizations off, DGGT must still agree with itself on *)
  let q = "insert \"-\" at the start of each line" in
  let base = synth Engine.Dggt_alg q in
  let off =
    respond
      { (engine_cfg Engine.Dggt_alg) with Engine.gprune = false; sprune = false }
      Engine.Plain q
  in
  check_b "same result without pruning" true (base.Engine.code = off.Engine.code);
  check_b "pruning saves merges" true
    (base.Engine.stats.Stats.combos_merged <= off.Engine.stats.Stats.combos_merged)

let test_engine_stats_populated () =
  let o = synth Engine.Dggt_alg "insert \"-\" at the start of each line" in
  let s = o.Engine.stats in
  check_b "dep edges" true (s.Stats.dep_edges >= 3);
  check_b "paths counted" true (s.Stats.orig_paths > 0);
  check_b "dgg built" true (s.Stats.dgg_nodes > 0 && s.Stats.dgg_edges > 0);
  let h = synth Engine.Hisyn_alg "insert \"-\" at the start of each line" in
  check_b "hisyn enumerations counted" true
    (h.Engine.stats.Stats.hisyn_combos_enumerated > 0)

(* The headline property: DGGT is a lossless optimization of HISyn — same
   sizes whenever the baseline finishes. Queries are random phrase
   compositions over the fixture vocabulary. *)
let prop_engines_equivalent =
  let gen =
    QCheck.Gen.(
      let verb = oneofl [ "insert"; "add"; "append"; "put" ] in
      let obj = oneofl [ "a string"; "\":\""; "\"-\"" ] in
      let where =
        oneofl
          [ ""; " at the start"; " at the start of each line";
            " after \"x\""; " in the document"; " everywhere"; " of each line" ]
      in
      let iter = oneofl [ ""; " in every line"; " in the whole document" ] in
      map
        (fun (v, o, w, i) -> v ^ " " ^ o ^ w ^ i)
        (quad verb obj where iter))
  in
  QCheck.Test.make ~name:"DGGT subsumes HISyn; equal on orphan-free queries"
    ~count:60
    (QCheck.make gen ~print:Fun.id)
    (fun q ->
      let h = synth Engine.Hisyn_alg q in
      let d = synth Engine.Dggt_alg q in
      match (h.Engine.timed_out, d.Engine.timed_out) with
      | false, false ->
          (* DGGT explores relocated graphs and skips unreachable subtrees,
             so it may solve queries the baseline cannot; the reverse must
             not happen. On orphan-free queries results coincide exactly. *)
          (h.Engine.cgt_size = None || d.Engine.cgt_size <> None)
          && (h.Engine.code = None
             || h.Engine.stats.Stats.orphan_count > 0
             || h.Engine.code = d.Engine.code)
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Ranked hints (paper SVII-B.4)                                      *)
(* ------------------------------------------------------------------ *)

let test_ranked_hints () =
  let q = "insert \"-\" at the start of each line" in
  let hints = ranked ~k:5 q in
  check_b "at least one hint" true (hints <> []);
  check_b "k bound respected" true (List.length hints <= 5);
  (* the top hint is the single-result answer *)
  let top = (List.hd hints).Engine.code in
  let single = synth Engine.Dggt_alg q in
  check_s "head of ranking = best codelet" (Option.value single.Engine.code ~default:"?") top;
  (* hints are distinct codelets *)
  let codes = List.map (fun (r : Engine.ranked) -> r.Engine.code) hints in
  check_i "no duplicate hints" (List.length codes)
    (List.length (Dggt_util.Listutil.uniq codes))

let test_ranked_hints_multiple () =
  (* "start" maps to both START and STARTFROM: two root-compatible
     interpretations of the argument produce distinct hints when the
     argument word is ambiguous at the root... the fixture's root word
     "insert" has one API, so ranking still yields one root — assert the
     mechanics rather than a fixed count. *)
  let hints = ranked ~k:3 "insert a string" in
  check_b "ranked succeeds on simple query" true (List.length hints >= 1);
  (* a non-positive k is answered as k = 1 *)
  let codes k =
    List.map
      (fun (r : Engine.ranked) -> r.Engine.code)
      (ranked ~k "insert a string")
  in
  check_b "k=0 answers like k=1" true
    (codes 0 = codes 1 && List.length (codes 0) = 1)

let test_ranked_hints_garbage () =
  check_i "garbage yields no hints" 0
    (List.length (ranked ~k:3 "zyzzyx frobnicate"))

(* Stats.add mixes two aggregation rules on purpose (see stats.ml): max for
   query-shaped fields, sum for work-shaped ones. This pins the split so a
   refactor cannot silently turn a max into a +. *)
let test_stats_add_semantics () =
  let a = Stats.create () and b = Stats.create () in
  a.Stats.dep_edges <- 4;
  b.Stats.dep_edges <- 3;
  a.Stats.orig_paths <- 10;
  b.Stats.orig_paths <- 12;
  a.Stats.paths_after_reloc <- 8;
  b.Stats.paths_after_reloc <- 6;
  a.Stats.orphan_count <- 1;
  b.Stats.orphan_count <- 2;
  a.Stats.hisyn_combos_possible <- 100;
  b.Stats.hisyn_combos_possible <- 90;
  a.Stats.reloc_graphs <- 1;
  b.Stats.reloc_graphs <- 2;
  a.Stats.combos_total <- 20;
  b.Stats.combos_total <- 30;
  a.Stats.combos_after_gprune <- 15;
  b.Stats.combos_after_gprune <- 25;
  a.Stats.combos_after_sprune <- 10;
  b.Stats.combos_after_sprune <- 20;
  a.Stats.combos_merged <- 5;
  b.Stats.combos_merged <- 7;
  a.Stats.hisyn_combos_enumerated <- 50;
  b.Stats.hisyn_combos_enumerated <- 60;
  a.Stats.dgg_nodes <- 9;
  b.Stats.dgg_nodes <- 11;
  a.Stats.dgg_edges <- 13;
  b.Stats.dgg_edges <- 17;
  a.Stats.dgg_improvements <- 6;
  b.Stats.dgg_improvements <- 8;
  let s = Stats.add a b in
  (* query-shaped fields take the max over variants *)
  check_i "dep_edges is max" 4 s.Stats.dep_edges;
  check_i "orig_paths is max" 12 s.Stats.orig_paths;
  check_i "paths_after_reloc is max" 8 s.Stats.paths_after_reloc;
  check_i "orphan_count is max" 2 s.Stats.orphan_count;
  check_i "hisyn_combos_possible is max" 100 s.Stats.hisyn_combos_possible;
  (* work-shaped fields sum — every variant's effort happened *)
  check_i "reloc_graphs sums" 3 s.Stats.reloc_graphs;
  check_i "combos_total sums" 50 s.Stats.combos_total;
  check_i "combos_after_gprune sums" 40 s.Stats.combos_after_gprune;
  check_i "combos_after_sprune sums" 30 s.Stats.combos_after_sprune;
  check_i "combos_merged sums" 12 s.Stats.combos_merged;
  check_i "hisyn_combos_enumerated sums" 110 s.Stats.hisyn_combos_enumerated;
  check_i "dgg_nodes sums" 20 s.Stats.dgg_nodes;
  check_i "dgg_edges sums" 30 s.Stats.dgg_edges;
  check_i "dgg_improvements sums" 14 s.Stats.dgg_improvements;
  (* adding a fresh zero record is the identity *)
  let z = Stats.add s (Stats.create ()) in
  check_b "zero is identity" true (z = s)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_engines_equivalent ]

let suite =
  [
    Alcotest.test_case "apidoc keywords" `Quick test_apidoc_keywords;
    Alcotest.test_case "apidoc lookup" `Quick test_apidoc_lookup;
    Alcotest.test_case "queryprune drops function words" `Quick test_queryprune_function_words;
    Alcotest.test_case "queryprune reconnects" `Quick test_queryprune_reconnects;
    Alcotest.test_case "queryprune stopword root" `Quick test_queryprune_stopword_root;
    Alcotest.test_case "queryprune drop_nodes" `Quick test_queryprune_drop_nodes;
    Alcotest.test_case "word2api basics" `Quick test_word2api_basic;
    Alcotest.test_case "word2api literals" `Quick test_word2api_literals;
    Alcotest.test_case "word2api top_k/threshold" `Quick test_word2api_topk_threshold;
    Alcotest.test_case "word2api restrict" `Quick test_word2api_restrict;
    Alcotest.test_case "edge2path basics" `Quick test_edge2path_basic;
    Alcotest.test_case "edge2path orphan detection" `Quick test_edge2path_orphans;
    Alcotest.test_case "edge2path root anchoring" `Quick test_edge2path_anchor;
    Alcotest.test_case "cgt merge" `Quick test_cgt_merge_paths;
    Alcotest.test_case "cgt or-conflict invalid" `Quick test_cgt_conflict_invalid;
    Alcotest.test_case "cgt empty/lone" `Quick test_cgt_empty_and_lone;
    Alcotest.test_case "cgt disjoint not tree" `Quick test_cgt_disjoint_not_tree;
    Alcotest.test_case "tree2expr linearize" `Quick test_tree2expr_linearize;
    Alcotest.test_case "tree2expr argument order" `Quick test_tree2expr_arg_order;
    Alcotest.test_case "tree2expr errors" `Quick test_tree2expr_errors;
    Alcotest.test_case "expr parse round-trip" `Quick test_expr_parse_roundtrip;
    Alcotest.test_case "expr equality" `Quick test_expr_equal;
    Alcotest.test_case "sprune bounds" `Quick test_sprune_bounds;
    Alcotest.test_case "sprune dominated" `Quick test_sprune_prunes_dominated;
    Alcotest.test_case "gprune combos" `Quick test_gprune_combos;
    Alcotest.test_case "orphan relocation" `Quick test_orphan_relocation;
    Alcotest.test_case "orphan caps" `Quick test_orphan_caps;
    Alcotest.test_case "engines agree on fixture" `Quick test_engines_agree_on_fixture;
    Alcotest.test_case "engine paper example" `Quick test_engine_insert_example;
    Alcotest.test_case "engine timeout protocol" `Quick test_engine_timeout;
    Alcotest.test_case "engine single word" `Quick test_engine_single_word;
    Alcotest.test_case "engine garbage input" `Quick test_engine_garbage;
    Alcotest.test_case "engine ablation flags" `Quick test_engine_ablation_flags;
    Alcotest.test_case "engine stats" `Quick test_engine_stats_populated;
    Alcotest.test_case "stats add semantics" `Quick test_stats_add_semantics;
    Alcotest.test_case "ranked hints" `Quick test_ranked_hints;
    Alcotest.test_case "ranked hints bounds" `Quick test_ranked_hints_multiple;
    Alcotest.test_case "ranked hints garbage" `Quick test_ranked_hints_garbage;
  ]
  @ qsuite
