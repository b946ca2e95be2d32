(* Tests for dggt_grammar: BNF parsing, CFG construction, grammar graph,
   reversed all-path search, path voting / conflicts.

   The running example mirrors the paper's Figure 4: a fragment of the
   text-editing DSL where INSERT takes (string, pos, iter), positions can be
   plain START or parameterized POSITION(AFTER(string)/STARTFROM(string)),
   giving two INSERT->STRING grammar paths of different sizes. *)

open Dggt_grammar

let fig4_bnf =
  {|
# Figure 4 fragment of the TextEditing DSL
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
scope      ::= LINESCOPE | DOCSCOPE ;
|}

let fig4_cfg () =
  match Cfg.of_text ~start:"cmd" fig4_bnf with
  | Ok c -> c
  | Error e -> Alcotest.failf "fig4 grammar rejected: %a" Cfg.pp_error e

let fig4_graph () = Ggraph.build (fig4_cfg ())

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Bnf                                                                *)
(* ------------------------------------------------------------------ *)

let test_bnf_basic () =
  match Bnf.parse "a ::= B c ;\nc ::= D | E ;" with
  | Error e -> Alcotest.failf "parse failed: %a" Bnf.pp_error e
  | Ok rules ->
      check_i "two rules" 2 (List.length rules);
      let a = List.find (fun (r : Bnf.rule) -> r.lhs = "a") rules in
      Alcotest.(check (list (list string))) "a alts" [ [ "B"; "c" ] ] a.alternatives;
      let c = List.find (fun (r : Bnf.rule) -> r.lhs = "c") rules in
      Alcotest.(check (list (list string))) "c alts" [ [ "D" ]; [ "E" ] ] c.alternatives

let test_bnf_optional_semi () =
  (* newline-started next rule closes the previous one *)
  match Bnf.parse "a ::= B\nc ::= D" with
  | Error e -> Alcotest.failf "parse failed: %a" Bnf.pp_error e
  | Ok rules -> check_i "two rules" 2 (List.length rules)

let test_bnf_comments_and_merge () =
  match Bnf.parse "# header\na ::= B ; # trailing\na ::= C ;" with
  | Error e -> Alcotest.failf "parse failed: %a" Bnf.pp_error e
  | Ok rules -> (
      match rules with
      | [ r ] ->
          check_s "merged lhs" "a" r.lhs;
          Alcotest.(check (list (list string)))
            "merged alternatives" [ [ "B" ]; [ "C" ] ] r.alternatives
      | _ -> Alcotest.fail "expected one merged rule")

let test_bnf_errors () =
  let expect_err s =
    match Bnf.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
  in
  expect_err "a ::= ;";
  expect_err "a ::= b | ;";
  expect_err "::= b";
  expect_err "a b c";
  expect_err "a ::= b $ c"

let test_bnf_roundtrip () =
  let src = "a ::= B c ;\nc ::= D | E ;" in
  match Bnf.parse src with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok rules -> (
      match Bnf.parse (Bnf.to_text rules) with
      | Error _ -> Alcotest.fail "reparse failed"
      | Ok rules2 -> check_b "round trip" true (rules = rules2))

let prop_bnf_roundtrip =
  (* generate random small grammars, print, reparse, compare *)
  let ident =
    QCheck.Gen.(
      map
        (fun (c, rest) -> String.make 1 c ^ String.concat "" (List.map (String.make 1) rest))
        (pair (char_range 'a' 'f') (list_size (0 -- 3) (char_range 'a' 'f'))))
  in
  let rule =
    QCheck.Gen.(
      map2
        (fun lhs alts -> { Bnf.lhs; alternatives = alts })
        ident
        (list_size (1 -- 3) (list_size (1 -- 4) ident)))
  in
  let grammar_gen = QCheck.Gen.(list_size (1 -- 5) rule) in
  QCheck.Test.make ~name:"bnf print/parse round-trip" ~count:200
    (QCheck.make grammar_gen) (fun rules ->
      (* merge duplicates the way the parser will, to compare canonical forms *)
      let canonical =
        Dggt_util.Listutil.group_by ~key:(fun (r : Bnf.rule) -> r.lhs) rules
        |> List.map (fun (lhs, g) ->
               { Bnf.lhs; alternatives = List.concat_map (fun (r : Bnf.rule) -> r.alternatives) g })
      in
      match Bnf.parse (Bnf.to_text canonical) with
      | Ok round -> round = canonical
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Cfg                                                                *)
(* ------------------------------------------------------------------ *)

let test_cfg_classification () =
  let c = fig4_cfg () in
  check_b "insert_arg is nonterminal" true (Cfg.is_nonterminal c "insert_arg");
  check_b "STRING is terminal" true (Cfg.is_terminal c "STRING");
  check_b "STRING is not nonterminal" false (Cfg.is_nonterminal c "STRING");
  check_i "api count" 10 (Cfg.api_count c);
  check_s "start" "cmd" c.Cfg.start

let test_cfg_productions () =
  let c = fig4_cfg () in
  let pos_prods = Cfg.productions_of c "pos" in
  check_i "pos has two prods" 2 (List.length pos_prods);
  (* production ids are dense and match array indexing *)
  Array.iteri (fun i p -> check_i "dense ids" i p.Cfg.id) c.Cfg.productions

let test_cfg_errors () =
  (match Cfg.of_text ~start:"nope" fig4_bnf with
  | Error (Cfg.Undefined_start _) -> ()
  | _ -> Alcotest.fail "expected Undefined_start");
  (match Cfg.of_text ~start:"cmd" "" with
  | Error Cfg.Empty_grammar -> ()
  | _ -> Alcotest.fail "expected Empty_grammar");
  match Cfg.of_text ~start:"cmd" "a ::= $" with
  | Error (Cfg.Parse_error _) -> ()
  | _ -> Alcotest.fail "expected Parse_error"

(* ------------------------------------------------------------------ *)
(* Ggraph                                                             *)
(* ------------------------------------------------------------------ *)

let test_ggraph_nodes () =
  let g = fig4_graph () in
  check_b "api node exists" true (Ggraph.api_node g "INSERT" <> None);
  check_b "nt node exists" true (Ggraph.nt_node g "insert_arg" <> None);
  check_b "unknown api" true (Ggraph.api_node g "NOPE" = None);
  check_i "api node count" 10 (List.length (Ggraph.api_nodes g));
  check_s "root name" "cmd" (Ggraph.node_name g g.Ggraph.root)

let test_ggraph_head_api_structure () =
  (* insert ::= INSERT insert_arg — insert_arg must hang under the INSERT
     API node, so paths descend through the head API. *)
  let g = fig4_graph () in
  let insert = Option.get (Ggraph.api_node g "INSERT") in
  let outs = Ggraph.out_edges g insert in
  check_i "INSERT has one argument edge" 1 (List.length outs);
  check_s "argument is insert_arg" "insert_arg"
    (Ggraph.node_name g (List.hd outs).Ggraph.dst)

let test_ggraph_or_edges () =
  let g = fig4_graph () in
  let pos = Option.get (Ggraph.nt_node g "pos") in
  let outs = Ggraph.out_edges g pos in
  check_i "pos has two alternatives" 2 (List.length outs);
  List.iter (fun (e : Ggraph.edge) -> check_b "alt flag" true e.alt) outs;
  (* single-production NT: concatenation edges *)
  let ia = Option.get (Ggraph.nt_node g "insert_arg") in
  let outs = Ggraph.out_edges g ia in
  check_i "insert_arg has three children" 3 (List.length outs);
  List.iter (fun (e : Ggraph.edge) -> check_b "concat flag" false e.alt) outs;
  (* children are in RHS position order *)
  Alcotest.(check (list string))
    "insert_arg children order" [ "string"; "pos"; "iter" ]
    (List.map (fun (e : Ggraph.edge) -> Ggraph.node_name g e.Ggraph.dst) outs)

let test_ggraph_multi_symbol_alternative_gets_deriv () =
  (* pos ::= position | START has single-symbol alts: no Deriv nodes.
     A multi-symbol alternative of a multi-production NT gets one. *)
  let bnf = "s ::= A b | C ;\nb ::= B ;" in
  let c = Result.get_ok (Cfg.of_text ~start:"s" bnf) in
  let g = Ggraph.build c in
  let s = Option.get (Ggraph.nt_node g "s") in
  let outs = Ggraph.out_edges g s in
  check_i "two or-edges" 2 (List.length outs);
  let kinds =
    List.map
      (fun (e : Ggraph.edge) ->
        match g.Ggraph.nodes.(e.Ggraph.dst).Ggraph.kind with
        | Ggraph.Deriv _ -> "deriv"
        | Ggraph.Api _ -> "api"
        | Ggraph.Nt _ -> "nt")
      outs
  in
  check_b "one deriv one api" true
    (List.sort compare kinds = [ "api"; "deriv" ])

let test_ggraph_reachable () =
  let g = fig4_graph () in
  let insert = Option.get (Ggraph.api_node g "INSERT") in
  let string_ = Option.get (Ggraph.api_node g "STRING") in
  let linescope = Option.get (Ggraph.api_node g "LINESCOPE") in
  check_b "INSERT reaches STRING" true (Ggraph.reachable g insert string_);
  check_b "INSERT reaches LINESCOPE" true (Ggraph.reachable g insert linescope);
  check_b "STRING does not reach INSERT" false (Ggraph.reachable g string_ insert);
  check_b "reflexive" true (Ggraph.reachable g insert insert)

(* ------------------------------------------------------------------ *)
(* Gpath                                                              *)
(* ------------------------------------------------------------------ *)

(* the searches run on the compiled automaton, the engine's only one *)
let paths_between ?limits g a b =
  Dggt_autom.Autom.paths_between_apis ?limits (Dggt_autom.Autom.compile g)
    ~src_api:a ~dst_api:b

let test_path_search_insert_string () =
  let g = fig4_graph () in
  let ps = paths_between g "INSERT" "STRING" in
  (* 2.1: INSERT -> insert_arg -> string -> STRING (2 APIs)
     2.2/2.3: through POSITION/AFTER or POSITION/STARTFROM (4 APIs) *)
  check_i "three INSERT->STRING paths" 3 (List.length ps);
  let sizes = List.map Gpath.size ps |> List.sort compare in
  Alcotest.(check (list int)) "path sizes" [ 2; 4; 4 ] sizes;
  List.iter
    (fun p ->
      check_s "top is INSERT" "INSERT" (Ggraph.node_name g p.Gpath.apis.(0));
      check_s "bottom is STRING" "STRING"
        (Ggraph.node_name g p.Gpath.apis.(Array.length p.Gpath.apis - 1)))
    ps

let test_path_search_no_path () =
  let g = fig4_graph () in
  check_i "STRING->INSERT impossible" 0 (List.length (paths_between g "STRING" "INSERT"));
  check_i "LINESCOPE->STRING impossible" 0
    (List.length (paths_between g "LINESCOPE" "STRING"))

let test_path_search_same_node () =
  let g = fig4_graph () in
  let ps = paths_between g "INSERT" "INSERT" in
  check_i "identity path" 1 (List.length ps);
  check_i "identity size" 1 (Gpath.size (List.hd ps))

let test_path_search_from_root () =
  let g = fig4_graph () in
  let string_ = Option.get (Ggraph.api_node g "STRING") in
  let ps = Dggt_autom.Autom.paths_from_root (Dggt_autom.Autom.compile g) ~dst:string_ in
  check_b "root paths exist" true (List.length ps >= 1);
  List.iter
    (fun p -> check_i "starts at root" g.Ggraph.root (Gpath.nodes p).(0))
    ps

(* a claim packs a node id and a production id; an id too wide for its
   half is refused, not silently truncated into another node's claim *)
let test_path_make_refuses_wide_ids () =
  let g = fig4_graph () in
  let insert = Option.get (Ggraph.api_node g "INSERT") in
  let e = List.hd (Ggraph.out_edges g insert) in
  let string_ = Option.get (Ggraph.api_node g "STRING") in
  let to_string = List.hd (Ggraph.in_edges g string_) in
  let wide = 1 lsl ((Sys.int_size - 1) / 2) in
  Alcotest.check_raises "node id too wide"
    (Invalid_argument (Printf.sprintf "Gpath.make: node id %d does not fit" wide))
    (fun () -> ignore (Gpath.make g ~nodes:[| wide; string_ |] ~edges:[| to_string.Ggraph.id |]));
  Alcotest.check_raises "last node not an API"
    (Invalid_argument "Gpath.make: the last node is not an API node")
    (fun () -> ignore (Gpath.make g ~nodes:[| insert; e.Ggraph.dst |] ~edges:[| e.Ggraph.id |]))

let test_path_limits () =
  let g = fig4_graph () in
  let ps =
    paths_between ~limits:{ Gpath.max_nodes = 4; max_paths = 10; max_steps = 100_000 }
      g "INSERT" "STRING"
  in
  check_i "length cap prunes long paths" 1 (List.length ps);
  let ps =
    paths_between ~limits:{ Gpath.max_nodes = 24; max_paths = 2; max_steps = 100_000 }
      g "INSERT" "STRING"
  in
  check_i "count cap" 2 (List.length ps)

let test_path_search_recursive_grammar () =
  (* A recursive grammar has unboundedly many paths; caps keep it finite. *)
  let bnf = "e ::= PLUS e | LIT ;" in
  let c = Result.get_ok (Cfg.of_text ~start:"e" bnf) in
  let g = Ggraph.build c in
  let ps = paths_between g "PLUS" "LIT" in
  check_b "terminates with paths" true (List.length ps >= 1);
  check_b "bounded" true (List.length ps <= Gpath.default_limits.Gpath.max_paths)

(* ------------------------------------------------------------------ *)
(* Pathvote                                                           *)
(* ------------------------------------------------------------------ *)

let test_votes () =
  let g = fig4_graph () in
  let ps = paths_between g "INSERT" "STRING" in
  let numbered = List.mapi (fun i p -> (i, p)) ps in
  let votes = Pathvote.votes numbered in
  (* every edge of every path is voted for *)
  List.iter
    (fun (i, (p : Gpath.t)) ->
      Array.iter
        (fun eid ->
          let v = List.find (fun (v : Pathvote.vote) -> v.edge = eid) votes in
          check_b "path votes for its edge" true (List.mem i v.paths))
        p.Gpath.edges)
    numbered;
  (* the INSERT->insert_arg edge is shared by all three paths *)
  let insert = Option.get (Ggraph.api_node g "INSERT") in
  let shared = List.hd (Ggraph.out_edges g insert) in
  let v = List.find (fun (v : Pathvote.vote) -> v.edge = shared.Ggraph.id) votes in
  check_i "shared edge has three votes" 3 (List.length v.paths)

let test_conflicts () =
  let g = fig4_graph () in
  (* Paths INSERT->STRING via string (no pos choice), via POSITION/AFTER,
     and via POSITION/STARTFROM. The two POSITION paths conflict at
     pos_arg; each POSITION path also conflicts with a START path at pos. *)
  let via_string, via_after, via_startfrom =
    match paths_between g "INSERT" "STRING" |> List.sort (fun a b -> compare (Gpath.size a, a) (Gpath.size b, b)) with
    | [ a; b; c ] ->
        let has_api name (p : Gpath.t) =
          Array.exists (fun a -> Ggraph.node_name g a = name) p.Gpath.apis
        in
        ( a,
          (if has_api "AFTER" b then b else c),
          if has_api "STARTFROM" b then b else c )
    | _ -> Alcotest.fail "expected 3 paths"
  in
  let start_path =
    match paths_between g "INSERT" "START" with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one INSERT->START path"
  in
  let numbered =
    [ (0, via_string); (1, via_after); (2, via_startfrom); (3, start_path) ]
  in
  let cs = Pathvote.conflicts g numbered in
  check_b "AFTER vs STARTFROM conflict" true (List.mem (1, 2) cs);
  check_b "POSITION vs START conflict" true (List.mem (1, 3) cs && List.mem (2, 3) cs);
  check_b "plain string path conflicts with nothing" true
    (List.for_all (fun (a, b) -> a <> 0 && b <> 0) cs);
  (* hash-set variant agrees *)
  let tbl = Pathvote.conflict_table g numbered in
  check_i "table size" (List.length cs) (Hashtbl.length tbl);
  List.iter (fun pair -> check_b "pair in table" true (Hashtbl.mem tbl pair)) cs

(* ------------------------------------------------------------------ *)
(* linear-time construction = the list-based reference                *)
(* ------------------------------------------------------------------ *)

(* Frozen copies of the list-based construction that the hashed
   [Cfg.of_bnf], the by-lhs grouping in [Ggraph.build] and the flat-array
   distance BFS replaced: membership by [List.mem], one production scan
   per nonterminal, a [Queue] BFS over edge lists. *)
module Ref = struct
  let of_bnf ~start (rules : Bnf.t) =
    if rules = [] then Error Cfg.Empty_grammar
    else
      let nts = List.map (fun (r : Bnf.rule) -> r.lhs) rules in
      if not (List.mem start nts) then Error (Cfg.Undefined_start start)
      else begin
        let is_nt s = List.mem s nts in
        let terminals = ref [] in
        let note_terminal s =
          if (not (is_nt s)) && not (List.mem s !terminals) then
            terminals := s :: !terminals
        in
        let productions = ref [] and next_id = ref 0 in
        List.iter
          (fun (r : Bnf.rule) ->
            List.iter
              (fun alt ->
                let rhs =
                  List.map
                    (fun s ->
                      note_terminal s;
                      if is_nt s then Cfg.N s else Cfg.T s)
                    alt
                in
                productions :=
                  { Cfg.id = !next_id; lhs = r.lhs; rhs } :: !productions;
                incr next_id)
              r.alternatives)
          rules;
        let uniq =
          List.fold_left
            (fun acc x -> if List.mem x acc then acc else x :: acc)
            [] nts
          |> List.rev
        in
        Ok (Array.of_list (List.rev !productions), uniq, List.rev !terminals)
      end

  type graph = {
    kinds : Ggraph.node_kind array;
    edges : (int * int * int * int * bool) array; (* src, dst, prod, pos, alt *)
    children : int list array;
    parents : int list array;
    root : int;
  }

  let build ~start (prods, nts, terms) =
    let kinds = ref [] and nnodes = ref 0 in
    let node k =
      kinds := k :: !kinds;
      incr nnodes;
      !nnodes - 1
    in
    let edges = ref [] in
    let edge src dst prod pos alt = edges := (src, dst, prod, pos, alt) :: !edges in
    let nt_tbl = List.fold_left (fun acc nt -> acc @ [ (nt, node (Ggraph.Nt nt)) ]) [] nts in
    let api_tbl =
      List.fold_left (fun acc a -> acc @ [ (a, node (Ggraph.Api a)) ]) [] terms
    in
    let sym_node = function
      | Cfg.T s -> List.assoc s api_tbl
      | Cfg.N s -> List.assoc s nt_tbl
    in
    let attach_rhs ~parent ~alt (p : Cfg.production) =
      match p.Cfg.rhs with
      | [] -> assert false
      | [ sym ] -> edge parent (sym_node sym) p.Cfg.id 0 alt
      | Cfg.T api :: args ->
          let a = List.assoc api api_tbl in
          edge parent a p.Cfg.id 0 alt;
          List.iteri (fun i sym -> edge a (sym_node sym) p.Cfg.id (i + 1) false) args
      | syms -> List.iteri (fun i sym -> edge parent (sym_node sym) p.Cfg.id i alt) syms
    in
    List.iter
      (fun nt ->
        let nt_n = List.assoc nt nt_tbl in
        let ps =
          List.filter (fun (p : Cfg.production) -> p.Cfg.lhs = nt) (Array.to_list prods)
        in
        let multi = List.length ps > 1 in
        List.iter
          (fun (p : Cfg.production) ->
            if multi && List.length p.Cfg.rhs > 1 then begin
              let d = node (Ggraph.Deriv p.Cfg.id) in
              edge nt_n d p.Cfg.id 0 true;
              attach_rhs ~parent:d ~alt:false p
            end
            else attach_rhs ~parent:nt_n ~alt:multi p)
          ps)
      nts;
    let edges = Array.of_list (List.rev !edges) in
    let children = Array.make !nnodes [] and parents = Array.make !nnodes [] in
    Array.iteri
      (fun id (src, dst, _, _, _) ->
        children.(src) <- children.(src) @ [ id ];
        parents.(dst) <- parents.(dst) @ [ id ])
      edges;
    {
      kinds = Array.of_list (List.rev !kinds);
      edges;
      children;
      parents;
      root = List.assoc start nt_tbl;
    }

  (* the one production whose RHS starts with [api] and has arguments *)
  let head_production prods api =
    match
      List.filter
        (fun (p : Cfg.production) ->
          match p.Cfg.rhs with Cfg.T a :: _ :: _ -> a = api | _ -> false)
        (Array.to_list prods)
    with
    | [ p ] -> Some p
    | _ -> None

  let distances g a =
    let d = Array.make (Array.length g.kinds) max_int in
    d.(a) <- 0;
    let queue = Queue.create () in
    Queue.add a queue;
    while not (Queue.is_empty queue) do
      let id = Queue.take queue in
      List.iter
        (fun eid ->
          let _, dst, _, _, _ = g.edges.(eid) in
          if d.(dst) = max_int then begin
            d.(dst) <- d.(id) + 1;
            Queue.add dst queue
          end)
        g.children.(id)
    done;
    d
end

(* Rule lists go straight to [of_bnf], so a left-hand side may repeat
   (Bnf.parse would merge them), and five nonterminal names against six
   API names make terminals recur across rules. A name that never heads
   a rule ("n4" often) is a terminal. *)
let gen_rules =
  let open QCheck.Gen in
  let nts = [| "n0"; "n1"; "n2"; "n3"; "n4" |] in
  let apis = [| "A0"; "A1"; "A2"; "A3"; "A4"; "A5" |] in
  let symbol = frequency [ (2, oneofa nts); (3, oneofa apis) ] in
  let rule =
    map2
      (fun lhs alternatives -> { Bnf.lhs; alternatives })
      (oneofa nts)
      (list_size (1 -- 3) (list_size (1 -- 4) symbol))
  in
  list_size (0 -- 9) rule

let prop_linear_build =
  QCheck.Test.make ~name:"cfg/ggraph/distances = list-based reference"
    ~count:300
    (QCheck.make ~print:Bnf.to_text gen_rules)
    (fun rules ->
      match (Cfg.of_bnf ~start:"n0" rules, Ref.of_bnf ~start:"n0" rules) with
      | Error e, Error r -> e = r
      | Ok _, Error _ | Error _, Ok _ -> false
      | Ok c, Ok ((prods, nts, terms) as rc) ->
          let g = Ggraph.build c and r = Ref.build ~start:"n0" rc in
          let n = Ggraph.node_count g in
          let all = Array.init n Fun.id in
          let batch = Ggraph.dist_rows g all in
          (* a second graph computes each row alone, on a cold memo *)
          let g1 = Ggraph.build c in
          c.Cfg.productions = prods
          && c.Cfg.nonterminals = nts
          && c.Cfg.terminals = terms
          && Array.map (fun (nd : Ggraph.node) -> (nd.Ggraph.id, nd.Ggraph.kind)) g.Ggraph.nodes
             = Array.mapi (fun i k -> (i, k)) r.Ref.kinds
          && Array.map
               (fun (e : Ggraph.edge) ->
                 (e.Ggraph.id, (e.Ggraph.src, e.Ggraph.dst, e.Ggraph.prod, e.Ggraph.pos, e.Ggraph.alt)))
               g.Ggraph.edges
             = Array.mapi (fun i e -> (i, e)) r.Ref.edges
          && g.Ggraph.children = r.Ref.children
          && g.Ggraph.parents = r.Ref.parents
          && g.Ggraph.root = r.Ref.root
          && List.for_all
               (fun api -> Ggraph.head_production g api = Ref.head_production prods api)
               terms
          && Array.for_all
               (fun v ->
                 let want = Ref.distances r v in
                 batch.(v) = want && Ggraph.dist_from g1 v = want)
               all)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_bnf_roundtrip; prop_linear_build ]

let suite =
  [
    Alcotest.test_case "bnf basic" `Quick test_bnf_basic;
    Alcotest.test_case "bnf optional semicolon" `Quick test_bnf_optional_semi;
    Alcotest.test_case "bnf comments + merge" `Quick test_bnf_comments_and_merge;
    Alcotest.test_case "bnf errors" `Quick test_bnf_errors;
    Alcotest.test_case "bnf round-trip" `Quick test_bnf_roundtrip;
    Alcotest.test_case "cfg classification" `Quick test_cfg_classification;
    Alcotest.test_case "cfg productions" `Quick test_cfg_productions;
    Alcotest.test_case "cfg errors" `Quick test_cfg_errors;
    Alcotest.test_case "ggraph nodes" `Quick test_ggraph_nodes;
    Alcotest.test_case "ggraph head-API structure" `Quick test_ggraph_head_api_structure;
    Alcotest.test_case "ggraph or edges" `Quick test_ggraph_or_edges;
    Alcotest.test_case "ggraph deriv nodes" `Quick test_ggraph_multi_symbol_alternative_gets_deriv;
    Alcotest.test_case "ggraph reachable" `Quick test_ggraph_reachable;
    Alcotest.test_case "paths INSERT->STRING" `Quick test_path_search_insert_string;
    Alcotest.test_case "paths absent" `Quick test_path_search_no_path;
    Alcotest.test_case "paths identity" `Quick test_path_search_same_node;
    Alcotest.test_case "paths from root" `Quick test_path_search_from_root;
    Alcotest.test_case "paths limits" `Quick test_path_limits;
    Alcotest.test_case "paths constructor refuses wide ids" `Quick
      test_path_make_refuses_wide_ids;
    Alcotest.test_case "paths recursive grammar" `Quick test_path_search_recursive_grammar;
    Alcotest.test_case "pathvote votes" `Quick test_votes;
    Alcotest.test_case "pathvote conflicts" `Quick test_conflicts;
  ]
  @ qsuite
