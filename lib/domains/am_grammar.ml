(* Compiles the matcher spec table into the domain's BNF grammar.

   Shape (per §IV of the paper: API terminals, nonterminal structure, "or"
   alternatives):

     matcher ::= decl_m | stmt_m | expr_m | type_m ;
     decl_m  ::= n_functionDecl | n_varDecl | ... ;
     n_functionDecl ::= functionDecl a_functionDecl ;
     a_functionDecl ::= isInline | n_hasName | n_hasBody | ... ;
     n_hasName ::= hasName __strlit ;
     n_hasBody ::= hasBody stmt_m ;

   Every node matcher owns its argument nonterminal (a_<name>): sharing a
   per-kind argument nonterminal would give it two parents as soon as a
   query chains two matchers of the same kind, breaking the merged CGT's
   tree-ness. Narrowing matchers appear as bare API terminals (nullary) or
   via n_<name> when they carry a literal; traversal matchers always go
   through n_<name> to reach their target kind. *)

open Am_spec

let kind_nt = function
  | Decl -> "decl_m"
  | Stmt -> "stmt_m"
  | Expr -> "expr_m"
  | Type -> "type_m"

let lit_api = function Lstr -> "__strlit" | Lnum -> "__intlit" | Lnone -> assert false

let generate specs =
  let buf = Buffer.create 65536 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let nodes_of k =
    List.filter_map
      (function Node n when n.kind = k -> Some n.name | _ -> None)
      specs
  in
  let inner_symbols_for k =
    (* alternatives available inside a node matcher of kind [k] *)
    List.filter_map
      (function
        | Narrow n when List.mem k n.kinds ->
            Some (if n.lit = Lnone then n.name else "n_" ^ n.name)
        | Traversal t when List.mem k t.kinds -> Some ("n_" ^ t.name)
        | _ -> None)
      specs
  in
  line "# ASTMatcher grammar — generated from Am_spec (%d matchers)"
    (List.length specs);
  line "matcher ::= decl_m | stmt_m | expr_m | type_m ;";
  List.iter
    (fun k ->
      line "%s ::= %s ;" (kind_nt k)
        (String.concat " | " (List.map (fun n -> "n_" ^ n) (nodes_of k))))
    [ Decl; Stmt; Expr; Type ];
  (* node matchers and their argument nonterminals *)
  List.iter
    (function
      | Node n ->
          line "n_%s ::= %s a_%s ;" n.name n.name n.name;
          line "a_%s ::= %s ;" n.name (String.concat " | " (inner_symbols_for n.kind))
      | _ -> ())
    specs;
  (* literal-bearing narrowing matchers *)
  List.iter
    (function
      | Narrow n when n.lit <> Lnone ->
          line "n_%s ::= %s %s ;" n.name n.name (lit_api n.lit)
      | _ -> ())
    specs;
  (* traversal matchers *)
  List.iter
    (function
      | Traversal t ->
          let target = match t.arg with Some k -> kind_nt k | None -> "matcher" in
          line "n_%s ::= %s %s ;" t.name t.name target
      | _ -> ())
    specs;
  Buffer.contents buf

let bnf () = generate Am_spec.all
