open Dggt_grammar

type expr = { api : string; lit : string option; args : expr list }

type error = Empty_cgt | Not_a_tree | Root_not_api of string

let pp_error fmt = function
  | Empty_cgt -> Format.fprintf fmt "empty CGT"
  | Not_a_tree -> Format.fprintf fmt "CGT is not a tree"
  | Root_not_api s -> Format.fprintf fmt "CGT root %s is not an API" s

(* --- parsing (needed early: default completion parses default text) --- *)

exception Parse_fail of string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let skip_ws () =
    while !pos < n && (input.[!pos] = ' ' || input.[!pos] = '\n' || input.[!pos] = '\t')
    do
      incr pos
    done
  in
  let fail msg = raise (Parse_fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let ident () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      &&
      let c = input.[!pos] in
      Dggt_util.Strutil.is_alnum c || c = '_'
    do
      incr pos
    done;
    if !pos = start then fail "expected identifier";
    String.sub input start (!pos - start)
  in
  let quoted () =
    incr pos;
    let start = !pos in
    while !pos < n && input.[!pos] <> '"' do
      incr pos
    done;
    if !pos >= n then fail "unterminated string literal";
    let s = String.sub input start (!pos - start) in
    incr pos;
    s
  in
  let number () =
    let start = !pos in
    if !pos < n && input.[!pos] = '-' then incr pos;
    while
      !pos < n
      &&
      let c = input.[!pos] in
      (c >= '0' && c <= '9') || c = '.'
    do
      incr pos
    done;
    String.sub input start (!pos - start)
  in
  let rec call () =
    let api = ident () in
    skip_ws ();
    match peek () with
    | Some '(' ->
        incr pos;
        skip_ws ();
        let lit = ref None in
        let args = ref [] in
        let set_lit v =
          if !lit <> None then fail "two literals in one call";
          lit := Some v
        in
        let rec arguments () =
          skip_ws ();
          match peek () with
          | Some ')' -> incr pos
          | Some '"' ->
              set_lit (quoted ());
              after_arg ()
          | Some c when c = '-' || (c >= '0' && c <= '9') ->
              set_lit (number ());
              after_arg ()
          | Some _ ->
              args := call () :: !args;
              after_arg ()
          | None -> fail "unterminated call"
        and after_arg () =
          skip_ws ();
          match peek () with
          | Some ',' ->
              incr pos;
              arguments ()
          | Some ')' -> incr pos
          | _ -> fail "expected ',' or ')'"
        in
        arguments ();
        { api; lit = !lit; args = List.rev !args }
    | _ -> { api; lit = None; args = [] }
  in
  try
    let e = call () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok e
  with Parse_fail m -> Error m

(* --- linearization ------------------------------------------------- *)

let of_cgt ?(lits = []) ?(defaults = []) scratch cgt =
  let g = Cgt.graph scratch in
  if Cgt.is_empty cgt then Error Empty_cgt
  else
    match Cgt.root scratch cgt with
    | None -> Error Not_a_tree
    | Some root ->
        (* literal queues per API name *)
        let lit_q : (string, string Queue.t) Hashtbl.t = Hashtbl.create 4 in
        List.iter
          (fun (api, v) ->
            let q =
              match Hashtbl.find_opt lit_q api with
              | Some q -> q
              | None ->
                  let q = Queue.create () in
                  Hashtbl.add lit_q api q;
                  q
            in
            Queue.add v q)
          lits;
        let take_lit api =
          match Hashtbl.find_opt lit_q api with
          | Some q when not (Queue.is_empty q) -> Some (Queue.take q)
          | _ -> None
        in
        let out_in_cgt nid =
          Ggraph.out_edges g nid
          |> List.filter (fun (e : Ggraph.edge) -> Cgt.mem_edge cgt e.Ggraph.id)
          |> List.sort (fun (a : Ggraph.edge) b ->
                 compare (a.Ggraph.prod, a.Ggraph.pos) (b.Ggraph.prod, b.Ggraph.pos))
        in
        (* default completion: parse each nonterminal's default text once *)
        let default_cache : (string, expr option) Hashtbl.t = Hashtbl.create 4 in
        let default_for nt =
          match Hashtbl.find_opt default_cache nt with
          | Some d -> d
          | None ->
              let d =
                match List.assoc_opt nt defaults with
                | None -> None
                | Some text -> (
                    match parse text with Ok e -> Some e | Error _ -> None)
              in
              Hashtbl.add default_cache nt d;
              d
        in
        (* collapse non-API nodes: an NT/Deriv node yields the API exprs of
           its children, concatenated in order *)
        let rec exprs_under nid =
          if Ggraph.is_api g nid then [ api_expr nid ]
          else
            List.concat_map
              (fun (e : Ggraph.edge) -> exprs_under e.Ggraph.dst)
              (out_in_cgt nid)
        and api_expr nid =
          let name = Ggraph.node_name g nid in
          let covered = out_in_cgt nid in
          let args =
            match Ggraph.head_production g name with
            | Some p when defaults <> [] ->
                (* walk the argument positions in RHS order, emitting the
                   covered subtree or the nonterminal's default *)
                List.concat
                  (List.mapi
                     (fun i sym ->
                       let pos = i + 1 in
                       match
                         List.find_opt
                           (fun (e : Ggraph.edge) -> e.Ggraph.pos = pos)
                           covered
                       with
                       | Some e -> exprs_under e.Ggraph.dst
                       | None -> (
                           match sym with
                           | Cfg.N nt -> (
                               match default_for nt with Some d -> [ d ] | None -> [])
                           | Cfg.T _ -> []))
                     (List.tl p.Cfg.rhs))
            | _ ->
                List.concat_map
                  (fun (e : Ggraph.edge) -> exprs_under e.Ggraph.dst)
                  covered
          in
          { api = name; lit = take_lit name; args }
        in
        if Ggraph.is_api g root then Ok (api_expr root)
        else begin
          (* Root-anchored CGTs start at a nonterminal; descend while the
             spine is a single chain to the first API. *)
          match exprs_under root with
          | [ e ] -> Ok e
          | _ -> Error (Root_not_api (Ggraph.node_name g root))
        end

let rec normalize e =
  let args = List.map normalize e.args in
  let carried, args =
    List.partition
      (fun a -> Dggt_util.Strutil.starts_with ~prefix:"__" a.api && a.args = [])
      args
  in
  let lit =
    match (e.lit, carried) with
    | Some v, _ -> Some v
    | None, { lit = Some v; _ } :: _ -> Some v
    | None, _ -> None
  in
  { e with lit; args }

let is_number s =
  String.exists (fun c -> c >= '0' && c <= '9') s
  && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-') s

let rec to_string e =
  let lit_part =
    match e.lit with
    | Some v when is_number v -> [ v ]
    | Some v -> [ "\"" ^ v ^ "\"" ]
    | None -> []
  in
  let arg_parts = List.map to_string e.args in
  Printf.sprintf "%s(%s)" e.api (String.concat ", " (lit_part @ arg_parts))

let rec equal a b =
  a.api = b.api && a.lit = b.lit
  && List.length a.args = List.length b.args
  && List.for_all2 equal a.args b.args

let api_multiset e =
  let rec go acc e = List.fold_left go (e.api :: acc) e.args in
  List.sort compare (go [] e)
