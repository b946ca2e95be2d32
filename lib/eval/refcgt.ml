open Dggt_grammar
open Dggt_core

(* The pre-change CGT checks, kept as the oracle for the one-pass
   {!Dggt_core.Cgt} check: an in-degree fold over every edge for every
   node, O(nodes x edges), a production table per call and an API count
   over a rebuilt node set. Written against [Cgt]'s public API. *)

let nodes g t =
  List.sort_uniq compare
    (Cgt.lone_ids t
    @ List.concat_map
        (fun eid ->
          let e = Ggraph.edge g eid in
          [ e.Ggraph.src; e.Ggraph.dst ])
        (Cgt.edge_ids t))

let api_size g t =
  List.fold_left (fun acc nid -> if Ggraph.is_api g nid then acc + 1 else acc) 0 (nodes g t)

let is_grammar_valid g t =
  let prods : (int, int) Hashtbl.t = Hashtbl.create 16 in
  try
    List.iter
      (fun eid ->
        let e = Ggraph.edge g eid in
        match Hashtbl.find_opt prods e.Ggraph.src with
        | Some p when p <> e.Ggraph.prod -> raise Exit
        | Some _ -> ()
        | None -> Hashtbl.add prods e.Ggraph.src e.Ggraph.prod)
      (Cgt.edge_ids t);
    true
  with Exit -> false

let in_degree g t nid =
  List.fold_left
    (fun acc eid -> if (Ggraph.edge g eid).Ggraph.dst = nid then acc + 1 else acc)
    0 (Cgt.edge_ids t)

let roots_of g t = List.filter (fun nid -> in_degree g t nid = 0) (nodes g t)

let is_tree g t =
  if Cgt.is_empty t then true
  else begin
    let ns = nodes g t in
    match roots_of g t with
    | [ root ] ->
        if not (List.for_all (fun nid -> in_degree g t nid <= 1) ns) then false
        else begin
          (* in-degree <= 1 with a single root still admits a disjoint cycle
             component (all in-degree 1); demand reachability from the root. *)
          let seen = Hashtbl.create 16 in
          let rec dfs nid =
            if not (Hashtbl.mem seen nid) then begin
              Hashtbl.add seen nid ();
              List.iter
                (fun eid ->
                  let e = Ggraph.edge g eid in
                  if e.Ggraph.src = nid then dfs e.Ggraph.dst)
                (Cgt.edge_ids t)
            end
          in
          dfs root;
          List.for_all (Hashtbl.mem seen) ns
        end
    | _ -> false
  end

let well_formed g t = is_tree g t && is_grammar_valid g t

let root g t =
  if Cgt.is_empty t then None
  else if not (is_tree g t) then None
  else match roots_of g t with r :: _ -> Some r | [] -> None
