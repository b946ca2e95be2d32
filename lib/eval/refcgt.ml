open Dggt_grammar
open Dggt_core

(* The pre-change CGT tree check, kept as the oracle for the one-pass
   {!Dggt_core.Cgt.is_tree}: an in-degree fold over every edge for every
   node, O(nodes x edges). *)

let in_degree g t nid =
  List.fold_left
    (fun acc eid -> if (Ggraph.edge g eid).Ggraph.dst = nid then acc + 1 else acc)
    0 (Cgt.edge_ids t)

let roots_of g t = List.filter (fun nid -> in_degree g t nid = 0) (Cgt.nodes g t)

let is_tree g t =
  if Cgt.is_empty t then true
  else begin
    let ns = Cgt.nodes g t in
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

let well_formed g t = is_tree g t && Cgt.is_grammar_valid g t

let root g t =
  if Cgt.is_empty t then None
  else if not (is_tree g t) then None
  else match roots_of g t with r :: _ -> Some r | [] -> None
