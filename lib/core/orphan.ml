open Dggt_nlu
open Dggt_grammar
open Dggt_util

let in_subtree dg ~root:r id =
  let rec go id visited =
    if id = r then true
    else if List.mem id visited then false
    else
      match Depgraph.parent dg id with
      | Some e -> go e.Depgraph.gov (id :: visited)
      | None -> false
  in
  go id []

let governor_candidates g (dg : Depgraph.t) w2a ~orphan =
  let orphan_apis = Word2api.apis w2a orphan in
  let orphan_nodes =
    List.filter_map (fun api -> Ggraph.api_node g api) orphan_apis
  in
  List.filter_map
    (fun (n : Depgraph.node) ->
      let id = n.Depgraph.id in
      if id = orphan || in_subtree dg ~root:orphan id then None
      else
        let apis = Word2api.apis w2a id in
        let governs =
          List.exists
            (fun api ->
              match Ggraph.api_node g api with
              | None -> false
              | Some a ->
                  List.exists
                    (fun b -> a <> b && Ggraph.reachable g a b)
                    orphan_nodes)
            apis
        in
        if governs then Some id else None)
    dg.Depgraph.nodes

let rehome (dg : Depgraph.t) ~orphan ~governor =
  let edges =
    List.map
      (fun (e : Depgraph.edge) ->
        if e.Depgraph.dep = orphan then
          { e with Depgraph.gov = governor; label = Dggt_nlu.Dep.Dep }
        else e)
      dg.Depgraph.edges
  in
  (* an orphan that had no edge at all (detached root child) gains one *)
  let edges =
    if List.exists (fun (e : Depgraph.edge) -> e.Depgraph.dep = orphan) edges then
      edges
    else
      { Depgraph.gov = governor; dep = orphan; label = Dggt_nlu.Dep.Dep } :: edges
  in
  { dg with Depgraph.edges }

let relocate ?(max_graphs = 8) g dg w2a ~orphans =
  let choices =
    List.map
      (fun o ->
        match governor_candidates g dg w2a ~orphan:o with
        | [] -> [ None ] (* leave in place *)
        | gs -> List.map (fun gv -> Some (o, gv)) gs)
      orphans
  in
  (* only the first [max_graphs] placements are ever built: the full
     product grows exponentially with the orphans *)
  let combos = Listutil.cartesian_take max_graphs choices in
  let graphs =
    List.map
      (fun moves ->
        List.fold_left
          (fun acc mv ->
            match mv with
            | Some (o, gv) -> rehome acc ~orphan:o ~governor:gv
            | None -> acc)
          dg moves)
      combos
  in
  match graphs with [] when max_graphs > 0 -> [ dg ] | _ -> graphs
