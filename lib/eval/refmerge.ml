open Dggt_util
open Dggt_nlu
open Dggt_grammar
open Dggt_core
module Trace = Dggt_obs.Trace

(* The pre-semiring PathMerge, kept verbatim as the oracle for [bench
   pathmerge] and the semiring property suite: every DGG node carries the
   historical mutable (min_size, min_cgt, assignment, score) quadruple,
   replaced through [update_min]. Structured as {!Dggt_core.Engine.merge_fn}
   so the DGGT pipeline (orphan relocation, variant selection, budget) is
   shared — only step 5's chart differs. Outcomes, statistics and trace
   notes must stay byte-identical to {!Dggt_core.Dggt.synthesize_with_graph} under
   {!Dggt_core.Semiring.Min_size}; the gate in CI holds this file and the
   semiring walk to each other. It prunes, bounds sizes and checks trees
   with the pre-claims pair table ({!Refgprune}), the list size filter
   ({!Refsprune}) and the quadratic tree check ({!Refcgt}), so the same
   gate also holds the production enumeration and tree check to theirs. *)

type rnode = {
  id : int;
  mutable min_size : int; (* max_int until set *)
  mutable min_cgt : Cgt.t;
  mutable assignment : (int * string) list;
  mutable score : float;
}

type rgraph = {
  mutable node_count : int;
  mutable edge_count : int;
  api_tbl : (int * string, rnode) Hashtbl.t;
  mutable rev_apis : (int * rnode) list; (* (dep, node), newest first *)
}

let mk_graph () =
  (* node 0 is the start node; it never enters api_tbl *)
  { node_count = 1; edge_count = 0; api_tbl = Hashtbl.create 32; rev_apis = [] }

let mk_node rg =
  let n =
    { id = rg.node_count; min_size = max_int; min_cgt = Cgt.empty;
      assignment = []; score = 0.0 }
  in
  rg.node_count <- rg.node_count + 1;
  n

let find_api rg ~dep ~api = Hashtbl.find_opt rg.api_tbl (dep, api)

let add_api rg ~dep ~api =
  match find_api rg ~dep ~api with
  | Some n -> n
  | None ->
      let n = mk_node rg in
      Hashtbl.add rg.api_tbl (dep, api) n;
      rg.rev_apis <- (dep, n) :: rg.rev_apis;
      n

let add_edge rg = rg.edge_count <- rg.edge_count + 1

let set_ n = n.min_size < max_int

let update_min n ~size ~cgt ~assignment ~score =
  let cov = List.length assignment in
  let cur_cov = List.length n.assignment in
  let better =
    (not (set_ n))
    || cov > cur_cov
    || (cov = cur_cov
       && (size < n.min_size
          || (size = n.min_size
             && (score > n.score +. 1e-9
                || (Float.abs (score -. n.score) <= 1e-9
                   && Cgt.compare cgt n.min_cgt < 0)))))
  in
  if better then begin
    n.min_size <- size;
    n.min_cgt <- cgt;
    n.assignment <- assignment;
    n.score <- score
  end;
  better

let singleton_cgt g api = Option.map Cgt.node (Ggraph.api_node g api)

let synthesize ~budget ~stats ~gprune ~sprune ?(trace : Trace.span option) g
    (dg : Depgraph.t) w2a e2p =
  let rg = mk_graph () in
  let lemma_of id =
    match Depgraph.node_opt dg id with
    | Some n -> n.Depgraph.lemma
    | None -> string_of_int id
  in
  let record_improved improved =
    if improved then
      stats.Stats.dgg_improvements <- stats.Stats.dgg_improvements + 1;
    improved
  in

  let seed_leaf dep api =
    match singleton_cgt g api with
    | None -> ()
    | Some cgt ->
        let n = add_api rg ~dep ~api in
        if not (set_ n) then begin
          add_edge rg;
          ignore
            (record_improved
               (update_min n ~size:1 ~cgt ~assignment:[ (dep, api) ]
                  ~score:(Word2api.score w2a dep api)))
        end
  in

  let node_api_index =
    let tbl = Hashtbl.create 16 in
    let get id = Option.value (Hashtbl.find_opt tbl id) ~default:([], []) in
    List.iter
      (fun (e : Depgraph.edge) ->
        List.iter
          (fun (p : Edge2path.epath) ->
            let inc, out = get e.Depgraph.dep in
            Hashtbl.replace tbl e.Depgraph.dep
              (p.Edge2path.dep_api :: inc, out);
            match p.Edge2path.gov_api with
            | Some a ->
                let inc, out = get e.Depgraph.gov in
                Hashtbl.replace tbl e.Depgraph.gov (inc, a :: out)
            | None -> ())
          (Edge2path.paths_of_edge e2p e))
      dg.Depgraph.edges;
    tbl
  in
  let node_apis (n : Depgraph.node) =
    let incoming, outgoing =
      Option.value
        (Hashtbl.find_opt node_api_index n.Depgraph.id)
        ~default:([], [])
    in
    Listutil.uniq (List.rev_append incoming (List.rev outgoing))
  in

  let order =
    List.map (fun (n : Depgraph.node) -> (Depgraph.depth dg n.Depgraph.id, n)) dg.Depgraph.nodes
    |> List.sort (fun (d1, n1) (d2, n2) ->
           match compare d2 d1 with
           | 0 -> compare n1.Depgraph.id n2.Depgraph.id
           | c -> c)
    |> List.map snd
  in

  let process (n1 : Depgraph.node) =
    let id = n1.Depgraph.id in
    let child_edges = Depgraph.children dg id in
    let usable (e : Depgraph.edge) =
      Edge2path.paths_of_edge e2p e
      |> List.filter (fun (p : Edge2path.epath) ->
             match find_api rg ~dep:e.Depgraph.dep ~api:p.Edge2path.dep_api with
             | Some child -> set_ child
             | None -> false)
    in
    let edges_with_paths =
      List.filter_map
        (fun e -> match usable e with [] -> None | ps -> Some (e, ps))
        child_edges
    in
    List.iter (fun api -> seed_leaf id api)
      (Listutil.uniq (Word2api.apis w2a id @ node_apis n1));
    if edges_with_paths <> [] then begin
      let all_paths = List.concat_map snd edges_with_paths in
      let gov_apis =
        Listutil.uniq
          (List.filter_map (fun (p : Edge2path.epath) -> p.Edge2path.gov_api) all_paths)
      in
      let child_extra (p : Edge2path.epath) =
        match
          find_api rg ~dep:p.Edge2path.edge.Depgraph.dep ~api:p.Edge2path.dep_api
        with
        | Some child when set_ child -> child.min_size - 1
        | _ -> 0
      in
      let conflict_tbl = Refgprune.prepare g all_paths in
      List.iter
        (fun a ->
          let groups =
            List.map
              (fun (_, ps) ->
                List.filter
                  (fun (p : Edge2path.epath) ->
                    p.Edge2path.gov_api = Some a || p.Edge2path.gov_api = None)
                  ps)
              edges_with_paths
          in
          if List.for_all (fun gp -> gp <> []) groups then begin
            let case_ii = List.length groups > 1 in
            let survivors, total =
              Refgprune.combos ~budget conflict_tbl ~enabled:(gprune && case_ii) groups
            in
            let after_gprune = List.length survivors in
            if case_ii then begin
              (* saturating, like the chart's counter: a long coordinated
                 list's product passes [max_int] *)
              stats.Stats.combos_total <- Stats.sum stats.Stats.combos_total total;
              stats.Stats.combos_after_gprune <-
                stats.Stats.combos_after_gprune + after_gprune
            end;
            let survivors =
              if case_ii then Refsprune.prune ~enabled:sprune ~extra:child_extra survivors
              else survivors
            in
            if case_ii then
              stats.Stats.combos_after_sprune <-
                stats.Stats.combos_after_sprune + List.length survivors;
            if case_ii && Trace.on trace then
              Trace.str trace
                (Printf.sprintf "combos %s:%s" (lemma_of id) a)
                (Printf.sprintf "%d total, %d after gprune, %d after sprune"
                   total after_gprune (List.length survivors));
            let api_node = ref None in
            let get_api_node () =
              match !api_node with
              | Some n -> n
              | None ->
                  let n = add_api rg ~dep:id ~api:a in
                  api_node := Some n;
                  n
            in
            let merged_any = ref false in
            let try_combo _idx combo =
              Budget.check budget;
              if case_ii then
                stats.Stats.combos_merged <- stats.Stats.combos_merged + 1;
              let merged, assignment, ok =
                List.fold_left
                  (fun (cgt, asg, ok) (p : Edge2path.epath) ->
                    if not ok then (cgt, asg, false)
                    else
                      match
                        find_api rg ~dep:p.Edge2path.edge.Depgraph.dep
                          ~api:p.Edge2path.dep_api
                      with
                      | Some child when set_ child ->
                          ( Cgt.merge (Cgt.merge_path cgt p.Edge2path.path)
                              child.min_cgt,
                            child.assignment @ asg,
                            true )
                      | _ -> (cgt, asg, false))
                  (Cgt.empty, [], true)
                  combo
              in
              let assignment = (id, a) :: assignment in
              if ok && Synres.injective assignment && Refcgt.well_formed g merged
              then begin
                merged_any := true;
                let size = Refcgt.api_size g merged in
                let score = Word2api.assignment_score w2a assignment in
                let target = get_api_node () in
                if case_ii then begin
                  let pcgt = mk_node rg in
                  ignore
                    (record_improved
                       (update_min pcgt ~size ~cgt:merged ~assignment ~score));
                  List.iter (fun (_ : Edge2path.epath) -> add_edge rg) combo;
                  add_edge rg (* pcgt -> target auxiliary *)
                end
                else begin
                  match combo with [ _ ] -> add_edge rg | _ -> ()
                end;
                let improved =
                  record_improved
                    (update_min target ~size ~cgt:merged ~assignment ~score)
                in
                if improved && Trace.on trace then
                  Trace.int trace
                    (Printf.sprintf "min_size %s:%s" (lemma_of id) a)
                    size
              end
            in
            List.iteri try_combo survivors;
            if not !merged_any then
              List.iter
                (fun group -> List.iter (fun p -> try_combo 0 [ p ]) group)
                groups
          end)
        gov_apis
    end
  in
  List.iter process order;

  stats.Stats.dgg_nodes <- rg.node_count;
  stats.Stats.dgg_edges <- rg.edge_count;
  let apis = List.rev rg.rev_apis in
  if Trace.on trace then begin
    List.iter
      (fun (n : Depgraph.node) ->
        Trace.int trace
          (Printf.sprintf "dgg level %s" n.Depgraph.lemma)
          (List.length
             (List.filter (fun (dep, _) -> dep = n.Depgraph.id) apis)))
      order;
    Trace.int trace "dgg_nodes" rg.node_count;
    Trace.int trace "dgg_edges" rg.edge_count
  end;

  let best =
    List.filter_map
      (fun (dep, n) -> if dep = dg.Depgraph.root && set_ n then Some n else None)
      apis
    |> Listutil.min_by (fun (a : rnode) b ->
           match
             compare (List.length b.assignment) (List.length a.assignment)
           with
           | 0 -> (
               match compare a.min_size b.min_size with
               | 0 -> (
                   match compare b.score a.score with
                   | 0 -> (
                       match Cgt.compare a.min_cgt b.min_cgt with
                       | 0 -> compare a.id b.id
                       | c -> c)
                   | c -> c)
               | c -> c)
           | c -> c)
  in
  Option.map
    (fun (n : rnode) ->
      { Synres.cgt = n.min_cgt; size = n.min_size; assignment = n.assignment })
    best
