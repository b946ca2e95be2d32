open Dggt_util

(* API-choice consistency: each dependency node must be interpreted as one
   API across the whole combination. *)
let consistent_assignment combo =
  let tbl = Hashtbl.create 8 in
  let ok = ref true in
  let bind node api =
    match Hashtbl.find_opt tbl node with
    | Some a when a <> api -> ok := false
    | Some _ -> ()
    | None -> Hashtbl.add tbl node api
  in
  List.iter
    (fun (p : Edge2path.epath) ->
      (match p.Edge2path.gov_api with
      | Some a -> bind p.Edge2path.edge.Dggt_nlu.Depgraph.gov a
      | None -> ());
      bind p.Edge2path.edge.Dggt_nlu.Depgraph.dep p.Edge2path.dep_api)
    combo;
  if not !ok then None
  else
    let assignment = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    if Synres.injective assignment then Some assignment else None

module Trace = Dggt_obs.Trace

let synthesize ~budget ~stats ?(trace : Trace.span option) g
    (dg : Dggt_nlu.Depgraph.t) w2a e2p =
  let groups =
    List.filter_map
      (fun e ->
        match Edge2path.paths_of_edge e2p e with [] -> None | ps -> Some ps)
      dg.Dggt_nlu.Depgraph.edges
  in
  if groups = [] then None
  else begin
    stats.Stats.hisyn_combos_possible <- Listutil.cartesian_count groups;
    Trace.int trace "combos_possible" stats.Stats.hisyn_combos_possible;
    let best = ref None in
    let scratch = Cgt.scratch g in
    let consider cgt size assignment =
      let score = Word2api.assignment_score w2a assignment in
      match !best with
      | Some (bs, bscore, bcgt, _)
        when bs < size
             || (bs = size
                && (bscore > score +. 1e-9
                   || (Float.abs (bscore -. score) <= 1e-9
                      && Cgt.compare bcgt cgt <= 0))) ->
          ()
      | _ -> best := Some (size, score, cgt, assignment)
    in
    Listutil.iter_cartesian
      (fun combo ->
        Budget.check budget;
        stats.Stats.hisyn_combos_enumerated <-
          stats.Stats.hisyn_combos_enumerated + 1;
        match consistent_assignment combo with
        | None -> ()
        | Some assignment ->
            let cgt =
              List.fold_left
                (fun acc (p : Edge2path.epath) ->
                  Cgt.merge_path acc p.Edge2path.path)
                Cgt.empty combo
            in
            let size = Cgt.check scratch cgt in
            if size >= 0 then consider cgt size assignment)
      groups;
    Trace.int trace "combos_enumerated" stats.Stats.hisyn_combos_enumerated;
    (if Trace.on trace then
       match !best with
       | Some (size, score, _, _) ->
           Trace.int trace "best_size" size;
           Trace.float trace "best_score" score
       | None -> Trace.str trace "best" "(no well-formed combination)");
    Option.map (fun (size, _, cgt, assignment) -> { Synres.cgt; size; assignment }) !best
  end
