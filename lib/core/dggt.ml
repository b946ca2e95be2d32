open Dggt_util
open Dggt_nlu
open Dggt_grammar
module Trace = Dggt_obs.Trace

(* The paper's Algorithm 1: a bottom-up traversal of the pruned dependency
   graph builds the dynamic grammar graph, memoizing the optimal partial
   CGT per (word, API) pair; the final answer is read off the root word's
   best API node. Case I (single child) and Case II (sibling children,
   with grammar- and size-based pruning before prefix-tree merging) follow
   the paper; coverage-first comparison and the single-edge fallback are
   this implementation's robustness extensions (see DESIGN.md).

   The walk is generic over the PathMerge objective ({!Semiring.t}): it
   always extends by each child's BEST candidate — so the stream of
   candidates offered to every cell is the same for every objective, the
   Min_size instantiation is byte-identical to the historical ad-hoc memo
   by construction, and Top_k's head provably equals Min_size's answer.
   Top-k therefore ranks the best candidate per surviving derivation the
   min-size DP actually evaluated; full k-best substitution of non-best
   children is future work (DESIGN.md discusses the trade-off). *)

let singleton_cgt g api = Option.map Cgt.node (Ggraph.api_node g api)

(* coverage first (as in the cell order), then size, then the same
   structural tie-break as the baseline; node id (creation order — the
   WordToAPI ranking for single-word queries) breaks residual ties between
   structurally identical options. Score here is the exact float
   comparison the pre-semiring root selection used; the cell order's 1e-9
   epsilon applies only inside {!Semiring.Cell.plus}. *)
let root_compare ((a, ca) : Dgg.node * Semiring.cand) (b, cb) =
  match
    compare
      (List.length cb.Semiring.assignment)
      (List.length ca.Semiring.assignment)
  with
  | 0 -> (
      match compare ca.Semiring.size cb.Semiring.size with
      | 0 -> (
          match compare cb.Semiring.score ca.Semiring.score with
          | 0 -> (
              match Cgt.compare ca.Semiring.cgt cb.Semiring.cgt with
              | 0 -> compare (Dgg.id a) (Dgg.id b)
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

(* a path's dependent interpretation: its solved API node in [dyng] *)
let solved_child dyng (p : Edge2path.epath) =
  match
    Dgg.find_api dyng ~dep:p.Edge2path.edge.Depgraph.dep ~api:p.Edge2path.dep_api
  with
  | Some c when Dgg.solved c -> Some c
  | _ -> None

(* The sibling groups PathMerge enumerates at dependency node [id]. A
   path is usable when [child_of] finds its dependent interpretation; a
   governor API is viable only if it has a usable path for every child
   edge that has one (same condition HISyn's consistency check
   enforces). gov_api = None marks a root-anchored orphan path (HISyn's
   orphan treatment, reachable here when relocation is disabled in
   ablations): it does not constrain the governor's API, so it joins
   every governor's group; the final well-formedness check decides
   whether it actually fuses. *)
let groups child_of e2p (dg : Depgraph.t) id =
  let usable (e : Depgraph.edge) =
    List.filter
      (fun p -> child_of p <> None)
      (Edge2path.paths_of_edge e2p e)
  in
  let edge_paths =
    List.filter_map
      (fun e -> match usable e with [] -> None | ps -> Some ps)
      (Depgraph.children dg id)
  in
  let gov_apis =
    Listutil.uniq
      (List.concat_map
         (List.filter_map (fun (p : Edge2path.epath) -> p.Edge2path.gov_api))
         edge_paths)
  in
  List.filter_map
    (fun a ->
      let groups =
        List.map
          (List.filter (fun (p : Edge2path.epath) ->
               p.Edge2path.gov_api = Some a || p.Edge2path.gov_api = None))
          edge_paths
      in
      if List.for_all (fun gp -> gp <> []) groups then Some (a, groups) else None)
    gov_apis

let governor_groups dyng = groups (solved_child dyng)

(* the size a path's dependent subtree adds beyond the API the path
   already counts *)
let extra_of = function Some c -> Dgg.size c - 1 | None -> 0
let child_extra dyng p = extra_of (solved_child dyng p)

let synthesize_with_graph ?(objective = Semiring.Min_size) ~budget ~stats
    ?(gprune = true) ?(sprune = true) ?(trace : Trace.span option)
    ?(on_improve : (Semiring.cand -> unit) option) g (dg : Depgraph.t) w2a e2p =
  let dyng = Dgg.create objective in
  let scratch = Cgt.scratch g in
  (* each usable path's child API node by path id, looked up once, when
     its governor forms its groups: the path's extra size (through
     [Gprune.prepare]'s [extra]) and the child's best candidate
     ([child_best]) come from here *)
  let child = Array.make (Edge2path.id_bound e2p) None in
  let record_child (p : Edge2path.epath) =
    let c = solved_child dyng p in
    child.(p.Edge2path.id) <- c;
    c
  in
  (* one enumeration state for the whole walk: a path's extra weight is
     read at its governor, when its child's cell is final *)
  let prepared =
    lazy
      (Gprune.prepare
         ~extra:(fun (p : Edge2path.epath) -> extra_of child.(p.Edge2path.id))
         g)
  in
  let child_best (p : Edge2path.epath) =
    match child.(p.Edge2path.id) with Some c -> Dgg.best c | None -> None
  in
  let lemma_of id =
    match Depgraph.node_opt dg id with
    | Some n -> n.Depgraph.lemma
    | None -> string_of_int id
  in
  (* the emission seam: a root cell's best just changed, so the candidate
     that caused the change is the walk's current best interpretation of
     the whole query under that root API — stream it out. Only API nodes
     of the root dependency word qualify (they are exactly the cells
     [ranked_of_graph] reads the final n-best off); improvements of inner
     cells are intermediate state, not candidates. *)
  let emit_root node cand =
    match on_improve with
    | None -> ()
    | Some f -> if Dgg.dep node = dg.Depgraph.root then f cand
  in
  let record_improved node cand =
    let improved = Dgg.improved node cand in
    if improved then begin
      stats.Stats.dgg_improvements <- stats.Stats.dgg_improvements + 1;
      emit_root node cand
    end;
    improved
  in

  (* Seed an API node for a (dep, api) pair as a leaf interpretation. *)
  let seed_leaf dep api =
    match singleton_cgt g api with
    | None -> ()
    | Some cgt ->
        let n = Dgg.add_api dyng ~dep ~api in
        if not (Dgg.solved n) then begin
          Dgg.count_edge dyng;
          ignore
            (record_improved n
               {
                 Semiring.size = 1;
                 cgt;
                 assignment = [ (dep, api) ];
                 score = Word2api.score w2a dep api;
               })
        end
  in

  (* Which APIs can a node take? The union of dep_api over its incoming
     edge's paths; for the root, the union of gov_api over its outgoing
     edges' paths. Precomputed in one pass over the edges (the per-node
     closure used to rescan every dependency edge per node — quadratic in
     the query size); accumulation is per-node in edge order, so the
     resulting lists match the old per-node scans element for element. *)
  let node_api_index =
    let tbl = Hashtbl.create 16 in
    (* id -> (incoming rev, outgoing rev) *)
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

  (* Bottom-up: deepest dependency nodes first. *)
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
    let governors = groups record_child e2p dg id in
    (* Every candidate API seeds a singleton interpretation (Algorithm 1,
       line 3 for leaves); for governors these are fallbacks that drop the
       subtree — coverage-first accumulation keeps them only when no fuller
       interpretation exists, which is what lets a mis-attached noise child
       degrade gracefully instead of erasing the word. *)
    List.iter (fun api -> seed_leaf id api)
      (Dggt_util.Listutil.uniq (Word2api.apis w2a id @ node_apis n1));
    if governors <> [] then begin
      let prepared = Lazy.force prepared in
      List.iter
        (fun (a, groups) ->
          let case_ii = List.length groups > 1 in
          (* grammar- and size-based pruning happen inside combination
             generation *)
          let { Gprune.kept = survivors; total; conflict_free } =
            Gprune.combos ~budget prepared ~gprune:(gprune && case_ii)
              ~sprune:(sprune && case_ii) groups
          in
          if case_ii then begin
            stats.Stats.combos_total <- Stats.sum stats.Stats.combos_total total;
            stats.Stats.combos_after_gprune <-
              stats.Stats.combos_after_gprune + conflict_free;
            stats.Stats.combos_after_sprune <-
              stats.Stats.combos_after_sprune + List.length survivors
          end;
          if case_ii && Trace.on trace then
            Trace.str trace
              (Printf.sprintf "combos %s:%s" (lemma_of id) a)
              (Printf.sprintf "%d total, %d after gprune, %d after sprune"
                 total conflict_free (List.length survivors));
          let api_node = ref None in
          let get_api_node () =
            match !api_node with
            | Some n -> n
            | None ->
                let n = Dgg.add_api dyng ~dep:id ~api:a in
                api_node := Some n;
                n
          in
          let merged_any = ref false in
          (* Prefix-shared merging. Survivors come in lexicographic order,
             so consecutive ones share a prefix of paths. [ids] and [accs]
             hold the previous combination's first [!len] epath ids and the
             candidate accumulated after each; the next combination resumes
             [Semiring.times] at its first differing path. [times] is pure
             and every child cell is final here, so the accumulation after
             a prefix depends on its epath ids alone. *)
          let ids = Array.make (List.length groups) (-1)
          and accs = Array.make (List.length groups) Semiring.one
          and len = ref 0 in
          let rec fold k acc = function
            | [] -> Some acc
            | (p : Edge2path.epath) :: rest -> (
                if k < !len && ids.(k) = p.Edge2path.id then fold (k + 1) accs.(k) rest
                else begin
                  len := k;
                  match child_best p with
                  | Some cb ->
                      let acc = Semiring.times acc ~path:p.Edge2path.path ~child:cb in
                      ids.(k) <- p.Edge2path.id;
                      accs.(k) <- acc;
                      len := k + 1;
                      fold (k + 1) acc rest
                  | None -> None
                end)
          in
          let try_combo combo =
              Budget.check budget;
              if case_ii then
                stats.Stats.combos_merged <- stats.Stats.combos_merged + 1;
              (* merge the combination's paths (the prefix tree) together
                 with the children's optimal partial CGTs *)
              let acc, ok =
                match fold 0 Semiring.one combo with
                | Some acc -> (acc, true)
                | None -> (Semiring.one, false)
              in
              let merged = acc.Semiring.cgt in
              let assignment = (id, a) :: acc.Semiring.assignment in
              let size =
                if ok && Synres.injective assignment then Cgt.check scratch merged
                else -1
              in
              if size >= 0 then begin
                merged_any := true;
                let score = Word2api.assignment_score w2a assignment in
                let cand = { Semiring.size; cgt = merged; assignment; score } in
                let target = get_api_node () in
                (* every path of a merged combination has a solved child,
                   so each gets its edge; a combination's node is fresh,
                   and a fresh cell always improves *)
                if case_ii then begin
                  Dgg.count_combination dyng ~paths:(List.length combo);
                  stats.Stats.dgg_improvements <- stats.Stats.dgg_improvements + 1
                end
                else Dgg.count_edge dyng;
                let improved = record_improved target cand in
                if improved && Trace.on trace then
                  Trace.int trace
                    (Printf.sprintf "min_size %s:%s" (lemma_of id) a)
                    size
              end
          in
          List.iter try_combo survivors;
          if not !merged_any then
            (* No joint interpretation of the sibling edges exists under
               this governor (mutually exclusive "or" alternatives, e.g. a
               matcher grammar that allows one inner argument). Degrade to
               the best single-edge interpretations so the fullest subtree
               still survives; coverage-first selection does the rest. *)
            List.iter
              (fun group -> List.iter (fun p -> try_combo [ p ]) group)
              groups)
        governors
    end
  in
  List.iter process order;

  stats.Stats.dgg_nodes <- Dgg.node_count dyng;
  stats.Stats.dgg_edges <- Dgg.edge_count dyng;
  if Trace.on trace then begin
    (* level sizes: how many API interpretations survived per word,
       bottom-up — the width of the dynamic programming table *)
    List.iter
      (fun (n : Depgraph.node) ->
        Trace.int trace
          (Printf.sprintf "dgg level %s" n.Depgraph.lemma)
          (List.length (Dgg.api_nodes_of_dep dyng n.Depgraph.id)))
      order;
    Trace.int trace "dgg_nodes" (Dgg.node_count dyng);
    Trace.int trace "dgg_edges" (Dgg.edge_count dyng)
  end;

  (* the optimal CGT backtrack: the root word's best API node *)
  let res =
    Dgg.api_nodes_of_dep dyng dg.Depgraph.root
    |> List.filter_map (fun n -> Option.map (fun c -> (n, c)) (Dgg.best n))
    |> Listutil.min_by root_compare
    |> Option.map (fun (_, (c : Semiring.cand)) ->
           { Synres.cgt = c.Semiring.cgt; size = c.Semiring.size;
             assignment = c.Semiring.assignment })
  in
  (res, dyng)

let ranked_of_graph dyng ~root =
  Dgg.api_nodes_of_dep dyng root
  |> List.concat_map (fun n ->
         List.mapi (fun i c -> (n, i, c)) (Dgg.choices n))
  |> List.sort (fun (n1, i1, c1) (n2, i2, c2) ->
         match root_compare (n1, c1) (n2, c2) with
         | 0 -> compare i1 i2
         | c -> c)
  |> List.map (fun (_, _, c) -> c)
