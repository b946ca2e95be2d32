open Dggt_nlu
open Dggt_grammar
module Autom = Dggt_autom.Autom

type epath = {
  id : int;
  edge : Depgraph.edge;
  gov_api : string option;
  dep_api : string;
  path : Gpath.t;
}

(* Per-edge lookups go through a hash table built once at construction,
   and the path count the tracer asks for on every request is cached up
   front. All fields are read-only after [make]: one map is shared freely
   across domains. *)
type t = {
  by_key : (int * int, epath list) Hashtbl.t;
  total : int;
  orphan_ids : int list;
  next_id : int;
}

let edge_key (e : Depgraph.edge) = (e.Depgraph.gov, e.Depgraph.dep)

(* [entries] are (gov, dep)-keyed, in edge order *)
let make entries ~orphan_ids ~next_id =
  let by_key = Hashtbl.create (max 8 (List.length entries)) in
  let total =
    List.fold_left
      (fun n (key, eps) ->
        (* first entry wins, matching the old assoc-list lookup when two
           dependency edges share a (gov, dep) pair *)
        if not (Hashtbl.mem by_key key) then Hashtbl.add by_key key eps;
        n + List.length eps)
      0 entries
  in
  { by_key; total; orphan_ids; next_id }

(* all candidate (gov_api, dep_api) pairs, gov-major, self-pairs skipped —
   the order an edge's paths are searched and numbered in *)
let candidate_pairs govs deps =
  List.concat_map
    (fun a -> List.filter_map (fun b -> if a = b then None else Some (a, b)) deps)
    govs

(* One edge's paths, found as (gov_api, dep_api, path) triples in search
   order, numbered: ids continue from [next_id]. *)
let number ~next_id e found =
  List.map
    (fun (gov_api, dep_api, path) ->
      let id = !next_id in
      incr next_id;
      { id; edge = e; gov_api; dep_api; path })
    found

let build ?limits ?pair_lookup autom (dg : Depgraph.t) w2a =
  let search (a, b) =
    let compute () = Autom.paths_between_apis ?limits autom ~src_api:a ~dst_api:b in
    match pair_lookup with
    | None -> compute ()
    | Some f -> f ~src:a ~dst:b compute
  in
  let next_id = ref 0 in
  let entries =
    List.map
      (fun (e : Depgraph.edge) ->
        let pairs =
          candidate_pairs
            (Word2api.apis w2a e.Depgraph.gov)
            (Word2api.apis w2a e.Depgraph.dep)
        in
        let found =
          List.concat_map
            (fun (a, b) -> List.map (fun p -> (Some a, b, p)) (search (a, b)))
            pairs
        in
        (edge_key e, number ~next_id e found))
      dg.Depgraph.edges
  in
  let orphan_ids =
    List.filter_map
      (fun ((_, dep), eps) -> if eps = [] then Some dep else None)
      entries
    |> List.sort_uniq compare
  in
  make entries ~orphan_ids ~next_id:!next_id

let paths_of_edge t e =
  match Hashtbl.find_opt t.by_key (edge_key e) with Some l -> l | None -> []

let orphans t = t.orphan_ids
let total_path_count t = t.total
let id_bound t = t.next_id

let anchor_orphans ?limits autom (dg : Depgraph.t) w2a t =
  let g = Autom.graph autom in
  (* Rewrite each orphan's edge to hang off the dependency root, and search
     paths from the grammar root down to the orphan's candidate APIs. *)
  let orphan_set = t.orphan_ids in
  let dg' =
    {
      dg with
      Depgraph.edges =
        List.map
          (fun (e : Depgraph.edge) ->
            if List.mem e.Depgraph.dep orphan_set && e.Depgraph.gov <> dg.Depgraph.root
            then { e with Depgraph.gov = dg.Depgraph.root }
            else e)
          dg.Depgraph.edges;
    }
  in
  let next_id = ref t.next_id in
  let entries =
    List.map
      (fun (e : Depgraph.edge) ->
        if List.mem e.Depgraph.dep orphan_set then
          let found =
            List.concat_map
              (fun b ->
                match Ggraph.api_node g b with
                | None -> []
                | Some dst ->
                    List.map
                      (fun p -> (None, b, p))
                      (Autom.paths_from_root ?limits autom ~dst))
              (Word2api.apis w2a e.Depgraph.dep)
          in
          (edge_key e, number ~next_id e found)
        else
          (* carry over the existing paths, updating nothing *)
          (edge_key e, paths_of_edge t e))
      dg'.Depgraph.edges
  in
  (dg', make entries ~orphan_ids:[] ~next_id:!next_id)
