type node = {
  id : int;
  text : string;
  lemma : string;
  pos : Pos.t;
  lit : string option;
}

type edge = { gov : int; dep : int; label : Dep.t }
type t = { nodes : node list; edges : edge list; root : int }

let node_opt t id = List.find_opt (fun n -> n.id = id) t.nodes

let node t id =
  match node_opt t id with Some n -> n | None -> raise Not_found

let mem t id = node_opt t id <> None

let children t id =
  List.filter (fun e -> e.gov = id) t.edges
  |> List.sort (fun a b -> compare a.dep b.dep)

let parent t id = List.find_opt (fun e -> e.dep = id) t.edges

let depth t id =
  (* Walk parent links; cycles (parser bugs) are cut by a visited set. *)
  let rec go id visited acc =
    if List.mem id visited then acc
    else
      match parent t id with
      | None -> acc
      | Some e -> go e.gov (id :: visited) (acc + 1)
  in
  go id [] 0

let levels t =
  let with_depth = List.map (fun e -> (depth t e.gov, e)) t.edges in
  let maxd = List.fold_left (fun m (d, _) -> max m d) 0 with_depth in
  List.init (maxd + 1) (fun l ->
      List.filter_map (fun (d, e) -> if d = l then Some e else None) with_depth)
  |> List.filter (fun l -> l <> [])

let is_tree t =
  let non_root = List.filter (fun n -> n.id <> t.root) t.nodes in
  List.for_all
    (fun n -> List.length (List.filter (fun e -> e.dep = n.id) t.edges) = 1)
    non_root
  && List.for_all (fun e -> e.dep <> t.root) t.edges
  && List.for_all
       (fun n ->
         let rec reaches id visited =
           if id = t.root then true
           else if List.mem id visited then false
           else
             match parent t id with
             | None -> false
             | Some e -> reaches e.gov (id :: visited)
         in
         reaches n.id [])
       non_root

let remove_node t id =
  {
    t with
    nodes = List.filter (fun n -> n.id <> id) t.nodes;
    edges = List.filter (fun e -> e.gov <> id && e.dep <> id) t.edges;
  }

let pp fmt t =
  let name id =
    match node_opt t id with Some n -> n.text | None -> Printf.sprintf "#%d" id
  in
  Format.fprintf fmt "root=%s@ " (name t.root);
  List.iter
    (fun e ->
      Format.fprintf fmt "%s(%s-%d, %s-%d)@ " (Dep.to_string e.label) (name e.gov)
        e.gov (name e.dep) e.dep)
    t.edges

let to_string t = Format.asprintf "%a" pp t
