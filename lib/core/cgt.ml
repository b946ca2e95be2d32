open Dggt_grammar
module IS = Set.Make (Int)

type t = { edges : IS.t; lone : IS.t (* nodes contributed without edges *) }

let empty = { edges = IS.empty; lone = IS.empty }
let is_empty t = IS.is_empty t.edges && IS.is_empty t.lone

let merge a b = { edges = IS.union a.edges b.edges; lone = IS.union a.lone b.lone }

let merge_path t (p : Gpath.t) =
  if Array.length p.Gpath.edges = 0 then
    { t with lone = IS.add p.Gpath.nodes.(0) t.lone }
  else
    { t with edges = Array.fold_left (fun s e -> IS.add e s) t.edges p.Gpath.edges }

let of_paths _g paths = List.fold_left merge_path empty paths

let edge_ids t = IS.elements t.edges
let edge_count t = IS.cardinal t.edges
let mem_edge t id = IS.mem id t.edges
let equal a b = IS.equal a.edges b.edges && IS.equal a.lone b.lone

let compare a b =
  match IS.compare a.edges b.edges with
  | 0 -> IS.compare a.lone b.lone
  | c -> c

let node_set g t =
  IS.fold
    (fun eid acc ->
      let e = Ggraph.edge g eid in
      IS.add e.Ggraph.src (IS.add e.Ggraph.dst acc))
    t.edges t.lone

let nodes g t = IS.elements (node_set g t)

let api_size g t =
  IS.fold
    (fun nid acc -> if Ggraph.is_api g nid then acc + 1 else acc)
    (node_set g t) 0

(* One pass over the edges: every used node's in-degree (lone nodes and
   sources at 0) and the successors of each node. *)
let degrees g t =
  let indeg = Hashtbl.create 16 and succ = Hashtbl.create 16 in
  IS.iter (fun nid -> Hashtbl.replace indeg nid 0) t.lone;
  IS.iter
    (fun eid ->
      let e = Ggraph.edge g eid in
      if not (Hashtbl.mem indeg e.Ggraph.src) then
        Hashtbl.add indeg e.Ggraph.src 0;
      Hashtbl.replace indeg e.Ggraph.dst
        (1 + Option.value (Hashtbl.find_opt indeg e.Ggraph.dst) ~default:0);
      Hashtbl.add succ e.Ggraph.src e.Ggraph.dst)
    t.edges;
  (indeg, succ)

(* A tree has one node without an incoming edge, no node with two, and
   every node reachable from that root (in-degree <= 1 with a single root
   still admits a disjoint cycle component). The empty CGT has no root. *)
let root g t =
  let indeg, succ = degrees g t in
  let roots, fan_in =
    Hashtbl.fold
      (fun nid d (roots, fan_in) ->
        ((if d = 0 then nid :: roots else roots), fan_in || d > 1))
      indeg ([], false)
  in
  match roots with
  | [ r ] when not fan_in ->
      let seen = Hashtbl.create (Hashtbl.length indeg) in
      let rec dfs nid =
        if not (Hashtbl.mem seen nid) then begin
          Hashtbl.add seen nid ();
          List.iter dfs (Hashtbl.find_all succ nid)
        end
      in
      dfs r;
      if Hashtbl.length seen = Hashtbl.length indeg then Some r else None
  | _ -> None

let is_tree g t = is_empty t || root g t <> None

let is_grammar_valid g t =
  let prods : (int, int) Hashtbl.t = Hashtbl.create 16 in
  try
    IS.iter
      (fun eid ->
        let e = Ggraph.edge g eid in
        match Hashtbl.find_opt prods e.Ggraph.src with
        | Some p when p <> e.Ggraph.prod -> raise Exit
        | Some _ -> ()
        | None -> Hashtbl.add prods e.Ggraph.src e.Ggraph.prod)
      t.edges;
    true
  with Exit -> false

let well_formed g t = is_tree g t && is_grammar_valid g t

let pp g fmt t =
  Format.fprintf fmt "CGT{%s}"
    (String.concat ", "
       (List.map
          (fun eid ->
            let e = Ggraph.edge g eid in
            Printf.sprintf "%s->%s" (Ggraph.node_name g e.Ggraph.src)
              (Ggraph.node_name g e.Ggraph.dst))
          (edge_ids t)))
