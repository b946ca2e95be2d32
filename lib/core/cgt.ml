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
let lone_ids t = IS.elements t.lone
let edge_count t = IS.cardinal t.edges
let mem_edge t id = IS.mem id t.edges
let equal a b = IS.equal a.edges b.edges && IS.equal a.lone b.lone

let compare a b =
  match IS.compare a.edges b.edges with
  | 0 -> IS.compare a.lone b.lone
  | c -> c

(* The tree check's scratch. A node's entries are valid only when
   [seen] holds the current generation; [touch] resets them on first
   sight, so nothing is cleared between passes. *)
type scratch = {
  g : Ggraph.t;
  seen : int array;     (* generation that last touched the node *)
  parent : int array;   (* source of the node's in-edge, or -1 *)
  prod : int array;     (* production of the node's out-edges, or -1 *)
  mark : int array;     (* parent-chain walk: 2 gen on the walk, 2 gen + 1 settled *)
  touched : int array;  (* this pass's nodes, in touch order *)
  mutable gen : int;
  mutable strict : bool;  (* stop at the first fan-in or production clash *)
  mutable n_nodes : int;
  mutable n_edges : int;
  mutable n_apis : int;
  mutable fan_in : bool;
  mutable on_edge : int -> unit;  (* built once, so a pass allocates nothing *)
  mutable on_lone : int -> unit;
}

exception Defect

let touch s n =
  if s.seen.(n) <> s.gen then begin
    s.seen.(n) <- s.gen;
    s.parent.(n) <- -1;
    s.prod.(n) <- -1;
    s.touched.(s.n_nodes) <- n;
    s.n_nodes <- s.n_nodes + 1;
    if Ggraph.is_api s.g n then s.n_apis <- s.n_apis + 1
  end

let visit_edge s eid =
  let e = Ggraph.edge s.g eid in
  touch s e.Ggraph.src;
  touch s e.Ggraph.dst;
  s.n_edges <- s.n_edges + 1;
  if s.parent.(e.Ggraph.dst) >= 0 then begin
    s.fan_in <- true;
    if s.strict then raise_notrace Defect
  end
  else s.parent.(e.Ggraph.dst) <- e.Ggraph.src;
  let p = s.prod.(e.Ggraph.src) in
  if p < 0 then s.prod.(e.Ggraph.src) <- e.Ggraph.prod
  else if p <> e.Ggraph.prod && s.strict then raise_notrace Defect

let scratch g =
  let n = Ggraph.node_count g in
  let s =
    {
      g;
      seen = Array.make n 0;
      parent = Array.make n (-1);
      prod = Array.make n (-1);
      mark = Array.make n 0;
      touched = Array.make n 0;
      gen = 0;
      strict = false;
      n_nodes = 0;
      n_edges = 0;
      n_apis = 0;
      fan_in = false;
      on_edge = ignore;
      on_lone = ignore;
    }
  in
  s.on_edge <- visit_edge s;
  s.on_lone <- touch s;
  s

let graph s = s.g

(* One pass over the edges and lone nodes; [false] when a strict pass
   stopped at a defect. *)
let pass s ~strict t =
  s.gen <- s.gen + 1;
  s.strict <- strict;
  s.n_nodes <- 0;
  s.n_edges <- 0;
  s.n_apis <- 0;
  s.fan_in <- false;
  match
    IS.iter s.on_edge t.edges;
    IS.iter s.on_lone t.lone
  with
  | () -> true
  | exception Defect -> false

(* Climb from [u] along parents, marking the walk, until the root (true),
   a node an earlier walk settled (true) or a node of this walk (a
   cycle: false); then [settle] the walk. Every node is settled once. *)
let rec climb s walking settled u =
  u < 0
  || s.mark.(u) = settled
  || s.mark.(u) <> walking
     && begin
          s.mark.(u) <- walking;
          climb s walking settled s.parent.(u)
        end

let rec settle s walking settled u =
  if u >= 0 && s.mark.(u) = walking then begin
    s.mark.(u) <- settled;
    settle s walking settled s.parent.(u)
  end

(* After a pass: no fan-in leaves [nodes - edges] parentless nodes, so
   one root when that is 1, and a tree when no parent chain cycles. *)
let rooted s =
  (not s.fan_in)
  && s.n_nodes - s.n_edges = 1
  &&
  let walking = 2 * s.gen and settled = (2 * s.gen) + 1 in
  let i = ref 0 in
  while
    !i < s.n_nodes
    && climb s walking settled s.touched.(!i)
  do
    settle s walking settled s.touched.(!i);
    incr i
  done;
  !i = s.n_nodes

let check s t =
  if pass s ~strict:true t && (s.n_nodes = 0 || rooted s) then s.n_apis else -1

let well_formed s t = check s t >= 0

let api_size s t =
  ignore (pass s ~strict:false t);
  s.n_apis

let root s t =
  ignore (pass s ~strict:false t);
  if s.n_nodes > 0 && rooted s then begin
    let i = ref 0 in
    while s.parent.(s.touched.(!i)) >= 0 do incr i done;
    Some s.touched.(!i)
  end
  else None

let is_tree s t = is_empty t || root s t <> None

let pp g fmt t =
  Format.fprintf fmt "CGT{%s}"
    (String.concat ", "
       (List.map
          (fun eid ->
            let e = Ggraph.edge g eid in
            Printf.sprintf "%s->%s" (Ggraph.node_name g e.Ggraph.src)
              (Ggraph.node_name g e.Ggraph.dst))
          (edge_ids t)))
