open Dggt_grammar

(* Both arrays are sorted and duplicate-free. *)
type t = { edges : int array; lone : int array (* nodes contributed without edges *) }

let empty = { edges = [||]; lone = [||] }
let is_empty t = Array.length t.edges = 0 && Array.length t.lone = 0

(* One walk over the union of three sorted, duplicate-free arrays, in
   increasing order; it writes the union to [out] unless [out] is empty,
   and returns its length. *)
let walk (a : int array) (b : int array) (c : int array) (out : int array) =
  let na = Array.length a and nb = Array.length b and nc = Array.length c in
  let i = ref 0 and j = ref 0 and k = ref 0 and n = ref 0 in
  while !i < na || !j < nb || !k < nc do
    let x = if !i < na then a.(!i) else max_int
    and y = if !j < nb then b.(!j) else max_int
    and z = if !k < nc then c.(!k) else max_int in
    let m = if x < y then if x < z then x else z else if y < z then y else z in
    if x = m then incr i;
    if y = m then incr j;
    if z = m then incr k;
    if Array.length out > 0 then out.(!n) <- m;
    incr n
  done;
  !n

(* The union in one linear merge: a first walk counts it, a second
   fills it. An operand that already holds the whole union is returned
   as it is, so adding what is already there allocates nothing. *)
let union3 a b c =
  let n = walk a b c [||] in
  if n = Array.length a then a
  else if n = Array.length c then c
  else if n = Array.length b then b
  else begin
    let out = Array.make n 0 in
    ignore (walk a b c out);
    out
  end

(* [t] or [u] itself when the union's arrays are its own *)
let make t u edges lone =
  if edges == t.edges && lone == t.lone then t
  else if edges == u.edges && lone == u.lone then u
  else { edges; lone }

let merge a b = make a b (union3 a.edges b.edges [||]) (union3 a.lone b.lone [||])

(* a path's edges are already ascending; an edgeless path is its one
   API node *)
let fuse t (p : Gpath.t) u =
  if Array.length p.Gpath.edges = 0 then
    make t u (union3 t.edges [||] u.edges) (union3 t.lone [| p.Gpath.apis.(0) |] u.lone)
  else make t u (union3 t.edges p.Gpath.edges u.edges) (union3 t.lone [||] u.lone)

let node id = { edges = [||]; lone = [| id |] }

let of_ids ~edges ~lone =
  let set ids = Array.of_list (List.sort_uniq Int.compare ids) in
  { edges = set edges; lone = set lone }

let merge_path t p = fuse t p empty
let of_paths paths = List.fold_left merge_path empty paths

let edge_ids t = Array.to_list t.edges
let lone_ids t = Array.to_list t.lone

let rec mem (a : int array) id lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  a.(mid) = id || if a.(mid) < id then mem a id (mid + 1) hi else mem a id lo mid

let mem_edge t id = mem t.edges id 0 (Array.length t.edges)

(* Lexicographic, a prefix before its extensions: [Set.compare]'s order
   on the same elements. *)
let rec compare_ids (a : int array) (b : int array) i =
  if i = Array.length a then if i = Array.length b then 0 else -1
  else if i = Array.length b then 1
  else if a.(i) < b.(i) then -1
  else if a.(i) > b.(i) then 1
  else compare_ids a b (i + 1)

let compare a b =
  match compare_ids a.edges b.edges 0 with
  | 0 -> compare_ids a.lone b.lone 0
  | c -> c

let equal a b = compare a b = 0

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
  }

let graph s = s.g

(* One pass over the edges, then the lone nodes, each in increasing
   order; [false] when a strict pass stopped at a defect. *)
let pass s ~strict t =
  s.gen <- s.gen + 1;
  s.strict <- strict;
  s.n_nodes <- 0;
  s.n_edges <- 0;
  s.n_apis <- 0;
  s.fan_in <- false;
  match
    for i = 0 to Array.length t.edges - 1 do
      visit_edge s t.edges.(i)
    done;
    for i = 0 to Array.length t.lone - 1 do
      touch s t.lone.(i)
    done
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
