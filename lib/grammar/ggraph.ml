type node_kind = Nt of string | Deriv of int | Api of string

type node = { id : int; kind : node_kind }

type edge = { id : int; src : int; dst : int; prod : int; pos : int; alt : bool }

type t = {
  cfg : Cfg.t;
  nodes : node array;
  edges : edge array;
  children : int list array;
  parents : int list array;
  succ : int array array;
  api_index : (string, int) Hashtbl.t;
  api_heads : (string, Cfg.production) Hashtbl.t;
  nt_index : (string, int) Hashtbl.t;
  root : int;
  dist_mu : Mutex.t;
  dists : (int, int array) Hashtbl.t;
}

type builder = {
  mutable bnodes : node list; (* reversed *)
  mutable bedges : edge list; (* reversed *)
  mutable nnodes : int;
  mutable nedges : int;
  api_tbl : (string, int) Hashtbl.t;
  nt_tbl : (string, int) Hashtbl.t;
}

let new_node b kind =
  let id = b.nnodes in
  b.bnodes <- { id; kind } :: b.bnodes;
  b.nnodes <- id + 1;
  id

let new_edge b ~src ~dst ~prod ~pos ~alt =
  let id = b.nedges in
  b.bedges <- { id; src; dst; prod; pos; alt } :: b.bedges;
  b.nedges <- id + 1

let build (cfg : Cfg.t) =
  let b =
    {
      bnodes = [];
      bedges = [];
      nnodes = 0;
      nedges = 0;
      api_tbl = Hashtbl.create 64;
      nt_tbl = Hashtbl.create 64;
    }
  in
  (* one node per nonterminal and per terminal *)
  List.iter
    (fun nt -> Hashtbl.replace b.nt_tbl nt (new_node b (Nt nt)))
    cfg.Cfg.nonterminals;
  List.iter
    (fun api -> Hashtbl.replace b.api_tbl api (new_node b (Api api)))
    cfg.Cfg.terminals;
  let sym_node = function
    | Cfg.T s -> Hashtbl.find b.api_tbl s
    | Cfg.N s -> Hashtbl.find b.nt_tbl s
  in
  (* Attach one production's RHS below [parent]. [alt] marks or-edges.
     Head-API productions hang their remaining symbols under the API. *)
  let attach_rhs ~parent ~alt (p : Cfg.production) =
    match p.rhs with
    | [] -> assert false (* Bnf.parse rejects empty alternatives *)
    | [ sym ] -> new_edge b ~src:parent ~dst:(sym_node sym) ~prod:p.id ~pos:0 ~alt
    | Cfg.T api :: args ->
        let api_n = Hashtbl.find b.api_tbl api in
        new_edge b ~src:parent ~dst:api_n ~prod:p.id ~pos:0 ~alt;
        List.iteri
          (fun i sym ->
            new_edge b ~src:api_n ~dst:(sym_node sym) ~prod:p.id ~pos:(i + 1)
              ~alt:false)
          args
    | syms ->
        List.iteri
          (fun i sym -> new_edge b ~src:parent ~dst:(sym_node sym) ~prod:p.id ~pos:i ~alt)
          syms
  in
  (* productions grouped by lhs in one pass, each group in id order *)
  let by_lhs = Hashtbl.create 64 in
  for i = Array.length cfg.Cfg.productions - 1 downto 0 do
    let p = cfg.Cfg.productions.(i) in
    let ps = Option.value (Hashtbl.find_opt by_lhs p.Cfg.lhs) ~default:[] in
    Hashtbl.replace by_lhs p.Cfg.lhs (p :: ps)
  done;
  List.iter
    (fun nt ->
      let nt_n = Hashtbl.find b.nt_tbl nt in
      let prods = Option.value (Hashtbl.find_opt by_lhs nt) ~default:[] in
      let multi = List.length prods > 1 in
      List.iter
        (fun (p : Cfg.production) ->
          if multi && List.length p.rhs > 1 then begin
            (* alternative with several symbols: interpose a derivation
               node so the or-choice is a single edge *)
            let d = new_node b (Deriv p.id) in
            new_edge b ~src:nt_n ~dst:d ~prod:p.id ~pos:0 ~alt:true;
            attach_rhs ~parent:d ~alt:false p
          end
          else attach_rhs ~parent:nt_n ~alt:multi p)
        prods)
    cfg.Cfg.nonterminals;
  (* an API's head production: the one production whose RHS starts with
     the API and has arguments (none when two do) *)
  let heads = Hashtbl.create 64 and shared = Hashtbl.create 8 in
  Array.iter
    (fun (p : Cfg.production) ->
      match p.rhs with
      | Cfg.T api :: _ :: _ ->
          if Hashtbl.mem heads api then Hashtbl.replace shared api ()
          else Hashtbl.add heads api p
      | _ -> ())
    cfg.Cfg.productions;
  Hashtbl.iter (fun api () -> Hashtbl.remove heads api) shared;
  let nodes = Array.of_list (List.rev b.bnodes) in
  let edges = Array.of_list (List.rev b.bedges) in
  let children = Array.make (Array.length nodes) [] in
  let parents = Array.make (Array.length nodes) [] in
  (* Populate adjacency in reverse so the lists end up in edge-id order,
     which is (prod, pos) order by construction. *)
  for i = Array.length edges - 1 downto 0 do
    let e = edges.(i) in
    children.(e.src) <- e.id :: children.(e.src);
    parents.(e.dst) <- e.id :: parents.(e.dst)
  done;
  {
    cfg;
    nodes;
    edges;
    children;
    parents;
    succ =
      Array.map
        (fun es -> Array.of_list (List.map (fun e -> edges.(e).dst) es))
        children;
    (* the builder's name tables double as the graph's permanent node
       indexes: read-only after build, so domain-safe without a lock *)
    api_index = b.api_tbl;
    api_heads = heads;
    nt_index = b.nt_tbl;
    root = Hashtbl.find b.nt_tbl cfg.Cfg.start;
    dist_mu = Mutex.create ();
    dists = Hashtbl.create 64;
  }

let node_name t id =
  match t.nodes.(id).kind with
  | Nt s -> s
  | Api s -> s
  | Deriv p -> Printf.sprintf "%s#%d" t.cfg.Cfg.productions.(p).Cfg.lhs p

let api_node t name = Hashtbl.find_opt t.api_index name
let head_production t api = Hashtbl.find_opt t.api_heads api
let nt_node t name = Hashtbl.find_opt t.nt_index name
let is_api t id = match t.nodes.(id).kind with Api _ -> true | _ -> false

let api_nodes t =
  Array.to_list t.nodes
  |> List.filter_map (fun n -> match n.kind with Api s -> Some (s, n.id) | _ -> None)

let out_edges t id = List.map (fun e -> t.edges.(e)) t.children.(id)
let in_edges t id = List.map (fun e -> t.edges.(e)) t.parents.(id)
let edge t id = t.edges.(id)
let node_count t = Array.length t.nodes
let edge_count t = Array.length t.edges

(* shortest-path distances, memoized per source (BFS). Doubles as the
   reachability oracle. The memo lives in the graph value, guarded by a
   mutex, so one graph can be shared by concurrent workers (the server's
   worker pool); the BFS itself runs outside the lock — a racing pair of
   first lookups may both compute, and the loser's array is discarded. *)
let memo_row t a compute =
  Mutex.lock t.dist_mu;
  match Hashtbl.find_opt t.dists a with
  | Some d ->
      Mutex.unlock t.dist_mu;
      d
  | None ->
      Mutex.unlock t.dist_mu;
      let d = compute a in
      Mutex.lock t.dist_mu;
      let d =
        match Hashtbl.find_opt t.dists a with
        | Some winner -> winner
        | None ->
            Hashtbl.add t.dists a d;
            d
      in
      Mutex.unlock t.dist_mu;
      d

(* BFS over the flat successor table. [queue] holds at least one slot per
   node (each node is enqueued at most once) and belongs to the caller,
   so a batch reuses one queue without sharing it across threads. *)
let bfs t queue a =
  let d = Array.make (Array.length t.nodes) max_int in
  d.(a) <- 0;
  queue.(0) <- a;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = d.(u) + 1 and succ = t.succ.(u) in
    for i = 0 to Array.length succ - 1 do
      let v = succ.(i) in
      if d.(v) = max_int then begin
        d.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  d

let dist_from t a =
  memo_row t a (bfs t (Array.make (Array.length t.nodes) 0))

let dist_rows t srcs =
  let queue = Array.make (Array.length t.nodes) 0 in
  Array.map (fun a -> memo_row t a (bfs t queue)) srcs

let distance t a b = (dist_from t a).(b)
let reachable t a b = distance t a b < max_int
