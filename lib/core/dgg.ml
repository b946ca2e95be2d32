type node_kind =
  | Start
  | ApiN of { dep : int; api : string }
  | PcgtN of { dep : int; api : string; idx : int }

type node = { id : int; kind : node_kind; cell : Semiring.Cell.t }

type edge = { src : int; dst : int; epath : int option }

type t = {
  objective : Semiring.t;
  mutable rev_nodes : node list;
  mutable rev_edges : edge list;
  mutable count : int;
  api_tbl : (int * string, node) Hashtbl.t;
  start_node : node;
}

let mk_node t kind =
  let n = { id = t.count; kind; cell = Semiring.zero t.objective } in
  t.rev_nodes <- n :: t.rev_nodes;
  t.count <- t.count + 1;
  n

let create objective =
  let start_cell = Semiring.zero objective in
  (* the start node holds the empty derivation (size 0): paths extend it *)
  ignore (Semiring.plus start_cell Semiring.one);
  let start = { id = 0; kind = Start; cell = start_cell } in
  {
    objective;
    rev_nodes = [ start ];
    rev_edges = [];
    count = 1;
    api_tbl = Hashtbl.create 32;
    start_node = start;
  }

let start t = t.start_node
let id n = n.id
let kind n = n.kind

let find_api t ~dep ~api = Hashtbl.find_opt t.api_tbl (dep, api)

let add_api t ~dep ~api =
  match find_api t ~dep ~api with
  | Some n -> n
  | None ->
      let n = mk_node t (ApiN { dep; api }) in
      Hashtbl.add t.api_tbl (dep, api) n;
      n

let add_pcgt t ~dep ~api ~idx = mk_node t (PcgtN { dep; api; idx })

let add_edge t ~src ~dst ~epath =
  t.rev_edges <- { src = src.id; dst = dst.id; epath } :: t.rev_edges

let best n = Semiring.Cell.best n.cell
let solved n = Semiring.Cell.solved n.cell
let choices n = Semiring.Cell.choices n.cell

let size n =
  match Semiring.Cell.best n.cell with
  | Some c -> c.Semiring.size
  | None -> max_int

let improved n cand = Semiring.plus n.cell cand

let nodes t = List.rev t.rev_nodes
let edges t = List.rev t.rev_edges
let node_count t = t.count
let edge_count t = List.length t.rev_edges

let api_nodes_of_dep t dep =
  nodes t
  |> List.filter (fun n -> match n.kind with ApiN a -> a.dep = dep | _ -> false)
