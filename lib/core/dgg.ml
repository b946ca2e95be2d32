type node = { id : int; dep : int; cell : Semiring.Cell.t }

type t = {
  objective : Semiring.t;
  mutable rev_nodes : node list;  (* the API nodes *)
  mutable node_count : int;
  mutable edge_count : int;
  api_tbl : (int * string, node) Hashtbl.t;
}

(* the start node (id 0) is counted, not stored: the walk never reads it *)
let create objective =
  {
    objective;
    rev_nodes = [];
    node_count = 1;
    edge_count = 0;
    api_tbl = Hashtbl.create 32;
  }

let id n = n.id
let dep n = n.dep

let find_api t ~dep ~api = Hashtbl.find_opt t.api_tbl (dep, api)

let add_api t ~dep ~api =
  match find_api t ~dep ~api with
  | Some n -> n
  | None ->
      let n = { id = t.node_count; dep; cell = Semiring.zero t.objective } in
      t.rev_nodes <- n :: t.rev_nodes;
      t.node_count <- t.node_count + 1;
      Hashtbl.add t.api_tbl (dep, api) n;
      n

let count_edge t = t.edge_count <- t.edge_count + 1

let count_combination t ~paths =
  t.node_count <- t.node_count + 1;
  t.edge_count <- t.edge_count + paths + 1

let best n = Semiring.Cell.best n.cell
let solved n = Semiring.Cell.solved n.cell
let choices n = Semiring.Cell.choices n.cell

let size n =
  match Semiring.Cell.best n.cell with
  | Some c -> c.Semiring.size
  | None -> max_int

let improved n cand = Semiring.plus n.cell cand

let nodes t = List.rev t.rev_nodes
let node_count t = t.node_count
let edge_count t = t.edge_count

let api_nodes_of_dep t dep = List.filter (fun n -> n.dep = dep) (nodes t)
