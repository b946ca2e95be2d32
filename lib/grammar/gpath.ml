type t = { nodes : int array; edges : int array; apis : string array }

let size p = Array.length p.apis
let top p = p.nodes.(0)

let pp g fmt p =
  Format.fprintf fmt "[%s]"
    (String.concat " -> "
       (Array.to_list (Array.map (Ggraph.node_name g) p.nodes)))

type limits = { max_nodes : int; max_paths : int; max_steps : int }

let default_limits = { max_nodes = 24; max_paths = 400; max_steps = 200_000 }
