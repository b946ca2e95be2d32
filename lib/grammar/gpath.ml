type t = { claims : int array; apis : int array; edges : int array }

(* A claim is [node lsl prod_bits lor prod]: the production in the low
   bits, the node above it, each in [prod_bits] bits, so a claim is a
   non-negative int. *)
let prod_bits = (Sys.int_size - 1) / 2
let prod_mask = (1 lsl prod_bits) - 1
let claim_node c = c lsr prod_bits [@@inline]
let claim_prod c = c land prod_mask [@@inline]

let refuse what id = invalid_arg (Printf.sprintf "Gpath.make: %s id %d does not fit" what id)

let claim node prod =
  if (node lor prod) lsr prod_bits <> 0 then
    if node lsr prod_bits <> 0 then refuse "node" node else refuse "production" prod
  else (node lsl prod_bits) lor prod

(* ascending, by an insertion sort: a path has a few edges, and a
   search that misses the memo builds every path it emits *)
let sorted (ids : int array) =
  let a = Array.copy ids in
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  a

let make g ~nodes ~edges =
  let n = Array.length edges in
  if Array.length nodes <> n + 1 then
    invalid_arg "Gpath.make: nodes and edges do not form a chain";
  if not (Ggraph.is_api g nodes.(n)) then
    invalid_arg "Gpath.make: the last node is not an API node";
  let claims = Array.make n 0 and napis = ref 1 in
  for j = 0 to n - 1 do
    claims.(j) <- claim nodes.(j) (Ggraph.edge g edges.(j)).Ggraph.prod;
    if Ggraph.is_api g nodes.(j) then incr napis
  done;
  let apis = Array.make !napis nodes.(n) and k = ref 0 in
  for j = 0 to n - 1 do
    if Ggraph.is_api g nodes.(j) then begin
      apis.(!k) <- nodes.(j);
      incr k
    end
  done;
  { claims; apis; edges = sorted edges }

let hold ~(stamp : int array) ~(held : int array) ~(pass : int) p =
  let cl = p.claims in
  for j = 0 to Array.length cl - 1 do
    let nd = claim_node cl.(j) in
    stamp.(nd) <- pass;
    held.(nd) <- cl.(j)
  done

(* claims on one node differ exactly when their productions do *)
let clashes ~(stamp : int array) ~(held : int array) ~(pass : int) p =
  let cl = p.claims in
  let j = ref 0 and hit = ref false in
  while (not !hit) && !j < Array.length cl do
    let c = cl.(!j) in
    let nd = claim_node c in
    if stamp.(nd) = pass && held.(nd) <> c then hit := true;
    incr j
  done;
  !hit

let nodes p =
  let n = Array.length p.claims in
  Array.init (n + 1) (fun j ->
      if j < n then claim_node p.claims.(j) else p.apis.(Array.length p.apis - 1))

let size p = Array.length p.apis

type limits = { max_nodes : int; max_paths : int; max_steps : int }

let default_limits = { max_nodes = 24; max_paths = 400; max_steps = 200_000 }
