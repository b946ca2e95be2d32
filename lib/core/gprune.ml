open Dggt_util
open Dggt_grammar

(* What the enumeration reads of one path. Claims are the (grammar node,
   production) of every edge the path leaves, flattened; nodes and APIs
   are renumbered densely over the paths seen, so the enumeration's
   counters are plain arrays of that size. *)
type info = {
  claims : int array;  (* node, production, node, production, ... *)
  apis : int array;
  extra : int;
  size : int;  (* Gpath.size + extra *)
}

type t = {
  g : Ggraph.t;
  extra : Edge2path.epath -> int;
  infos : (int, info) Hashtbl.t;  (* by epath id *)
  node_ids : (int, int) Hashtbl.t;
  api_ids : (string, int) Hashtbl.t;
}

type result = { kept : Edge2path.epath list list; total : int; conflict_free : int }

let prepare ?(extra = fun _ -> 0) g =
  {
    g;
    extra;
    infos = Hashtbl.create 16;
    node_ids = Hashtbl.create 16;
    api_ids = Hashtbl.create 16;
  }

let dense tbl k =
  match Hashtbl.find_opt tbl k with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl k i;
      i

let info t (p : Edge2path.epath) =
  match Hashtbl.find_opt t.infos p.Edge2path.id with
  | Some i -> i
  | None ->
      let path = p.Edge2path.path in
      let edges = path.Gpath.edges in
      let claims = Array.make (2 * Array.length edges) 0 in
      Array.iteri
        (fun j eid ->
          let e = Ggraph.edge t.g eid in
          claims.(2 * j) <- dense t.node_ids e.Ggraph.src;
          claims.((2 * j) + 1) <- e.Ggraph.prod)
        edges;
      let extra = t.extra p in
      let i =
        {
          claims;
          apis = Array.map (dense t.api_ids) path.Gpath.apis;
          extra;
          size = Gpath.size path + extra;
        }
      in
      Hashtbl.add t.infos p.Edge2path.id i;
      i

let no_info = { claims = [||]; apis = [||]; extra = 0; size = 0 }

(* a path fits when every node it claims is unclaimed or held with the
   same production *)
let rec fits count prod cl j =
  j >= Array.length cl
  || (let n = cl.(j) in
      (count.(n) = 0 || prod.(n) = cl.(j + 1)) && fits count prod cl (j + 2))

let combos ?budget t ~gprune ~sprune groups =
  let total = Listutil.cartesian_count groups in
  let levels = Array.of_list (List.map Array.of_list groups) in
  let infos =
    Array.map
      (Array.map (if gprune || sprune then info t else fun _ -> no_info))
      levels
  in
  let n = Array.length levels in
  (* per dense node: how many chosen paths claim it, and the production
     they hold it with (all agree: a disagreeing path is never chosen);
     per dense API: how many chosen paths contain it *)
  let count = Array.make (Hashtbl.length t.node_ids) 0
  and prod = Array.make (Hashtbl.length t.node_ids) 0
  and uses = Array.make (Hashtbl.length t.api_ids) 0 in
  let chosen = Array.make n 0 in
  let union = ref 0 and min_hi = ref max_int and conflict_free = ref 0 in
  let kept = ref [] in
  let rec combo d acc =
    if d < 0 then acc else combo (d - 1) (levels.(d).(chosen.(d)) :: acc)
  in
  let rec go d sum_size sum_extra =
    if d = n then begin
      incr conflict_free;
      let lo =
        if sprune then begin
          let hi = sum_size - (n - 1) in
          if hi < !min_hi then min_hi := hi;
          !union + sum_extra
        end
        else 0
      in
      if lo <= !min_hi then kept := (lo, combo (n - 1) []) :: !kept
    end
    else
      let row = infos.(d) in
      for i = 0 to Array.length row - 1 do
        (match budget with Some b -> Budget.check b | None -> ());
        let p = row.(i) in
        if (not gprune) || fits count prod p.claims 0 then begin
          chosen.(d) <- i;
          if gprune then
            for j = 0 to (Array.length p.claims / 2) - 1 do
              let nd = p.claims.(2 * j) in
              count.(nd) <- count.(nd) + 1;
              prod.(nd) <- p.claims.((2 * j) + 1)
            done;
          if sprune then
            for j = 0 to Array.length p.apis - 1 do
              let a = p.apis.(j) in
              if uses.(a) = 0 then incr union;
              uses.(a) <- uses.(a) + 1
            done;
          go (d + 1) (sum_size + p.size) (sum_extra + p.extra);
          if gprune then
            for j = 0 to (Array.length p.claims / 2) - 1 do
              let nd = p.claims.(2 * j) in
              count.(nd) <- count.(nd) - 1
            done;
          if sprune then
            for j = 0 to Array.length p.apis - 1 do
              let a = p.apis.(j) in
              uses.(a) <- uses.(a) - 1;
              if uses.(a) = 0 then decr union
            done
        end
      done
  in
  go 0 0 0;
  let kept =
    List.fold_left
      (fun acc (lo, c) -> if lo <= !min_hi then c :: acc else acc)
      [] !kept
  in
  { kept; total; conflict_free = !conflict_free }
