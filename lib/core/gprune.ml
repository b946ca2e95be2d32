open Dggt_util
open Dggt_grammar

(* A path's claims: the (grammar node, production) of every edge it
   leaves. Claimed nodes are renumbered densely over the prepared paths,
   so the enumeration's claim table is two arrays of that size. *)
type t = { claims : (int, (int * int) array) Hashtbl.t; nodes : int }

let prepare g epaths =
  let dense = Hashtbl.create 64 in
  let slot nid =
    match Hashtbl.find_opt dense nid with
    | Some s -> s
    | None ->
        let s = Hashtbl.length dense in
        Hashtbl.add dense nid s;
        s
  in
  let claims = Hashtbl.create 64 in
  List.iter
    (fun (p : Edge2path.epath) ->
      Hashtbl.replace claims p.Edge2path.id
        (Array.map
           (fun eid ->
             let e = Ggraph.edge g eid in
             (slot e.Ggraph.src, e.Ggraph.prod))
           p.Edge2path.path.Gpath.edges))
    epaths;
  { claims; nodes = Hashtbl.length dense }

let combos ?budget t ~enabled groups =
  let total = Listutil.cartesian_count groups in
  let claims_of (p : Edge2path.epath) =
    if enabled then
      Option.value (Hashtbl.find_opt t.claims p.Edge2path.id) ~default:[||]
    else [||]
  in
  let groups = List.map (List.map (fun p -> (p, claims_of p))) groups in
  (* how many chosen paths claim each node, and the production they hold
     it with (all of them agree: a disagreeing path is never chosen) *)
  let count = Array.make t.nodes 0 and prod = Array.make t.nodes 0 in
  let fits = Array.for_all (fun (n, pr) -> count.(n) = 0 || prod.(n) = pr) in
  let out = ref [] in
  let rec go acc = function
    | [] -> out := List.rev acc :: !out
    | g :: rest ->
        List.iter
          (fun (p, cl) ->
            (match budget with Some b -> Budget.check b | None -> ());
            if fits cl then begin
              Array.iter
                (fun (n, pr) ->
                  count.(n) <- count.(n) + 1;
                  prod.(n) <- pr)
                cl;
              go (p :: acc) rest;
              Array.iter (fun (n, _) -> count.(n) <- count.(n) - 1) cl
            end)
          g
  in
  go [] groups;
  (List.rev !out, total)
