open Dggt_grammar
module Trace = Dggt_obs.Trace

(* Memoized path enumerations. The key carries the limits: the same pair
   under a tighter budget yields a different (shorter) path set, and a
   cache that ignored that would silently change results. Same discipline
   as Ggraph.dist_from: compute outside the lock, a racing loser's value
   is discarded. A full memo stops inserting — never evicts — so a given
   automaton answers every (src, dst, limits) identically for its whole
   lifetime regardless of traffic order. *)
type memo = {
  mu : Mutex.t;
  tbl : (int * int * Gpath.limits, Gpath.t list) Hashtbl.t;
  cap : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

type t = {
  g : Ggraph.t;
  api : bool array; (* node id -> is this an API node *)
  par_src : int array array;
      (* node id -> parent node ids, in parent-edge order — the reversed
         walk's transition table *)
  par_edge : int array array; (* node id -> parent edge ids, same order *)
  dist_rows : int array array;
      (* node id -> shortest-path row, [||] except for API nodes and the
         root: the only sources EdgeToPath ever searches from *)
  digest : string;
  compile_s : float;
  memo : memo;
}

let graph t = t.g
let digest t = t.digest
let compile_time_s t = t.compile_s

(* ------------------------------------------------------------------ *)
(* compile                                                            *)
(* ------------------------------------------------------------------ *)

(* structural digest: node kinds, edge tuples and the root pin the
   automaton's behavior completely, so two loads of byte-identical pack
   files agree on it *)
let digest_of (g : Ggraph.t) =
  let buf = Buffer.create (32 * (Ggraph.node_count g + Ggraph.edge_count g)) in
  let int i = Buffer.add_string buf (string_of_int i) in
  Array.iter
    (fun (n : Ggraph.node) ->
      (match n.Ggraph.kind with
      | Ggraph.Nt s ->
          Buffer.add_char buf 'N';
          Buffer.add_string buf s
      | Ggraph.Deriv p ->
          Buffer.add_char buf 'D';
          int p
      | Ggraph.Api s ->
          Buffer.add_char buf 'A';
          Buffer.add_string buf s);
      Buffer.add_char buf '\000')
    g.Ggraph.nodes;
  (* "src>dst:prod:pos:alt\000" per edge *)
  Array.iter
    (fun (e : Ggraph.edge) ->
      int e.Ggraph.src;
      Buffer.add_char buf '>';
      int e.Ggraph.dst;
      Buffer.add_char buf ':';
      int e.Ggraph.prod;
      Buffer.add_char buf ':';
      int e.Ggraph.pos;
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_bool e.Ggraph.alt);
      Buffer.add_char buf '\000')
    g.Ggraph.edges;
  Buffer.add_string buf "root=";
  int g.Ggraph.root;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let compile ?trace ?(memo_cap = 65536) (g : Ggraph.t) =
  Trace.span trace "AutomatonCompile" (fun sp ->
      let t0 = Unix.gettimeofday () in
      let n = Ggraph.node_count g in
      let api = Array.make n false in
      Array.iter
        (fun (nd : Ggraph.node) ->
          match nd.Ggraph.kind with
          | Ggraph.Api _ -> api.(nd.Ggraph.id) <- true
          | Ggraph.Nt _ | Ggraph.Deriv _ -> ())
        g.Ggraph.nodes;
      (* parent transition tables, in the adjacency lists' (edge-id) order
         so the table walk visits branches exactly as the DFS did *)
      let par_src =
        Array.init n (fun v ->
            Array.of_list
              (List.map (fun eid -> g.Ggraph.edges.(eid).Ggraph.src)
                 g.Ggraph.parents.(v)))
      in
      let par_edge = Array.init n (fun v -> Array.of_list g.Ggraph.parents.(v)) in
      (* distance rows for every source the engine searches from: API
         nodes (EdgeToPath pairs) and the root (orphan anchoring), as one
         batch. Rows go into the graph's own memo, so orphan relocation's
         reachability test shares them rather than recomputing. *)
      let srcs =
        List.filter (fun v -> api.(v) || v = g.Ggraph.root) (List.init n Fun.id)
        |> Array.of_list
      in
      let dist_rows = Array.make n [||] in
      Array.iteri
        (fun i row -> dist_rows.(srcs.(i)) <- row)
        (Ggraph.dist_rows g srcs);
      let digest = digest_of g in
      let compile_s = Unix.gettimeofday () -. t0 in
      let t =
        {
          g;
          api;
          par_src;
          par_edge;
          dist_rows;
          digest;
          compile_s;
          memo =
            {
              mu = Mutex.create ();
              tbl = Hashtbl.create 1024;
              cap = memo_cap;
              hits = Atomic.make 0;
              misses = Atomic.make 0;
            };
        }
      in
      Trace.int sp "nodes" n;
      Trace.int sp "edges" (Ggraph.edge_count g);
      Trace.int sp "apis" (List.length (Ggraph.api_nodes g));
      Trace.str sp "digest" digest;
      Trace.float sp "compile_s" compile_s;
      t)

(* ------------------------------------------------------------------ *)
(* the table walk                                                     *)
(* ------------------------------------------------------------------ *)

(* A faithful port of the interpreted reversed DFS (kept as the oracle
   Dggt_eval.Refgpath) onto the compiled tables: the same
   iterative-deepening rounds, the same per-visit step counting, the
   same distance-based branch cut, the same parent order — so the paths,
   their order, and every cap truncation are byte-identical (the test
   suite pins this on random grammars and both built-in domains). What
   changes is the cost per visit: parent fan-out is two flat array reads
   instead of a list traversal with edge-record loads, the distance row
   is a precompiled array (no memo mutex), and the chain lives in two
   preallocated arrays instead of per-step cons cells. [src] is always
   an API node or the root, the sources with a precompiled row; a path
   ends at an API node, so any other [dst] has none. Each path's record
   ({!Gpath.make}) is built here, on a memo miss only. *)
let run_search t (limits : Gpath.limits) ~src ~dst =
  if not t.api.(dst) then []
  else if src = dst then [ Gpath.make t.g ~nodes:[| src |] ~edges:[||] ]
  else begin
    let found = ref [] in
    let count = ref 0 in
    let steps = ref 0 in
    let exception Done in
    let dist_src = t.dist_rows.(src) in
    let on_path = Array.make (Array.length t.api) false in
    (* chain.(d) = node visited at round-depth d (dst sits at depth 1);
       chain_edge.(d) = edge between the depth-(d+1) node and it. Both
       only written at depths <= cap <= max_nodes. *)
    let chain = Array.make (limits.Gpath.max_nodes + 2) 0 in
    let chain_edge = Array.make (limits.Gpath.max_nodes + 2) 0 in
    let emit depth =
      let nodes =
        Array.init depth (fun i -> if i = 0 then src else chain.(depth - i))
      in
      let edges = Array.init (depth - 1) (fun i -> chain_edge.(depth - 1 - i)) in
      found := Gpath.make t.g ~nodes ~edges :: !found;
      incr count
    in
    let rec go node depth ~lo ~cap =
      incr steps;
      if !steps > limits.Gpath.max_steps || !count >= limits.Gpath.max_paths
      then raise Done;
      if depth <= cap then begin
        if node = src then begin
          if depth > lo then emit depth
        end
        else begin
          on_path.(node) <- true;
          chain.(depth) <- node;
          let srcs = t.par_src.(node) in
          let eids = t.par_edge.(node) in
          let budget = cap - depth - 1 in
          for i = 0 to Array.length srcs - 1 do
            let s = srcs.(i) in
            if (not on_path.(s)) && dist_src.(s) <= budget then begin
              chain_edge.(depth) <- eids.(i);
              go s (depth + 1) ~lo ~cap
            end
          done;
          on_path.(node) <- false
        end
      end
    in
    (try
       if dist_src.(dst) < max_int then begin
         let lo = ref 0 in
         let cap = ref (min 4 limits.Gpath.max_nodes) in
         let continue = ref true in
         while !continue do
           go dst 1 ~lo:!lo ~cap:!cap;
           if !cap >= limits.Gpath.max_nodes then continue := false
           else begin
             lo := !cap;
             cap := min (!cap + 3) limits.Gpath.max_nodes
           end
         done
       end
     with Done -> ());
    List.rev !found
  end

let paths ?(limits = Gpath.default_limits) t ~src ~dst =
  let key = (src, dst, limits) in
  let m = t.memo in
  Mutex.lock m.mu;
  match Hashtbl.find_opt m.tbl key with
  | Some r ->
      Mutex.unlock m.mu;
      Atomic.incr m.hits;
      r
  | None ->
      Mutex.unlock m.mu;
      Atomic.incr m.misses;
      let r = run_search t limits ~src ~dst in
      Mutex.lock m.mu;
      let r =
        match Hashtbl.find_opt m.tbl key with
        | Some winner -> winner
        | None ->
            if Hashtbl.length m.tbl < m.cap then Hashtbl.add m.tbl key r;
            r
      in
      Mutex.unlock m.mu;
      r

let paths_between_apis ?limits t ~src_api ~dst_api =
  match (Ggraph.api_node t.g src_api, Ggraph.api_node t.g dst_api) with
  | Some src, Some dst -> paths ?limits t ~src ~dst
  | _ -> []

let paths_from_root ?limits t ~dst = paths ?limits t ~src:t.g.Ggraph.root ~dst

(* ------------------------------------------------------------------ *)
(* introspection                                                      *)
(* ------------------------------------------------------------------ *)

type memo_counters = { hits : int; misses : int; entries : int }

let memo_counters t =
  let m = t.memo in
  Mutex.lock m.mu;
  let entries = Hashtbl.length m.tbl in
  Mutex.unlock m.mu;
  { hits = Atomic.get m.hits; misses = Atomic.get m.misses; entries }

let memo_words t =
  let m = t.memo in
  Mutex.lock m.mu;
  let w = Obj.reachable_words (Obj.repr m.tbl) in
  Mutex.unlock m.mu;
  w

let pp_stats fmt t =
  let n = Array.length t.api in
  let apis = Array.fold_left (fun a b -> if b then a + 1 else a) 0 t.api in
  let transitions =
    Array.fold_left (fun a p -> a + Array.length p) 0 t.par_src
  in
  let rows =
    Array.fold_left
      (fun a r -> if Array.length r > 0 then a + 1 else a)
      0 t.dist_rows
  in
  Format.fprintf fmt
    "automaton: %d nodes (%d APIs), %d transitions, %d distance rows, \
     digest %s, compiled in %.1f ms"
    n apis transitions rows
    (String.sub t.digest 0 8)
    (t.compile_s *. 1000.0)
