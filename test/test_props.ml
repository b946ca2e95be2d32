(* Cross-module property tests on the invariants the algorithms rely on:
   path well-formedness, pruning soundness and exactness, CGT size bounds,
   the one-pass CGT tree check, and engine determinism. The fixture is
   the Figure 4 grammar from test_core; the pruning and tree-check
   properties also run on both domains' grammars. *)

open Dggt_grammar
open Dggt_core
module Nlu = Dggt_nlu
module Listutil = Dggt_util.Listutil
module Domain = Dggt_domains.Domain
module Refcgt = Dggt_eval.Refcgt
module Refgprune = Dggt_eval.Refgprune
module Refsprune = Dggt_eval.Refsprune

let fig4_bnf =
  {|
cmd        ::= insert ;
insert     ::= INSERT insert_arg ;
insert_arg ::= string pos iter ;
string     ::= STRING ;
pos        ::= position | START ;
position   ::= POSITION pos_arg ;
pos_arg    ::= after | startfrom ;
after      ::= AFTER string ;
startfrom  ::= STARTFROM string ;
iter       ::= iterscope | ALL ;
iterscope  ::= ITERATIONSCOPE scope ;
scope      ::= linescope | DOCSCOPE ;
linescope  ::= LINESCOPE ;
|}

let graph =
  lazy (Ggraph.build (Result.get_ok (Cfg.of_text ~start:"cmd" fig4_bnf)))

let autom = lazy (Dggt_autom.Autom.compile (Lazy.force graph))

(* the grammar paths between two fixture APIs *)
let search a b =
  Dggt_autom.Autom.paths_between_apis (Lazy.force autom) ~src_api:a ~dst_api:b

let api_names =
  [ "INSERT"; "STRING"; "START"; "POSITION"; "AFTER"; "STARTFROM"; "ALL";
    "ITERATIONSCOPE"; "LINESCOPE"; "DOCSCOPE" ]

let api_pair_gen = QCheck.(pair (oneofl api_names) (oneofl api_names))

(* A path from [src] to [dst] is well formed when its node chain
   ([Gpath.nodes]) is a simple path from [src] to [dst]; claim [j]
   decodes to the source node and production of the one edge of
   [p.edges] that joins nodes [j] and [j + 1]; [p.edges] is strictly
   increasing, one edge per claim; and [p.apis] lists exactly the
   chain's API nodes, in order. *)
let path_well_formed g ~src ~dst (p : Gpath.t) =
  let nodes = Gpath.nodes p in
  let n = Array.length nodes in
  let claims = p.Gpath.claims and edges = Array.to_list p.Gpath.edges in
  let joining j =
    List.filter
      (fun eid ->
        let e = Ggraph.edge g eid in
        e.Ggraph.src = nodes.(j) && e.Ggraph.dst = nodes.(j + 1))
      edges
  in
  nodes.(0) = src
  && nodes.(n - 1) = dst
  && List.length (List.sort_uniq compare (Array.to_list nodes)) = n
  && Array.length claims = n - 1
  && List.length edges = n - 1
  && List.sort_uniq compare edges = edges
  && List.for_all
       (fun j ->
         match joining j with
         | [ eid ] ->
             let e = Ggraph.edge g eid in
             Gpath.claim_node claims.(j) = e.Ggraph.src
             && Gpath.claim_prod claims.(j) = e.Ggraph.prod
         | _ -> false)
       (List.init (n - 1) Fun.id)
  && Array.to_list p.Gpath.apis = List.filter (Ggraph.is_api g) (Array.to_list nodes)
  && Gpath.size p = Array.length p.Gpath.apis

let api g name = Option.get (Ggraph.api_node g name)

(* Every path the search returns is well formed, on the fixture ... *)
let prop_path_well_formed =
  QCheck.Test.make ~name:"grammar paths are well-formed chains" ~count:200
    api_pair_gen (fun (a, b) ->
      let g = Lazy.force graph in
      List.for_all (path_well_formed g ~src:(api g a) ~dst:(api g b)) (search a b))

(* ... on random grammars, between every pair of APIs and from the root
   to every API ... *)
let prop_path_well_formed_random =
  QCheck.Test.make ~name:"grammar paths are well-formed chains (random grammars)"
    ~count:40
    (QCheck.make ~print:Fun.id Test_autom.gen_grammar)
    (fun bnf ->
      match Cfg.of_text ~start:"n0" bnf with
      | Error _ -> true
      | exception _ -> true
      | Ok cfg ->
          let g = Ggraph.build cfg in
          let a = Dggt_autom.Autom.compile g in
          let apis = Ggraph.api_nodes g in
          List.for_all
            (fun (dst_api, dst) ->
              List.for_all
                (path_well_formed g ~src:g.Ggraph.root ~dst)
                (Dggt_autom.Autom.paths_from_root a ~dst)
              && List.for_all
                   (fun (src_api, src) ->
                     List.for_all (path_well_formed g ~src ~dst)
                       (Dggt_autom.Autom.paths_between_apis a ~src_api ~dst_api))
                   apis)
            apis)

(* ... and on a sample of both built-in domains' API pairs, under each
   domain's own limits *)
let prop_path_well_formed_builtin =
  let doms =
    lazy
      (List.map
         (fun (d : Domain.t) ->
           let g = Lazy.force d.Domain.graph in
           (d, g, Array.of_list (Ggraph.api_nodes g)))
         [ Dggt_domains.Text_editing.domain; Dggt_domains.Astmatcher.domain ])
  in
  QCheck.Test.make ~name:"grammar paths are well-formed chains (built-in domains, sampled)"
    ~count:300
    (QCheck.make
       ~print:(fun (d, i, j) -> Printf.sprintf "domain %d, APIs %d -> %d" d i j)
       QCheck.Gen.(triple (int_bound 1) nat nat))
    (fun (d, i, j) ->
      let dom, g, apis = List.nth (Lazy.force doms) d in
      let src_api, src = apis.(i mod Array.length apis)
      and dst_api, dst = apis.(j mod Array.length apis) in
      let limits = Option.value dom.Domain.path_limits ~default:Gpath.default_limits in
      List.for_all (path_well_formed g ~src ~dst)
        (Dggt_autom.Autom.paths_between_apis ~limits (Lazy.force dom.Domain.autom)
           ~src_api ~dst_api))

(* Paths are simple: no node repeats. *)
let prop_path_simple =
  QCheck.Test.make ~name:"grammar paths are simple (no repeated node)" ~count:200
    api_pair_gen (fun (a, b) ->
      search a b
      |> List.for_all (fun (p : Gpath.t) ->
             let l = Array.to_list (Gpath.nodes p) in
             List.length l = List.length (List.sort_uniq compare l)))

(* The search never returns two identical paths. *)
let prop_path_distinct =
  QCheck.Test.make ~name:"path sets are duplicate-free" ~count:200 api_pair_gen
    (fun (a, b) ->
      let ps = search a b in
      let keys = List.map (fun (p : Gpath.t) -> Array.to_list (Gpath.nodes p)) ps in
      List.length keys = List.length (List.sort_uniq compare keys))

(* Size-based pruning is sound: the true merged API size of any combination
   lies within the precomputed bounds. *)
(* The paper's size bound presumes sibling paths: they share the governor
   API (DGGT groups combinations by governor, so the precondition always
   holds in the engine). The generator respects it — dropping the shared
   root makes the upper bound unsound, which this suite verified the hard
   way. *)
let random_paths_gen =
  QCheck.Gen.(
    list_size (1 -- 3)
      (oneofl
         [ ("INSERT", "STRING"); ("INSERT", "START"); ("INSERT", "LINESCOPE");
           ("INSERT", "ALL"); ("INSERT", "POSITION"); ("INSERT", "AFTER") ]))

let mk_epath i (p : Gpath.t) =
  let name = Ggraph.node_name (Lazy.force graph) in
  {
    Edge2path.id = i;
    edge = { Nlu.Depgraph.gov = 0; dep = i + 1; label = Nlu.Dep.Dep };
    gov_api = Some (name p.Gpath.apis.(0));
    dep_api = name p.Gpath.apis.(Array.length p.Gpath.apis - 1);
    path = p;
  }

let prop_sprune_bounds_sound =
  QCheck.Test.make ~name:"size bounds contain the true merged size" ~count:200
    (QCheck.make random_paths_gen) (fun pairs ->
      let g = Lazy.force graph in
      let paths =
        List.concat_map
          (fun (a, b) ->
            match search a b with
            | p :: _ -> [ p ]
            | [] -> [])
          pairs
      in
      paths = []
      ||
      let combo = List.mapi mk_epath paths in
      let b = Refsprune.bounds_of ~extra:(fun _ -> 0) combo in
      let merged = Cgt.of_paths paths in
      let size = Cgt.api_size (Cgt.scratch g) merged in
      b.Refsprune.lo <= size && size <= b.Refsprune.hi)

(* The enumeration is exact: for each governor's groups,
   [Gprune.combos] keeps, in order, the one-path-per-group combinations
   of the product that hold no pair of the pairwise conflict relation
   ({!Pathvote.conflict_table}), then filtered by the reference size
   pruning ({!Refsprune.prune}) under the same per-path [extra]; its
   total is the product's size, its conflict-free count the filter's,
   and it ticks the budget as often as the reference enumeration
   ({!Refgprune.combos}). One [Gprune.t] serves every governor of a
   node, as in PathMerge. The product is streamed
   ({!Listutil.iter_cartesian}, the order of {!Listutil.cartesian})
   because some TextEditing governors have products of millions. *)
let epath_ids = List.map (fun (p : Edge2path.epath) -> p.Edge2path.id)

let gprune_exact ?(gprune = true) ?(sprune = true) g ~extra governors =
  let t = Gprune.prepare ~extra g in
  List.for_all
    (fun groups ->
      (* one group's combinations hold a single path: nothing to filter,
         and its pairs, most of the table, are never consulted *)
      let paths = match groups with [ _ ] -> [] | _ -> List.concat groups in
      let table =
        Pathvote.conflict_table g
          (List.map (fun (p : Edge2path.epath) -> (p.Edge2path.id, p.Edge2path.path)) paths)
      in
      let rec clean = function
        | [] -> true
        | p :: rest ->
            List.for_all (fun q -> not (Hashtbl.mem table (min p q, max p q))) rest
            && clean rest
      in
      let steps = Dggt_util.Budget.unlimited () in
      let r = Gprune.combos ~budget:steps t ~gprune ~sprune groups in
      let ref_steps = Dggt_util.Budget.unlimited () in
      ignore
        (Refgprune.combos ~budget:ref_steps (Refgprune.prepare g paths) ~enabled:gprune
           groups);
      let product = ref 0 and conflict_free = ref [] in
      Listutil.iter_cartesian
        (fun combo ->
          incr product;
          if (not gprune) || clean (epath_ids combo) then
            conflict_free := combo :: !conflict_free)
        groups;
      let conflict_free = List.rev !conflict_free in
      let expected = Refsprune.prune ~enabled:sprune ~extra conflict_free in
      List.map epath_ids r.Gprune.kept = List.map epath_ids expected
      && r.Gprune.total = !product
      && r.Gprune.conflict_free = List.length conflict_free
      && Dggt_util.Budget.steps_used steps = Dggt_util.Budget.steps_used ref_steps)
    governors

(* Grammar-based pruning only removes combinations that are guaranteed
   grammar-invalid: every pruned combination, if merged, violates
   one-production-per-node. And it removes exactly the combinations the
   pairwise relation condemns. *)
let prop_gprune_lossless =
  QCheck.Test.make ~name:"grammar pruning removes only invalid combinations"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         triple
           (oneofl [ ("INSERT", "STRING"); ("INSERT", "START") ])
           (oneofl [ ("INSERT", "LINESCOPE"); ("INSERT", "ALL"); ("INSERT", "POSITION") ])
           (array_size (return 200) (0 -- 4))))
    (fun ((a1, b1), (a2, b2), extras) ->
      let g = Lazy.force graph in
      let ps1 = search a1 b1 in
      let ps2 = search a2 b2 in
      let g1 = List.mapi mk_epath ps1 in
      let g2 = List.mapi (fun i p -> mk_epath (100 + i) p) ps2 in
      g1 = [] || g2 = []
      ||
      let tbl = Gprune.prepare g in
      let r = Gprune.combos tbl ~gprune:true ~sprune:false [ g1; g2 ] in
      let all = (Gprune.combos tbl ~gprune:false ~sprune:false [ g1; g2 ]).Gprune.kept in
      let pruned =
        List.filter (fun c -> not (List.mem c r.Gprune.kept)) all
      in
      let extra (p : Edge2path.epath) = extras.(p.Edge2path.id) in
      r.Gprune.total = List.length all
      && List.for_all
           (fun combo ->
             let cgt =
               Cgt.of_paths (List.map (fun (p : Edge2path.epath) -> p.Edge2path.path) combo)
             in
             not (Refcgt.is_grammar_valid g cgt))
           pruned
      && List.for_all
           (fun (gprune, sprune) ->
             gprune_exact ~gprune ~sprune g ~extra [ [ g1; g2 ]; [ g2 ]; [ g2; g1 ] ])
           [ (true, true); (true, false); (false, true); (false, false) ])

(* The mask enumeration at word boundaries. A level's bitset takes one
   word per [Sys.int_size] (63) paths, so levels of 62, 63, 64, 126 and
   127 paths put a level's last path on either side of a word edge. A
   sample is 3-5 groups of ASTMatcher grammar paths out of one governor
   API (the sibling shape PathMerge enumerates) with random extras: one
   level, in turn, of each boundary size, sometimes a second of 62-64,
   and the others 1-3 paths, so the product stays enumerable with both
   prunings off. [Gprune.combos] must equal [Refgprune.combos] followed
   by [Refsprune.prune] under all four settings (kept list and order,
   [total], [conflict_free], ticks), and under [Budget.of_steps k] it
   must run out on the same tick as the reference. One [Gprune.t] serves
   every run on one sample's groups, the aborted ones first. *)
let am_pools =
  lazy
    (let dom = Dggt_domains.Astmatcher.domain in
     let g = Lazy.force dom.Domain.graph in
     let limits = Option.value dom.Domain.path_limits ~default:Gpath.default_limits in
     let autom = Lazy.force dom.Domain.autom in
     let apis = List.map fst (Ggraph.api_nodes g) in
     (* every path from [src] to the APIs in grammar order, up to 254 *)
     let pool src =
       let rec go acc n = function
         | dst :: rest when n < 254 && dst <> src ->
             let ps = Dggt_autom.Autom.paths_between_apis ~limits autom ~src_api:src ~dst_api:dst in
             go (List.rev_append ps acc) (n + List.length ps) rest
         | _ :: rest when n < 254 -> go acc n rest
         | _ -> Array.of_list (List.rev acc)
       in
       (src, go [] 0 apis)
     in
     ( g,
       apis
       |> List.filteri (fun i _ -> i mod 8 = 0)
       |> List.map pool
       |> List.filter (fun (_, ps) -> Array.length ps >= 127) ))

type boundary_sample = {
  pool : int;  (* index into the pools *)
  small : int array;  (* every level's size when not a boundary level *)
  at : int;  (* the boundary level *)
  second : (int * int) option;  (* another level of 62-64 paths *)
  picks : int array;  (* random pool offsets, one per path drawn *)
  extras : int array;
  cut : float;  (* where [Budget.of_steps] stops, as a share of the ticks *)
}

let gen_boundary : boundary_sample QCheck.Gen.t =
 fun rs ->
  let _, pools = Lazy.force am_pools in
  let n = 3 + Random.State.int rs 3 in
  let at = Random.State.int rs n in
  {
    pool = Random.State.int rs (List.length pools);
    small = Array.init n (fun _ -> 1 + Random.State.int rs 3);
    at;
    second =
      (if Random.State.bool rs then
         Some ((at + 1 + Random.State.int rs (n - 1)) mod n, 62 + Random.State.int rs 3)
       else None);
    picks = Array.init 1024 (fun _ -> Random.State.int rs 1_000_000);
    extras = Array.init 1024 (fun _ -> Random.State.int rs 5);
    cut = Random.State.float rs 1.0;
  }

let print_boundary s =
  Printf.sprintf "pool %d small [%s] at %d second %s" s.pool
    (String.concat ";" (Array.to_list (Array.map string_of_int s.small)))
    s.at
    (match s.second with Some (l, k) -> Printf.sprintf "%d:%d" l k | None -> "-")

let boundary_groups s size =
  let g, pools = Lazy.force am_pools in
  let gov, pool = List.nth pools s.pool in
  let sizes = Array.copy s.small in
  sizes.(s.at) <- size;
  (match s.second with
  | Some (l, k) ->
      sizes.(l) <- k;
      (* the other levels keep one path, so the product stays small *)
      Array.iteri (fun e _ -> if e <> l && e <> s.at then sizes.(e) <- 1) sizes
  | None -> ());
  let drawn = ref 0 in
  Array.to_list
    (Array.mapi
       (fun e k ->
         List.init k (fun j ->
             let p = pool.(s.picks.(!drawn mod 1024) mod Array.length pool) in
             incr drawn;
             {
               Edge2path.id = (1000 * e) + j;
               edge = { Nlu.Depgraph.gov = 0; dep = e + 1; label = Nlu.Dep.Dep };
               gov_api = Some gov;
               dep_api = Ggraph.node_name g p.Gpath.apis.(Array.length p.Gpath.apis - 1);
               path = p;
             }))
       sizes)

let mask_matches_reference s =
  let g, _ = Lazy.force am_pools in
  let extra (p : Edge2path.epath) = s.extras.(p.Edge2path.id mod 1024) in
  List.for_all
    (fun size ->
      let groups = boundary_groups s size in
      let t = Gprune.prepare ~extra g in
      let table = Refgprune.prepare g (List.concat groups) in
      let reference ~gprune ~sprune budget =
        let conflict_free, total = Refgprune.combos ~budget table ~enabled:gprune groups in
        (Refsprune.prune ~enabled:sprune ~extra conflict_free, total, List.length conflict_free)
      in
      let ticks f =
        let b = Dggt_util.Budget.unlimited () in
        let r = f b in
        (r, Dggt_util.Budget.steps_used b)
      in
      let exhausted f k =
        let b = Dggt_util.Budget.of_steps k in
        match f b with
        | _ -> None
        | exception Dggt_util.Budget.Exhausted -> Some (Dggt_util.Budget.steps_used b)
      in
      let settings = [ (true, true); (true, false); (false, true); (false, false) ] in
      (* the aborted runs first: they leave the shared state mid-walk *)
      List.for_all
        (fun (gprune, sprune) ->
          let _, n = ticks (reference ~gprune ~sprune) in
          let k = int_of_float (s.cut *. float_of_int n) in
          let at_ref = exhausted (fun b -> ignore (reference ~gprune ~sprune b)) k in
          at_ref <> None
          && exhausted (fun b -> ignore (Gprune.combos ~budget:b t ~gprune ~sprune groups)) k
             = at_ref)
        settings
      && List.for_all
           (fun (gprune, sprune) ->
             let (kept, total, conflict_free), n = ticks (reference ~gprune ~sprune) in
             let r, m = ticks (fun b -> Gprune.combos ~budget:b t ~gprune ~sprune groups) in
             List.map epath_ids r.Gprune.kept = List.map epath_ids kept
             && r.Gprune.total = total
             && r.Gprune.conflict_free = conflict_free
             && m = n)
           settings)
    [ 62; 63; 64; 126; 127 ]

let prop_gprune_word_boundaries =
  QCheck.Test.make ~name:"mask enumeration = reference at word boundaries" ~count:8
    (QCheck.make gen_boundary ~print:print_boundary)
    mask_matches_reference

(* The sibling groups PathMerge hands [Gprune.combos] for one query: per
   relocation variant and dependency node with children, its governors'
   groups and the paths' extra weights, read off the finished chart by
   {!Dggt.governor_groups} and {!Dggt.child_extra}, the functions the
   chart walk forms them with. *)
let governor_groups (ses : Engine.session) query =
  let found = ref [] in
  let merge ~budget ~stats ~gprune ~sprune ?trace:_ g (dg : Nlu.Depgraph.t) w2a e2p =
    let res, dyng =
      Dggt.synthesize_with_graph ~budget ~stats ~gprune ~sprune g dg w2a e2p
    in
    List.iter
      (fun (n : Nlu.Depgraph.node) ->
        match Dggt.governor_groups dyng e2p dg n.Nlu.Depgraph.id with
        | [] -> ()
        | governors ->
            found := (g, Dggt.child_extra dyng, List.map snd governors) :: !found)
      dg.Nlu.Depgraph.nodes;
    res
  in
  ignore (Engine.synthesize_with_merge ~merge ses.Engine.cfg ses.Engine.target query);
  List.rev !found

let test_gprune_query_governors () =
  let stride = if Sys.getenv_opt "DGGT_GOLDEN_FULL" = Some "1" then 1 else 10 in
  List.iter
    (fun (dom : Domain.t) ->
      let ses =
        Domain.configure dom
          { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = None }
      in
      let governors = ref 0 in
      List.iteri
        (fun i (q : Domain.query) ->
          if i mod stride = 0 then
            List.iter
              (fun (g, extra, node_governors) ->
                governors := !governors + List.length node_governors;
                if not (gprune_exact g ~extra node_governors) then
                  Alcotest.failf
                    "%s: %S: enumeration differs from the pairwise and size filters"
                    dom.Domain.name q.Domain.text)
              (governor_groups ses q.Domain.text))
        dom.Domain.queries;
      Alcotest.(check bool) (dom.Domain.name ^ " has governors") true (!governors > 0))
    [ Dggt_domains.Text_editing.domain; Dggt_domains.Astmatcher.domain ]

(* CGT merging is commutative and associative in its effect. *)
let prop_cgt_merge_acI =
  QCheck.Test.make ~name:"CGT merge is commutative/associative/idempotent"
    ~count:200
    (QCheck.make random_paths_gen) (fun pairs ->
      let paths =
        List.concat_map
          (fun (a, b) ->
            match search a b with
            | p :: _ -> [ Cgt.of_paths [ p ] ]
            | [] -> [])
          pairs
      in
      match paths with
      | [ x ] -> Cgt.equal (Cgt.merge x x) x
      | x :: y :: rest ->
          let z = List.fold_left Cgt.merge Cgt.empty rest in
          Cgt.equal (Cgt.merge x y) (Cgt.merge y x)
          && Cgt.equal
               (Cgt.merge (Cgt.merge x y) z)
               (Cgt.merge x (Cgt.merge y z))
          && Cgt.equal (Cgt.merge x x) x
      | [] -> true)

(* The stamped one-pass check agrees with the reference checks
   ({!Dggt_eval.Refcgt}) on random edge subsets of both domains' grammars.
   A sample is a grammar, a list of edge ids and a list of lone nodes,
   drawn in one of six shapes so that trees (grammar-valid or with two
   productions at a node), forests, cycles (alone or beside a tree: one
   root, every in-degree <= 1, yet not a tree), nodes with two in-edges,
   lone nodes and arbitrary subsets all occur; the coverage test below
   checks that they do. *)
type shape_sample = { gname : string; g : Ggraph.t; edges : int list; lone : int list }

(* each domain's grammar with up to 64 of its simple cycles (an edge
   u -> v closed by a shortest path v ~> u, walked down
   [Ggraph.distance]) and its nodes with two or more in-edges *)
let grammar_fixtures =
  lazy
    (List.map
       (fun (d : Domain.t) ->
         let g = Lazy.force d.Domain.graph in
         let rec back n u =
           if n = u then []
           else
             let e =
               List.find
                 (fun (e : Ggraph.edge) ->
                   Ggraph.distance g e.Ggraph.dst u = Ggraph.distance g n u - 1)
                 (Ggraph.out_edges g n)
             in
             e.Ggraph.id :: back e.Ggraph.dst u
         in
         let cycles =
           Array.to_list g.Ggraph.edges
           |> List.filter (fun (e : Ggraph.edge) ->
                  Ggraph.reachable g e.Ggraph.dst e.Ggraph.src)
           |> Listutil.take 64
           |> List.map (fun (e : Ggraph.edge) ->
                  e.Ggraph.id :: back e.Ggraph.dst e.Ggraph.src)
         in
         let fan_in =
           List.filter
             (fun n -> List.length (Ggraph.in_edges g n) >= 2)
             (List.init (Ggraph.node_count g) Fun.id)
         in
         (d.Domain.name, g, cycles, fan_in))
       [ Dggt_domains.Text_editing.domain; Dggt_domains.Astmatcher.domain ])

let gen_shape : shape_sample QCheck.Gen.t =
 fun rs ->
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let gname, g, cycles, fan_in = pick (Lazy.force grammar_fixtures) in
  let node () = Random.State.int rs (Ggraph.node_count g) in
  let edge () = Random.State.int rs (Ggraph.edge_count g) in
  (* grow a tree from a random node along out-edges to unseen nodes *)
  let tree () =
    let root = node () in
    let nodes = ref [ root ] and edges = ref [] in
    for _ = 1 to 1 + Random.State.int rs 8 do
      match Ggraph.out_edges g (pick !nodes) with
      | [] -> ()
      | outs ->
          let e = pick outs in
          if not (List.mem e.Ggraph.dst !nodes) then begin
            nodes := e.Ggraph.dst :: !nodes;
            edges := e.Ggraph.id :: !edges
          end
    done;
    if !edges = [] then ([], [ root ]) else (!edges, [])
  in
  let edges, lone =
    match Random.State.int rs 6 with
    | 0 -> tree ()
    | 1 ->
        let e1, l1 = tree () and e2, l2 = tree () in
        (e1 @ e2, l1 @ l2)
    | 2 -> (
        match cycles with
        | [] -> tree ()
        | cs ->
            let extra, l = if Random.State.bool rs then tree () else ([], []) in
            (pick cs @ extra, l))
    | 3 -> (
        match fan_in with
        | [] -> tree ()
        | ns ->
            let ins = Ggraph.in_edges g (pick ns) in
            let a = pick ins in
            let b = pick (List.filter (fun (e : Ggraph.edge) -> e.Ggraph.id <> a.Ggraph.id) ins) in
            let extra, l = tree () in
            (a.Ggraph.id :: b.Ggraph.id :: extra, l))
    | 4 ->
        let e, l = tree () in
        (e, node () :: l)
    | _ -> (List.init (1 + Random.State.int rs 6) (fun _ -> edge ()), [])
  in
  { gname; g; edges; lone }

let cgt_of_sample s = Cgt.of_ids ~edges:s.edges ~lone:s.lone

let print_shape s =
  Printf.sprintf "%s edges [%s] lone [%s]" s.gname
    (String.concat "; " (List.map string_of_int s.edges))
    (String.concat "; " (List.map string_of_int s.lone))

(* Every answer of the stamped pass against the reference, once with a
   fresh scratch and once with one scratch per grammar reused across all
   samples (a stale stamp would leak one sample's nodes into the next). *)
let shared_scratch =
  let tbl = Hashtbl.create 2 in
  fun name g ->
    match Hashtbl.find_opt tbl name with
    | Some sc -> sc
    | None ->
        let sc = Cgt.scratch g in
        Hashtbl.add tbl name sc;
        sc

let agrees_with_reference sc g c =
  let wf = Refcgt.well_formed g c and size = Refcgt.api_size g c in
  Cgt.check sc c = (if wf then size else -1)
  && Cgt.well_formed sc c = wf
  && Cgt.api_size sc c = size
  && Cgt.is_tree sc c = Refcgt.is_tree g c
  && Cgt.root sc c = Refcgt.root g c

let prop_cgt_tree_check =
  QCheck.Test.make ~name:"one-pass CGT tree check = quadratic reference"
    ~count:500
    (QCheck.make gen_shape ~print:print_shape)
    (fun s ->
      let c = cgt_of_sample s in
      agrees_with_reference (Cgt.scratch s.g) s.g c
      && agrees_with_reference (shared_scratch s.gname s.g) s.g c)

(* The shapes the tree-check property must see, read off the sample's
   edge list: a directed cycle, a node with two in-edges, a lone node no
   edge touches, a forest (acyclic, no fan-in, several roots) and a
   tree. *)
let test_cgt_shapes_covered () =
  let rs = Random.State.make [| 0xc67 |] in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 500 do
    let s = gen_shape rs in
    let es = List.sort_uniq compare s.edges |> List.map (Ggraph.edge s.g) in
    let indeg n = List.length (List.filter (fun (e : Ggraph.edge) -> e.Ggraph.dst = n) es) in
    let touched n = List.exists (fun (e : Ggraph.edge) -> e.Ggraph.src = n || e.Ggraph.dst = n) es in
    let nodes =
      List.sort_uniq compare
        (s.lone @ List.concat_map (fun (e : Ggraph.edge) -> [ e.Ggraph.src; e.Ggraph.dst ]) es)
    in
    let rec reaches seen a b =
      List.exists
        (fun (e : Ggraph.edge) ->
          e.Ggraph.src = a
          && (e.Ggraph.dst = b
             || ((not (List.mem e.Ggraph.dst seen)) && reaches (e.Ggraph.dst :: seen) e.Ggraph.dst b)))
        es
    in
    let cyclic = List.exists (fun n -> reaches [ n ] n n) nodes in
    let fan_in = List.exists (fun n -> indeg n >= 2) nodes in
    let mark k = Hashtbl.replace seen k () in
    if cyclic then mark "cycle";
    if fan_in then mark "two in-edges";
    if List.exists (fun n -> not (touched n)) s.lone then mark "lone node";
    if (not cyclic) && (not fan_in)
       && List.length (List.filter (fun n -> indeg n = 0) nodes) >= 2
    then mark "forest";
    let c = cgt_of_sample s in
    if Refcgt.is_tree s.g c && s.edges <> [] then
      mark (if Refcgt.is_grammar_valid s.g c then "tree" else "tree with two productions at a node");
    mark s.gname
  done;
  List.iter
    (fun k -> Alcotest.(check bool) ("generator covers " ^ k) true (Hashtbl.mem seen k))
    [ "cycle"; "two in-edges"; "lone node"; "forest"; "tree";
      "tree with two productions at a node"; "TextEditing"; "ASTMatcher" ]

(* ------------------------------------------------------------------ *)
(* The CGT's sorted arrays against the sets they replaced              *)
(* ------------------------------------------------------------------ *)

(* [Cgt] as it was on two balanced-tree sets, a merge being the union of
   both. Keep this frozen: it is the oracle for the ids, the order and
   the equality of the sorted-array representation. *)
module Setcgt = struct
  module IS = Set.Make (Int)

  type t = { edges : IS.t; lone : IS.t }

  let empty = { edges = IS.empty; lone = IS.empty }
  let merge a b = { edges = IS.union a.edges b.edges; lone = IS.union a.lone b.lone }

  let merge_path t (p : Gpath.t) =
    if Array.length p.Gpath.edges = 0 then { t with lone = IS.add (Gpath.nodes p).(0) t.lone }
    else { t with edges = Array.fold_left (fun s e -> IS.add e s) t.edges p.Gpath.edges }

  let of_paths paths = List.fold_left merge_path empty paths
  let of_ids ~edges ~lone = { edges = IS.of_list edges; lone = IS.of_list lone }
  let edge_ids t = IS.elements t.edges
  let lone_ids t = IS.elements t.lone
  let equal a b = IS.equal a.edges b.edges && IS.equal a.lone b.lone

  let compare a b =
    match IS.compare a.edges b.edges with 0 -> IS.compare a.lone b.lone | c -> c
end

(* per built-in domain: paths from every 16th API to the APIs in grammar
   order (up to 32 per source), and every API node's zero-length path *)
let rep_pools =
  lazy
    (List.map
       (fun (d : Domain.t) ->
         let g = Lazy.force d.Domain.graph in
         let limits = Option.value d.Domain.path_limits ~default:Gpath.default_limits in
         let autom = Lazy.force d.Domain.autom in
         let apis = Ggraph.api_nodes g in
         let from (src, _) =
           let rec go acc n = function
             | (dst, _) :: rest when n < 32 ->
                 let ps = Dggt_autom.Autom.paths_between_apis ~limits autom ~src_api:src ~dst_api:dst in
                 go (List.rev_append ps acc) (n + List.length ps) rest
             | _ -> List.rev acc
           in
           go [] 0 apis
         in
         let zero (_, nid) = Gpath.make g ~nodes:[| nid |] ~edges:[||] in
         ( d.Domain.name,
           g,
           Array.of_list
             (List.concat_map from (List.filteri (fun i _ -> i mod 16 = 0) apis)
             @ List.map zero apis) ))
       [ Dggt_domains.Text_editing.domain; Dggt_domains.Astmatcher.domain ])

type rep_sample = {
  rname : string;
  rg : Ggraph.t;
  rpaths : Gpath.t list;
  split : int;  (* [a] merges the paths before it, [b] those after it *)
  cut : int;  (* the prefix CGT keeps this many edge ids and lone ids *)
}

(* up to 8 paths, some drawn twice *)
let gen_rep : rep_sample QCheck.Gen.t =
 fun rs ->
  let rname, rg, pool =
    List.nth (Lazy.force rep_pools) (Random.State.int rs 2)
  in
  let draw () = pool.(Random.State.int rs (Array.length pool)) in
  let rec paths n acc =
    if n = 0 then List.rev acc
    else
      let p =
        match acc with
        | q :: _ when Random.State.int rs 6 = 0 -> q
        | _ -> draw ()
      in
      paths (n - 1) (p :: acc)
  in
  let n = Random.State.int rs 9 in
  { rname; rg; rpaths = paths n []; split = Random.State.int rs (n + 1);
    cut = Random.State.int rs 12 }

let print_rep s =
  Printf.sprintf "%s split %d cut %d paths [%s]" s.rname s.split s.cut
    (String.concat "; "
       (List.map
          (fun (p : Gpath.t) ->
            Printf.sprintf "nodes %s edges %s"
              (String.concat "," (Array.to_list (Array.map string_of_int (Gpath.nodes p))))
              (String.concat "," (Array.to_list (Array.map string_of_int p.Gpath.edges))))
          s.rpaths))

let sign c = Stdlib.compare c 0

(* On path lists from both built-in automata: the ids of every CGT the
   operations build equal the oracle's, [compare]'s sign and [equal]
   agree on every pair (equal ones and prefix-related ones among them),
   and the tree check, the root and the API size agree with the
   quadratic reference. *)
let prop_cgt_matches_sets =
  QCheck.Test.make ~name:"sorted-array CGT = Set-based CGT" ~count:500
    (QCheck.make gen_rep ~print:print_rep)
    (fun s ->
      let g = s.rg in
      let before = List.filteri (fun i _ -> i < s.split) s.rpaths
      and after = List.filteri (fun i _ -> i > s.split) s.rpaths
      and at = List.nth_opt s.rpaths s.split in
      let all = Cgt.of_paths s.rpaths and all' = Setcgt.of_paths s.rpaths in
      let a = Cgt.of_paths before and a' = Setcgt.of_paths before in
      let b = Cgt.of_paths after and b' = Setcgt.of_paths after in
      (* a prefix of [all]'s edge ids and of its lone ids *)
      let prefix ids = List.filteri (fun i _ -> i < s.cut) ids in
      let edges = prefix (Cgt.edge_ids all) and lone = prefix (Cgt.lone_ids all) in
      let pre = Cgt.of_ids ~edges ~lone and pre' = Setcgt.of_ids ~edges ~lone in
      let built =
        [ (all, all'); (a, a'); (b, b'); (pre, pre');
          (Cgt.merge a b, Setcgt.merge a' b');
          (Cgt.merge b a, Setcgt.merge b' a') ]
        @
        match at with
        | Some p ->
            [ (Cgt.fuse a p b, Setcgt.merge (Setcgt.merge_path a' p) b');
              (Cgt.merge_path a p, Setcgt.merge_path a' p) ]
        | None -> []
      in
      List.for_all
        (fun (c, c') ->
          Cgt.edge_ids c = Setcgt.edge_ids c'
          && Cgt.lone_ids c = Setcgt.lone_ids c'
          && Cgt.is_empty c = Setcgt.equal c' Setcgt.empty
          && agrees_with_reference (Cgt.scratch g) g c)
        built
      && List.for_all
           (fun (x, x') ->
             List.for_all
               (fun (y, y') ->
                 sign (Cgt.compare x y) = sign (Setcgt.compare x' y')
                 && Cgt.equal x y = Setcgt.equal x' y')
               built)
           built)

(* [Synres.injective] compares pairs in place; its frozen predecessor
   kept a table of the APIs seen so far. *)
let injective_by_table assignment =
  let rec go seen = function
    | [] -> true
    | (node, api) :: rest -> (
        match List.assoc_opt api seen with
        | Some n when n <> node -> false
        | _ -> go ((api, node) :: seen) rest)
  in
  go [] assignment

let prop_injective_matches_table =
  QCheck.Test.make ~name:"assignment injectivity = table-based reference" ~count:500
    QCheck.(list_of_size Gen.(0 -- 6) (pair (int_range 0 4) (oneofl [ "A"; "B"; "C"; "D" ])))
    (fun asg -> Synres.injective asg = injective_by_table asg)

(* Engine determinism: synthesizing twice gives the identical codelet. *)
let te_query_gen =
  QCheck.Gen.(
    map
      (fun (v, o, w) -> Printf.sprintf "%s %s %s" v o w)
      (triple
         (oneofl [ "delete"; "select"; "print"; "count" ])
         (oneofl [ "all numbers"; "every line"; "the first word"; "\"x\"" ])
         (oneofl [ ""; "in every sentence"; "of each line"; "containing \"y\"" ])))

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine is deterministic" ~count:40
    (QCheck.make te_query_gen ~print:Fun.id) (fun q ->
      let dom = Dggt_domains.Text_editing.domain in
      let ses =
        Dggt_domains.Domain.configure dom
          { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some 5.0 }
      in
      let request = { Engine.input = Engine.Text q; mode = Engine.Plain } in
      let a = Engine.respond ses request in
      let b = Engine.respond ses request in
      a.Engine.code = b.Engine.code)

(* Streaming delivery changes when candidates arrive, never what they
   are: a ranked run with an [on_candidate] hook must end on exactly the
   list the same request returns without the hook, with interim revisions
   strictly monotone and every emitted rank inside the top-k window. *)
let te_session =
  lazy
    (Dggt_domains.Domain.configure Dggt_domains.Text_editing.domain
       { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some 10.0 })

let am_session =
  lazy
    (Dggt_domains.Domain.configure Dggt_domains.Astmatcher.domain
       { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some 10.0 })

let am_queries =
  lazy
    (Dggt_domains.Astmatcher.domain.Dggt_domains.Domain.queries
    |> List.filter (fun (q : Dggt_domains.Domain.query) ->
           not q.Dggt_domains.Domain.hard)
    |> List.filteri (fun i _ -> i < 4)
    |> List.map (fun (q : Dggt_domains.Domain.query) ->
           q.Dggt_domains.Domain.text))

let stream_case_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun q -> (`Te, q)) te_query_gen);
        (1, map (fun q -> (`Am, q)) (oneofl (Lazy.force am_queries)));
      ])

let prop_stream_equivalent =
  QCheck.Test.make
    ~name:"streamed final candidates are byte-identical to a ranked respond"
    ~count:24
    (QCheck.make stream_case_gen ~print:snd)
    (fun (which, q) ->
      let ses =
        Lazy.force (match which with `Te -> te_session | `Am -> am_session)
      in
      let k = 5 in
      let emitted = ref [] in
      let request = { Engine.input = Engine.Text q; mode = Engine.Ranked k } in
      let o =
        Engine.respond
          ~on_candidate:(fun c -> emitted := c :: !emitted)
          ses request
      in
      let baseline = (Engine.respond ses request).Engine.ranked in
      let emitted = List.rev !emitted in
      let revisions_monotone =
        fst
          (List.fold_left
             (fun (ok, prev) (c : Engine.candidate) ->
               (ok && c.Engine.revision > prev, c.Engine.revision))
             (true, 0) emitted)
      in
      o.Engine.ranked = baseline
      && revisions_monotone
      && List.for_all
           (fun (c : Engine.candidate) ->
             c.Engine.rank >= 1 && c.Engine.rank <= k)
           emitted
      && (baseline = [] || emitted <> []))

(* Tree2expr parses whatever it prints (beyond the unit cases). *)
let expr_gen =
  let open QCheck.Gen in
  let api = oneofl [ "A"; "Bb"; "Ccc"; "hasName"; "STRING" ] in
  let lit = opt (oneofl [ "x"; "14"; ":"; "a b" ]) in
  fix (fun self depth ->
      if depth = 0 then
        map2 (fun api lit -> { Tree2expr.api; lit; args = [] }) api lit
      else
        map3
          (fun api lit args -> { Tree2expr.api; lit; args })
          api lit
          (list_size (0 -- 3) (self (depth - 1))))
    2

let prop_expr_print_parse =
  QCheck.Test.make ~name:"expr print/parse round-trip" ~count:300
    (QCheck.make expr_gen) (fun e ->
      match Tree2expr.parse (Tree2expr.to_string e) with
      | Ok e' -> Tree2expr.equal e e'
      | Error _ -> false)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_path_well_formed;
      prop_path_well_formed_random;
      prop_path_well_formed_builtin;
      prop_path_simple;
      prop_path_distinct;
      prop_sprune_bounds_sound;
      prop_gprune_lossless;
      prop_gprune_word_boundaries;
      prop_cgt_merge_acI;
      prop_cgt_matches_sets;
      prop_injective_matches_table;
      prop_cgt_tree_check;
      prop_engine_deterministic;
      prop_stream_equivalent;
      prop_expr_print_parse;
    ]
  @ [
      Alcotest.test_case
        "grammar pruning = pairwise filter on query governors (sampled; \
         DGGT_GOLDEN_FULL=1 for all)"
        `Quick test_gprune_query_governors;
      Alcotest.test_case "tree-check generator covers every shape" `Quick
        test_cgt_shapes_covered;
    ]
