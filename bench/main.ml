(* The benchmark targets: every table and figure of the paper's evaluation
   (Tables I-III, Figures 7-8), the optimization ablation, the per-stage
   breakdown, Bechamel microbenchmarks, and the identity and throughput
   sweeps that write the BENCH_*.json ledgers.

     dune exec bench/main.exe -- [--timeout S] [--limit N] [TARGET...]

   --timeout is the per-query budget: 20 s by default, the paper's
   protocol. This substrate is much faster than the authors' testbed, so
   --timeout 2 produces the same shape in a tenth of the wall-clock time.
   --limit N runs the first N queries of each domain (the served targets
   warmstart, stream and shard skip the hard ones first); each target's
   default is in brackets:

     table1       Table I: domain statistics                     [-]
     table2       Table II: speedup and accuracy against HISyn   [all]
     table3       Table III: optimization breakdown, hard cases  [all]
     fig7, fig8   Figures 7-8: time distribution, accumulation   [all]
     ablation     DGGT with each optimization disabled           [all]
     stages       per-stage latency                              [all]
     micro        Bechamel stage microbenchmarks                 [-]
     parallel     batch queries/s over 1-8 pool workers          [all]
     automaton    reference DFS vs compiled automaton            [all]
     pathmerge    reference walk vs semiring PathMerge           [all]
     incremental  as-you-type sessions vs from scratch           [8]
     warmstart    cold vs warm --store boot                      [6]
     stream       SSE time to first candidate                    [6]
     shard        2-shard router vs one process                  [4]
     all          table1 .. stages, then micro (the default)

   The last seven write BENCH_<target>.json into the current directory
   (Harness.ledger). A failed check prints its reason, and the run exits
   1 once every target ran; an unknown target exits 2 before any runs. *)

open Dggt_core
open Dggt_domains
open Dggt_eval
module J = Dggt_server.Jsonio
module Serve = Dggt_server.Serve
module H = Harness

let fmt = Format.std_formatter
let int = H.int

let progress label i n =
  if i mod 25 = 0 || i = n then Format.eprintf "    [%s %d/%d]@." label i n

let comparisons = Hashtbl.create 2

(* Table II, Fig 7 and Fig 8 share the expensive HISyn-vs-DGGT runs. *)
let comparison ~timeout_s ~limit (dom : Domain.t) =
  match Hashtbl.find_opt comparisons dom.Domain.name with
  | Some c -> c
  | None ->
      Format.eprintf "  running %s (timeout %.0f s)...@." dom.Domain.name timeout_s;
      let c =
        Report.compare_domain ~timeout_s
          ~progress:(fun l i n -> progress (dom.Domain.name ^ "/" ^ l) i n)
          (H.restrict limit dom)
      in
      Hashtbl.replace comparisons dom.Domain.name c;
      c

let run_table1 ~timeout_s:_ ~limit:_ =
  H.rule ();
  Report.table1 fmt

let run_table2 ~timeout_s ~limit =
  H.rule ();
  Report.table2 fmt
    (List.map (comparison ~timeout_s ~limit) [ Astmatcher.domain; Text_editing.domain ])

let run_table3 ~timeout_s:_ ~limit =
  H.rule ();
  Report.table3 fmt (H.restrict limit Text_editing.domain);
  Format.fprintf fmt "@.";
  Report.table3 fmt (H.restrict limit Astmatcher.domain)

let run_fig7 ~timeout_s ~limit =
  H.rule ();
  List.iter
    (fun d -> Report.fig7 fmt (comparison ~timeout_s ~limit d))
    [ Astmatcher.domain; Text_editing.domain ]

let run_fig8 ~timeout_s ~limit =
  H.rule ();
  List.iter
    (fun d -> Report.fig8 fmt (comparison ~timeout_s ~limit d))
    [ Astmatcher.domain; Text_editing.domain ]

let run_ablation ~timeout_s ~limit =
  H.rule ();
  (* the no-relocation variant re-inherits the baseline's path blow-up;
     cap its budget so the ablation stays affordable *)
  let timeout_s = Float.min timeout_s 3.0 in
  Report.ablation fmt ~timeout_s (H.restrict limit Text_editing.domain);
  Format.fprintf fmt "@.";
  Report.ablation fmt ~timeout_s (H.restrict limit Astmatcher.domain)

let run_stages ~timeout_s ~limit =
  H.rule ();
  Report.stage_table fmt ~timeout_s (H.restrict limit Text_editing.domain);
  Format.fprintf fmt "@.";
  Report.stage_table fmt ~timeout_s (H.restrict limit Astmatcher.domain)

(* ------------------------------------------------------------------ *)
(* Batch-parallel sweep: whole queries fanned out over a worker pool  *)
(* (queries/sec vs worker count), plus the byte-identity check the    *)
(* determinism claim rests on. Intra-query fan-out is gone — the      *)
(* measured 0.6-0.9x "speedup" of per-pair searches killed it — so    *)
(* this sweep measures the knob that actually scales: concurrency     *)
(* across queries.                                                    *)
(* ------------------------------------------------------------------ *)

(* spin up a whole-query fan-out pool for [f]'s lifetime (1 = sequential,
   no pool) *)
let with_pool workers f =
  if workers > 1 then
    let pool = Dggt_par.Pool.create ~workers () in
    Fun.protect
      ~finally:(fun () -> Dggt_par.Pool.shutdown pool)
      (fun () -> f (Some pool))
  else f None

let run_parallel ~timeout_s ~limit =
  let method_ =
    "Batch throughput: whole queries fanned out over a Dggt_par worker pool \
     at 1, 2, 4 and 8 workers, each count on a fresh automaton compiled \
     before the clock starts; 'identical' = codelets byte-equal to the \
     1-worker run, pairs where either side timed out skipped and counted"
  in
  H.heading method_;
  let domain (dom : Domain.t) =
    let dom = H.restrict limit dom in
    Format.eprintf "  sweeping %s...@." dom.Domain.name;
    let run_at w =
      let dom =
        {
          dom with
          Domain.autom =
            Lazy.from_val (Dggt_autom.Autom.compile (Lazy.force dom.Domain.graph));
        }
      in
      with_pool w (fun pool ->
          H.timed (fun () ->
              Runner.run_domain ~timeout_s ?pool
                ~progress:(fun i n ->
                  progress (Printf.sprintf "%s x%d" dom.Domain.name w) i n)
                dom Engine.Dggt_alg))
    in
    let base, base_wall = run_at 1 in
    let nq = List.length base.Runner.results in
    let point w =
      let r, wall = if w = 1 then (base, base_wall) else run_at w in
      (* wall-clock timeouts are scheduling-dependent under contention (on
         a 1-core host every extra worker steals time from every query) *)
      let skips = ref 0 and before = H.failed () in
      let divergence (a : Engine.outcome) (b : Engine.outcome) =
        if a.Engine.code = b.Engine.code then None
        else Some (Printf.sprintf "codelet at %d workers" w)
      in
      List.iter2
        (fun (a : Runner.qresult) (b : Runner.qresult) ->
          H.check_pair ~divergence ~skips ~domain:dom.Domain.name
            ~text:a.Runner.query.Domain.text a.Runner.outcome b.Runner.outcome)
        base.Runner.results r.Runner.results;
      J.Obj
        [
          ("workers", int w);
          ("wall_s", J.Num wall);
          ("queries_per_s", J.Num (float_of_int nq /. Float.max wall 1e-9));
          ("speedup", J.Num (base_wall /. Float.max wall 1e-9));
          ("codelets_identical", J.Bool (H.failed () = before));
          ("timeout_skips", int !skips);
        ]
    in
    let sweep = List.map point [ 1; 2; 4; 8 ] in
    Format.fprintf fmt "%s: %d queries@.@." dom.Domain.name nq;
    H.table
      [
        H.int_col "workers" "workers";
        H.col "wall (s)" "wall_s";
        H.col ~fmt:"%.1f" "queries/s" "queries_per_s";
        H.col ~fmt:"%.2fx" "speedup" "speedup";
        H.col "identical" "codelets_identical";
        H.int_col "skips" "timeout_skips";
      ]
      sweep;
    J.Obj [ ("name", J.Str dom.Domain.name); ("queries", int nq); ("sweep", J.Arr sweep) ]
  in
  let rows = List.map domain [ Astmatcher.domain; Text_editing.domain ] in
  H.ledger ~bench:"parallel" ~method_ ~timeout_s ~limit [ ("domains", J.Arr rows) ]

(* ------------------------------------------------------------------ *)
(* Incremental sessions: replay each query as an as-you-type edit     *)
(* sequence, full-vs-incremental per revision, with the equivalence   *)
(* assertion the subsystem's guarantee rests on.                      *)
(* ------------------------------------------------------------------ *)

let run_incremental ~timeout_s ~limit =
  let depth = 4 in
  let method_ =
    Printf.sprintf
      "Incremental sessions: each query replayed as an as-you-type edit \
       sequence (the last %d word-appends plus a punctuation-only \
       revision); every revision byte-equivalent to a from-scratch run, \
       timeouts skipped; appends must run fewer EdgeToPath searches than \
       from scratch"
      depth
  in
  H.heading method_;
  let domain (dom : Domain.t) =
    Format.eprintf "  replaying %s edit sequences...@." dom.Domain.name;
    let base = H.session ~timeout_s dom in
    (* from-scratch runs count their EdgeToPath searches through a
       transparent hook: increment, then compute — the result bytes can't
       change *)
    let searches = ref 0 in
    let scratch =
      H.session ~timeout_s dom
        ~caches:
          {
            Engine.word2api = None;
            edge2path =
              Some
                (fun ~src:_ ~dst:_ compute ->
                  incr searches;
                  compute ());
          }
    in
    let qs = H.queries limit dom in
    let revisions = ref 0 and appends = ref 0 and splices = ref 0 in
    let full_s = ref 0.0 and inc_s = ref 0.0 in
    let full_n = ref 0 and inc_n = ref 0 and app_full_n = ref 0 and app_inc_n = ref 0 in
    let skips = ref 0 and before = H.failed () in
    List.iter
      (fun (q : Domain.query) ->
        let inc = Dggt_inc.Session.create base in
        List.iter
          (fun (text, is_append) ->
            let (o_inc, reuse), t_inc =
              H.timed (fun () -> Dggt_inc.Session.query inc text)
            in
            searches := 0;
            let o_full, t_full = H.timed (fun () -> H.respond scratch Engine.Plain text) in
            let n_inc = reuse.Dggt_inc.Reuse.pairs.Dggt_inc.Reuse.computed in
            H.check_pair ~skips ~domain:dom.Domain.name ~text o_full o_inc;
            incr revisions;
            if reuse.Dggt_inc.Reuse.splice then incr splices;
            if is_append then begin
              incr appends;
              app_full_n := !app_full_n + !searches;
              app_inc_n := !app_inc_n + n_inc
            end;
            full_s := !full_s +. t_full;
            inc_s := !inc_s +. t_inc;
            full_n := !full_n + !searches;
            inc_n := !inc_n + n_inc)
          (H.edit_script ~depth q.Domain.text))
      qs;
    (* equivalence is the per-revision checks alone, not the reuse gate *)
    let equivalent = H.failed () = before in
    (* the whole point of the session: appending a word must search less
       than starting over *)
    if !appends > 0 && !app_inc_n >= !app_full_n then
      H.fail
        "REUSE REGRESSION (%s): %d incremental vs %d full searches over %d \
         append-one-word revisions"
        dom.Domain.name !app_inc_n !app_full_n !appends;
    J.Obj
      [
        ("name", J.Str dom.Domain.name);
        ("queries", int (List.length qs));
        ("revisions", int !revisions);
        ("append_revisions", int !appends);
        ("splices", int !splices);
        ("full_s", J.Num !full_s);
        ("incremental_s", J.Num !inc_s);
        ("speedup", J.Num (!full_s /. Float.max !inc_s 1e-9));
        ("full_searches", int !full_n);
        ("incremental_searches", int !inc_n);
        ("append_full_searches", int !app_full_n);
        ("append_incremental_searches", int !app_inc_n);
        ("timeout_skips", int !skips);
        ("equivalent", J.Bool equivalent);
      ]
  in
  let rows = List.map domain [ Text_editing.domain; Astmatcher.domain ] in
  H.table
    [
      H.col "domain" "name";
      H.int_col "revs" "revisions";
      H.int_col "spl" "splices";
      H.col "full(s)" "full_s";
      H.col "inc(s)" "incremental_s";
      H.col ~fmt:"%.2fx" "speedup" "speedup";
      H.col "equal" "equivalent";
      H.int_col "srch-full" "full_searches";
      H.int_col "srch-inc" "incremental_searches";
      H.int_col "skip" "timeout_skips";
    ]
    rows;
  H.ledger ~bench:"incremental" ~method_ ~timeout_s ~limit [ ("domains", J.Arr rows) ]

(* ------------------------------------------------------------------ *)
(* Compiled automaton: DFS vs table-walk EdgeToPath over every domain *)
(* (built-ins plus each pack under examples/packs), byte-identity     *)
(* asserted per query, speedup measured on the dominated subset.      *)
(* ------------------------------------------------------------------ *)

(* DFS and table-walk passes per domain, run alternately. The speed gate
   compares each side's fastest pass, so one host stall during a pass
   cannot decide it. *)
let automaton_rounds = 3

let e2p_of (q : Runner.qresult) =
  Option.value (List.assoc_opt "EdgeToPath" q.Runner.stage_s) ~default:0.0

let edge2path_share (q : Runner.qresult) =
  let total = List.fold_left (fun a (_, d) -> a +. d) 0.0 q.Runner.stage_s in
  if total > 0.0 then e2p_of q /. total else 0.0

(* which queries does EdgeToPath dominate? decided on the DFS run: the
   >=50% bar when any query crosses it, else the ten highest-share
   queries (on a fast substrate the search is a small pipeline slice) *)
let dominated_subset results =
  let shares = List.map edge2path_share results in
  if List.exists (fun s -> s >= 0.5) shares then
    (List.map (fun s -> s >= 0.5) shares, "share>=0.5")
  else
    let ranked =
      List.mapi (fun i s -> (s, i)) shares
      |> List.sort (fun (a, _) (b, _) -> compare b a)
    in
    let top =
      List.filteri (fun rank _ -> rank < 10) ranked
      |> List.map snd |> List.sort_uniq compare
    in
    (List.mapi (fun i _ -> List.mem i top) shares, "top10-share")

let run_automaton_domain ~timeout_s ~limit (dom : Domain.t) =
  let dom = H.restrict limit dom in
  let name = dom.Domain.name in
  let nq = List.length dom.Domain.queries in
  Format.eprintf "  %s: DFS vs automaton (%d queries)...@." name nq;
  let run ?caches (dom : Domain.t) tag =
    Runner.run_domain ~timeout_s ?caches ~stage_timing:true
      ~progress:(fun i n -> progress (name ^ "/" ^ tag) i n)
      dom Engine.Dggt_alg
  in
  (* the reference side answers every EdgeToPath search with the frozen
     DFS through the engine's edge2path hook (checked below: the domain's
     own automaton, which only this side carries, must end the sweep
     unsearched) *)
  let dfs () = run ~caches:(Refgpath.lookups dom) dom "dfs" in
  (* every round compiles a fresh automaton, so its path memo starts cold
     in each of its passes *)
  let round dfs_first =
    let tw () =
      let autom = Dggt_autom.Autom.compile (Lazy.force dom.Domain.graph) in
      (autom, run { dom with Domain.autom = Lazy.from_val autom } "autom")
    in
    if dfs_first then
      let dfs = dfs () in
      let autom, tw = tw () in
      (dfs, autom, tw)
    else
      let autom, tw = tw () in
      (dfs (), autom, tw)
  in
  let dfs_first i = i mod 2 = 0 in
  let before = H.failed () in
  let passes = List.init automaton_rounds (fun i -> round (dfs_first i)) in
  let first_dfs, first_autom, _ = List.hd passes in
  (* the subset is decided on the first DFS pass and held for all *)
  let dominated, rule = dominated_subset first_dfs.Runner.results in
  let measure (r : Runner.run) =
    let sum f = List.fold_left2 (fun a keep q -> a +. f keep q) 0.0 dominated r.Runner.results in
    J.Obj
      [
        ("total_s", J.Num (sum (fun _ q -> q.Runner.outcome.Engine.time_s)));
        ("edge2path_s", J.Num (sum (fun _ q -> e2p_of q)));
        ("dominated_edge2path_s", J.Num (sum (fun keep q -> if keep then e2p_of q else 0.0)));
      ]
  in
  (* per-query byte-identity of every round's two passes *)
  let rounds =
    List.mapi
      (fun i (dfs, autom, tw) ->
        let skips = ref 0 in
        List.iter2
          (fun (a : Runner.qresult) (b : Runner.qresult) ->
            H.check_pair ~skips ~domain:name ~text:a.Runner.query.Domain.text
              a.Runner.outcome b.Runner.outcome)
          dfs.Runner.results tw.Runner.results;
        J.Obj
          [
            ("first", J.Str (if dfs_first i then "dfs" else "automaton"));
            ("compile_s", J.Num (Dggt_autom.Autom.compile_time_s autom));
            ("dfs", measure dfs);
            ("automaton", measure tw);
            ("timeout_skips", int !skips);
          ])
      passes
  in
  (let { Dggt_autom.Autom.hits; misses; _ } =
     Dggt_autom.Autom.memo_counters (Lazy.force dom.Domain.autom)
   in
   if hits + misses > 0 then
     H.fail "EQUIVALENCE VIOLATION (%s): %d reference searches bypassed the edge2path hook"
       name (hits + misses));
  (* identity is the outcome and hook checks alone, not the speed gate *)
  let identical = H.failed () = before in
  let dom_e2p = H.num "dominated_edge2path_s" in
  let fastest side =
    List.fold_left
      (fun best r -> if dom_e2p (side r) < dom_e2p best then side r else best)
      (side (List.hd rounds)) rounds
  in
  let side k r = Option.get (J.member k r) in
  let dfs = fastest (side "dfs") and tw = fastest (side "automaton") in
  let ratio key = J.Num (H.num key dfs /. Float.max (H.num key tw) 1e-9) in
  let memo = Dggt_autom.Autom.memo_counters first_autom in
  (* on the search-bound domain the table walk's fastest pass must beat
     the DFS's fastest where the DFS actually spends its time *)
  if String.lowercase_ascii name = "astmatcher" && dom_e2p tw >= dom_e2p dfs then
    H.fail
      "AUTOMATON REGRESSION (%s): table walk %.3fs not faster than DFS %.3fs \
       on the EdgeToPath-dominated subset"
      name (dom_e2p tw) (dom_e2p dfs);
  J.Obj
    [
      ("name", J.Str name);
      ("queries", int nq);
      ("edge2path_dominated", int (List.length (List.filter Fun.id dominated)));
      ("dominated_rule", J.Str rule);
      ( "compile_s",
        J.Num (List.fold_left (fun m r -> Float.min m (H.num "compile_s" r)) infinity rounds) );
      ("digest", J.Str (Dggt_autom.Autom.digest first_autom));
      ("dfs", dfs);
      ("automaton", tw);
      ("rounds", J.Arr rounds);
      ("edge2path_speedup", ratio "edge2path_s");
      ("dominated_speedup", ratio "dominated_edge2path_s");
      ( "memo",
        J.Obj
          [
            ("hits", int memo.Dggt_autom.Autom.hits);
            ("misses", int memo.Dggt_autom.Autom.misses);
            ("entries", int memo.Dggt_autom.Autom.entries);
            ("words", int (Dggt_autom.Autom.memo_words first_autom));
          ] );
      ( "timeout_skips",
        int (List.fold_left (fun m r -> max m (int_of_float (H.num "timeout_skips" r))) 0 rounds) );
      ("identical", J.Bool identical);
    ]

(* every domain the automaton must hold for: the built-ins plus whatever
   example packs ship in the repo *)
let automaton_domains () =
  let packs =
    let dir = "examples/packs" in
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter_map (fun sub ->
             let p = Filename.concat dir sub in
             if
               Sys.is_directory p
               && Sys.file_exists
                    (Filename.concat p Dggt_domains.Pack.manifest_name)
             then
               match Dggt_pack.Loader.load p with
               | Ok l -> Some l.Dggt_pack.Loader.domain
               | Error e ->
                   Format.eprintf "  skipping %s: %s@." p
                     (Dggt_domains.Err.to_string e);
                   None
             else None)
    else []
  in
  (* packs exported from the built-ins shadow them by name, like the
     registry: no domain is measured twice *)
  let taken =
    List.map (fun (d : Domain.t) -> String.lowercase_ascii d.Domain.name) packs
  in
  List.filter
    (fun (d : Domain.t) ->
      not (List.mem (String.lowercase_ascii d.Domain.name) taken))
    [ Astmatcher.domain; Text_editing.domain ]
  @ packs

let run_automaton ~timeout_s ~limit =
  let method_ =
    Printf.sprintf
      "Compiled automaton: EdgeToPath as the reference per-query DFS \
       (Refgpath, through the edge2path hook) vs precompiled state tables \
       over every domain (built-ins + examples/packs/*), stage tracing on in \
       both runs; %d alternating rounds, a fresh automaton each, times from \
       each side's fastest pass on the EdgeToPath-dominated subset; \
       'identical' = outcomes byte-equal per query in every round, timeouts \
       skipped"
      automaton_rounds
  in
  H.heading method_;
  let rows = List.map (run_automaton_domain ~timeout_s ~limit) (automaton_domains ()) in
  H.table
    [
      H.col "domain" "name";
      H.int_col "q" "queries";
      H.int_col "dom" "edge2path_dominated";
      H.col ~fmt:"%.1fms" ~scale:1000. "compile" "compile_s";
      H.col ~fmt:"%.3fs" "e2p-dfs" "dfs.edge2path_s";
      H.col ~fmt:"%.3fs" "e2p-tw" "automaton.edge2path_s";
      H.col ~fmt:"%.2fx" "speedup" "edge2path_speedup";
      H.col ~fmt:"%.2fx" "dom-spd" "dominated_speedup";
      H.int_col "memo" "memo.entries";
      H.col ~fmt:"%.1f" ~scale:0.001 "memo-kw" "memo.words";
      H.col "ident" "identical";
    ]
    rows;
  H.ledger ~bench:"automaton" ~method_ ~timeout_s ~limit [ ("domains", J.Arr rows) ]

(* ------------------------------------------------------------------ *)
(* Semiring PathMerge: the pre-semiring DFS-of-record walk (kept as   *)
(* Dggt_eval.Refmerge, on the pairwise-table pruning and quadratic    *)
(* tree check it was written with) vs the production Min_size chart   *)
(* over every domain, byte-identity asserted per query — outcome,     *)
(* failure and statistics alike — plus ranked-mode (Top_k) timing and *)
(* head agreement. The same domain sweep as the automaton gate.       *)
(* ------------------------------------------------------------------ *)

let run_pathmerge_domain ~timeout_s ~limit (dom : Domain.t) =
  let qs = H.queries limit dom in
  let name = dom.Domain.name and nq = List.length qs in
  Format.eprintf "  %s: reference vs semiring PathMerge (%d queries)...@." name nq;
  let ses = H.session ~timeout_s dom in
  let k = 5 in
  let ref_s = ref 0.0 and sem_s = ref 0.0 and sem_words = ref 0.0 in
  let ranked_s = ref 0.0 and ranked_words = ref 0.0 and ranked_nonempty = ref 0 in
  let skips = ref 0 and before = H.failed () in
  List.iteri
    (fun i (q : Domain.query) ->
      let text = q.Domain.text in
      progress (name ^ "/pathmerge") (i + 1) nq;
      (* minor words around the engine calls alone: the same code
         allocates the same count on every run *)
      let w0 = Gc.minor_words () in
      let o_sem = H.respond ses Engine.Plain text in
      sem_words := !sem_words +. (Gc.minor_words () -. w0);
      let o_ref =
        Engine.synthesize_with_merge ~merge:Refmerge.synthesize ses.Engine.cfg
          ses.Engine.target text
      in
      sem_s := !sem_s +. o_sem.Engine.time_s;
      ref_s := !ref_s +. o_ref.Engine.time_s;
      let skipped = !skips in
      H.check_pair ~skips ~domain:name ~text o_ref o_sem;
      if !skips = skipped then begin
        let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
        let rk = (H.respond ses (Engine.Ranked k) text).Engine.ranked in
        ranked_words := !ranked_words +. (Gc.minor_words () -. w0);
        ranked_s := !ranked_s +. (Unix.gettimeofday () -. t0);
        if rk <> [] then begin
          incr ranked_nonempty;
          (* the n-best head must be the Min_size codelet *)
          match o_sem.Engine.code with
          | Some c when (List.hd rk).Engine.code <> c ->
              H.diverged ~domain:name ~text "ranked-head"
          | _ -> ()
        end
      end)
    qs;
  J.Obj
    [
      ("name", J.Str name);
      ("queries", int nq);
      ("reference_s", J.Num !ref_s);
      ("semiring_s", J.Num !sem_s);
      ("semiring_minor_words", J.Num !sem_words);
      ("overhead", J.Num (!sem_s /. Float.max !ref_s 1e-9));
      ("ranked_k", int k);
      ("ranked_s", J.Num !ranked_s);
      ("ranked_minor_words", J.Num !ranked_words);
      ("ranked_nonempty", int !ranked_nonempty);
      ("timeout_skips", int !skips);
      ("identical", J.Bool (H.failed () = before));
    ]

let run_pathmerge ~timeout_s ~limit =
  let method_ =
    "Semiring PathMerge: the reference DFS-of-record walk vs the generic \
     Min_size chart over every domain (built-ins + examples/packs/*); \
     'identical' = outcomes byte-equal per query including stats, timeouts \
     skipped; ranked = a Ranked 5 respond under Top_k, whose head must be \
     the Min_size codelet; minor words summed over the engine calls alone"
  in
  H.heading method_;
  let rows = List.map (run_pathmerge_domain ~timeout_s ~limit) (automaton_domains ()) in
  H.table
    [
      H.col "domain" "name";
      H.int_col "q" "queries";
      H.col ~fmt:"%.3fs" "reference" "reference_s";
      H.col ~fmt:"%.3fs" "semiring" "semiring_s";
      H.col ~fmt:"%.2fx" "overhead" "overhead";
      H.col ~fmt:"%.3fs" "ranked" "ranked_s";
      H.int_col "n-best" "ranked_nonempty";
      H.col ~fmt:"%.0f" ~scale:0.001 "sem kw" "semiring_minor_words";
      H.col ~fmt:"%.0f" ~scale:0.001 "ranked kw" "ranked_minor_words";
      H.col "ident" "identical";
    ]
    rows;
  H.ledger ~bench:"pathmerge" ~method_ ~timeout_s ~limit [ ("domains", J.Arr rows) ]

(* ------------------------------------------------------------------ *)
(* Warm-start store: cold vs warm server boot over a loopback socket. *)
(* Phase 1 boots with an empty --store, serves every query (checked   *)
(* against a local Engine.respond baseline), replays them as cache    *)
(* hits, and shuts down (spilling the caches' snapshot). Phase 2      *)
(* boots the same store: /metrics must show the snapshot replayed,    *)
(* each domain's first request must already hit, and every            *)
(* warm-served response must be byte-identical to the cold            *)
(* (fresh-synthesis) one on the deterministic fields.                 *)
(* ------------------------------------------------------------------ *)

module Hist = Dggt_server.Smetrics.Hist

let served_domains = [ Text_editing.domain; Astmatcher.domain ]

let run_warmstart ~timeout_s ~limit =
  let method_ =
    "Warm-start store: a cold boot with an empty --store, then a warm boot \
     of the same store (spilled at shutdown only), both domains; cold \
     answers must match a local Engine run, warm ones must be cache hits \
     byte-identical to the cold run on the deterministic fields; \
     first_answer_s timed per domain from the start of Serve.create"
  in
  H.heading method_;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dggt-warmstart-%d" (Unix.getpid ()))
  in
  let wipe () =
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  in
  (* fresh store: wipe any leftover from a crashed earlier run *)
  wipe ();
  let tweak p =
    { p with Serve.store_dir = Some dir; store_interval_s = 0.0 (* deterministic *) }
  in
  let picked d = H.queries ~skip_hard:true limit d in
  Format.eprintf "  local baselines...@.";
  let items =
    List.concat_map
      (fun (d : Domain.t) ->
        let ses = H.session ~timeout_s d in
        List.map
          (fun (q : Domain.query) ->
            let text = q.Domain.text in
            (d.Domain.name, text, (H.respond ses Engine.Plain text).Engine.code))
          (picked d))
      served_domains
  in
  let post ~port ~domain ~text =
    let body = H.query_body ~timeout_s ~domain text in
    match H.http ~port ~meth:"POST" ~path:"/synthesize" ~body () with
    | 200, b -> (
        match J.of_string b with
        | Ok j -> Some j
        | Error e ->
            H.fail "bad JSON for %S: %s" text e;
            None)
    | st, _ ->
        H.fail "POST /synthesize -> %d for %S" st text;
        None
  in
  let cached j = J.bool_field "cached" j = Some true in
  (* boot a server on the store and time each domain's first answer from
     the start of Serve.create: the server listens before it builds, and
     each domain answers once its own state is built; a warm boot's first
     answers must be hits *)
  let boot ~warm =
    Format.eprintf "  %s boot...@." (if warm then "warm" else "cold");
    let t0 = Unix.gettimeofday () in
    let srv, port = H.serve ~tweak ~timeout_s () in
    let create_s = Unix.gettimeofday () -. t0 in
    let firsts =
      List.concat_map
        (fun (d : Domain.t) ->
          match picked d with
          | [] -> []
          | q :: _ ->
              let domain = d.Domain.name and text = q.Domain.text in
              (match post ~port ~domain ~text with
              | Some j when warm && not (cached j) ->
                  H.fail "warm first request %S missed the cache" text
              | _ -> ());
              [ (domain, Unix.gettimeofday () -. t0) ])
        served_domains
    in
    (srv, port, t0, create_s, firsts)
  in
  (* every primed query again, timed; [check] sees each answer *)
  let replay ~port expected check =
    let h = Hist.create () in
    List.iter
      (fun (domain, text, cold) ->
        let j, t = H.timed (fun () -> post ~port ~domain ~text) in
        Hist.observe h t;
        Option.iter (check text cold) j)
      expected;
    h
  in
  let phase name ~create_s ~firsts ~first_hit_s h =
    let ms q = J.Num (1000. *. q) in
    J.Obj
      [
        ("phase", J.Str name);
        ("create_s", J.Num create_s);
        ("first_answer_s", J.Obj (List.map (fun (d, s) -> (d, J.Num s)) firsts));
        ("first_hit_s", J.Num first_hit_s);
        ("replay_p50_ms", ms (Hist.quantile h 0.5));
        ("replay_p99_ms", ms (Hist.quantile h 0.99));
        ("replay_max_ms", ms (Hist.max_value h));
      ]
  in
  let before = H.failed () in
  (* ---- cold: prime every query once, checked against the engine
     baseline; timeouts are never cached, so they leave the replay ---- *)
  let srv, port, t0, create_s, firsts = boot ~warm:false in
  let expected =
    List.filter_map
      (fun (domain, text, code) ->
        match post ~port ~domain ~text with
        | Some j when J.bool_field "timed_out" j = Some true ->
            Format.eprintf "    (timeout on %S, excluded)@." text;
            None
        | Some j ->
            if J.str_field "code" j <> code then
              H.fail "cold answer diverges from Engine.respond on %S" text;
            Some (domain, text, j)
        | None -> None)
      items
  in
  (* first hit: the first primed query served from the whole-query cache *)
  (match expected with
  | (domain, text, _) :: _ -> (
      match post ~port ~domain ~text with
      | Some j when not (cached j) -> H.fail "cold repeat of %S was not a cache hit" text
      | _ -> ())
  | [] -> H.fail "every query timed out; nothing to persist");
  let first_hit_s = Unix.gettimeofday () -. t0 in
  let h = replay ~port expected (fun _ _ _ -> ()) in
  Serve.stop srv (* graceful: spills the caches' snapshot *);
  let cold = phase "cold" ~create_s ~firsts ~first_hit_s h in
  (* ---- warm: the same store; the first request already had to hit ---- *)
  let srv, port, _, create_s, firsts = boot ~warm:true in
  if
    H.metric_value "dggt_store_records_loaded_total"
      (snd (H.http ~port ~meth:"GET" ~path:"/metrics" ()))
    <> Some 1
  then H.fail "warm boot did not replay the store's snapshot";
  let h =
    replay ~port expected (fun text cold j ->
        if not (cached j) then H.fail "warm replay of %S missed the cache" text;
        match H.fields_diff cold j with
        | [] -> ()
        | ds -> H.fail "WARM DIVERGENCE on %S: %s differ" text (String.concat ", " ds))
  in
  Serve.stop srv;
  let first_hit_s = match firsts with (_, s) :: _ -> s | [] -> Float.nan in
  let phases = [ cold; phase "warm" ~create_s ~firsts ~first_hit_s h ] in
  H.table
    ([
       H.col "phase" "phase";
       H.col "boot(s)" "create_s";
       H.col "first-hit(s)" "first_hit_s";
       H.col ~fmt:"%.2f ms" "replay p50" "replay_p50_ms";
       H.col ~fmt:"%.2f ms" "replay p99" "replay_p99_ms";
     ]
    @ List.map
        (fun (d : Domain.t) ->
          H.col (d.Domain.name ^ " first(s)") ("first_answer_s." ^ d.Domain.name))
        served_domains)
    phases;
  H.ledger ~bench:"warmstart" ~method_ ~timeout_s ~limit
    [
      ("queries", int (List.length expected));
      ("phases", J.Arr phases);
      ("identical", J.Bool (H.failed () = before));
    ];
  (* leave no temp store behind *)
  try
    wipe ();
    Unix.rmdir dir
  with Sys_error _ | Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Streaming rank: time-to-first-candidate vs full-search latency     *)
(* over a live SSE stream (/rank?stream=1), plus the byte-identity    *)
(* gate — the terminal [event: done] frame must carry exactly the     *)
(* non-streaming /rank body, and its ranked list must match a local   *)
(* Engine ranked run. Both times are the server's, from the stream's  *)
(* trace span: a client on the same host may not be scheduled between *)
(* two frame writes a fraction of a millisecond apart, and then reads *)
(* both frames at once.                                               *)
(* ------------------------------------------------------------------ *)

(* the newest trace's [Stream] span notes as [(candidates, ttfc_s,
   done_s)], or an error; the stream bench's server keeps one trace, the
   stream it just read *)
let stream_span ~port text =
  let _, body = H.http ~port ~meth:"GET" ~path:"/debug/trace" () in
  let notes ev =
    match J.member "notes" ev with
    | Some (J.Arr ns) ->
        List.filter_map
          (fun n ->
            match (J.str_field "key" n, J.num_field "value" n) with
            | Some k, Some v -> Some (k, v)
            | _ -> None)
          ns
    | _ -> []
  in
  match J.of_string body with
  | Error e -> Error e
  | Ok j -> (
      match J.member "traces" j with
      | Some (J.Arr (tr :: _)) when J.str_field "query" tr = Some text -> (
          let stream =
            match J.member "events" tr with
            | Some (J.Arr evs) ->
                List.find_opt (fun ev -> J.str_field "stage" ev = Some "Stream") evs
            | _ -> None
          in
          match Option.map notes stream with
          | Some ns -> (
              match (List.assoc_opt "candidates" ns, List.assoc_opt "done_s" ns) with
              | Some c, Some d -> Ok (int_of_float c, List.assoc_opt "ttfc_s" ns, d)
              | _ -> Error "Stream span without candidates/done_s notes")
          | None -> Error "newest trace has no Stream span")
      | _ -> Error "newest trace is not this stream's")

let run_stream ~timeout_s ~limit =
  let k = 5 in
  let method_ =
    "Streaming rank: time to first candidate vs full-search latency over \
     /rank?stream=1 at k = 5, both domains, timed when the server produced \
     each frame (its Stream span); every stream must carry at least one \
     candidate frame, strictly monotone revisions, a first candidate \
     produced strictly before its done frame, and a done frame \
     byte-identical to the non-streaming /rank body and to a local Engine \
     ranked run"
  in
  H.heading method_;
  let srv, port = H.serve ~timeout_s ~tweak:(fun p -> { p with Serve.trace_buffer = 1 }) () in
  let before = H.failed () in
  let row (d : Domain.t) ses (q : Domain.query) =
    let text = q.Domain.text in
    let body = H.query_body ~k ~timeout_s ~domain:d.Domain.name text in
    (* 1. streamed request, then when the server produced its frames *)
    let status, frames = H.stream ~port ~path:"/rank?stream=1" ~body in
    if status <> 200 then H.fail "stream /rank -> %d for %S" status text;
    let parsed = List.filter_map H.sse_event frames in
    if List.length parsed <> List.length frames then
      H.fail "unparseable SSE frame for %S" text;
    let events e = List.filter (fun (e', _) -> e' = e) parsed in
    let cands = events "candidate" in
    (match events "error" with
    | [] -> ()
    | (_, d_) :: _ -> H.fail "stream error frame for %S: %s" text d_);
    let ttfc, done_t =
      match stream_span ~port text with
      | Ok (sent, ttfc, done_t) ->
          if sent <> List.length cands then
            H.fail "%d candidate frames received, the server sent %d on %S"
              (List.length cands) sent text;
          (* the gate per query: a first candidate exists and was
             produced strictly before the done frame *)
          (match ttfc with
          | None -> H.fail "no candidate frame before done on %S" text
          | Some t when t >= done_t ->
              H.fail "TTFC %.3f ms not below full-search %.3f ms on %S"
                (1000. *. t) (1000. *. done_t) text
          | Some _ -> ());
          (ttfc, done_t)
      | Error e ->
          H.fail "no stream timing for %S: %s" text e;
          (None, 0.0)
    in
    (* interim revisions must be strictly monotone *)
    ignore
      (List.fold_left
         (fun prev (_, data) ->
           match Result.map (J.int_field "revision") (J.of_string data) with
           | Ok (Some r) ->
               if r <= prev then H.fail "revision %d after %d on %S" r prev text;
               r
           | Ok None ->
               H.fail "candidate frame without revision on %S" text;
               prev
           | Error e ->
               H.fail "bad candidate JSON on %S: %s" text e;
               prev)
         0 cands);
    let done_body =
      match events "done" with
      | [ (_, d_) ] -> d_
      | ds ->
          H.fail "expected exactly one done frame for %S (got %d)" text (List.length ds);
          ""
    in
    (* 2. wire-level identity: fresh non-streaming /rank, same body *)
    let st2, b2 = H.http ~port ~meth:"POST" ~path:"/rank" ~body () in
    if st2 <> 200 then H.fail "POST /rank -> %d for %S" st2 text
    else if done_body <> "" && b2 <> done_body then
      H.fail "STREAM DIVERGENCE on %S: done frame differs from the /rank body" text;
    (* 3. engine-level identity: local ranked run, same k *)
    let o, local_s = H.timed (fun () -> H.respond ses (Engine.Ranked k) text) in
    (if done_body <> "" then
       match J.of_string done_body with
       | Ok j ->
           if
             Option.map J.to_string (J.member "ranked" j)
             <> Some (J.to_string (Dggt_server.Wire.ranked_json o.Engine.ranked))
           then
             H.fail "STREAM DIVERGENCE on %S: ranked list differs from a local ranked run"
               text
       | Error e -> H.fail "bad done JSON on %S: %s" text e);
    J.Obj
      [
        ("domain", J.Str d.Domain.name);
        ("query", J.Str text);
        ("candidate_frames", int (List.length cands));
        ("ttfc_ms", J.opt (fun t -> J.Num (1000. *. t)) ttfc);
        ("full_ms", J.Num (1000. *. done_t));
        ("local_ms", J.Num (1000. *. local_s));
      ]
  in
  Format.eprintf "  streams over loopback port %d...@." port;
  let rows =
    List.concat_map
      (fun d ->
        let ses = H.session ~timeout_s d in
        List.map (row d ses) (H.queries ~skip_hard:true limit d))
      served_domains
  in
  Serve.stop srv;
  let summary (d : Domain.t) =
    let rs = List.filter (fun r -> J.str_field "domain" r = Some d.Domain.name) rows in
    let nums key = List.filter_map (J.num_field key) rs in
    let mean key =
      match nums key with
      | [] -> 0.0
      | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
    in
    let ttfc = mean "ttfc_ms" and full = mean "full_ms" in
    J.Obj
      [
        ("domain", J.Str d.Domain.name);
        ("queries", int (List.length rs));
        ("with_candidates", int (List.length (nums "ttfc_ms")));
        ("ttfc_mean_ms", J.Num ttfc);
        ("full_mean_ms", J.Num full);
        ("local_mean_ms", J.Num (mean "local_ms"));
        ("speedup_x", J.Num (if ttfc > 0. then full /. ttfc else 0.));
      ]
  in
  let domains = List.map summary served_domains in
  H.table
    [
      H.col "domain" "domain";
      H.int_col "queries" "queries";
      H.int_col "w/ cand" "with_candidates";
      H.col ~fmt:"%.1f ms" "ttfc mean" "ttfc_mean_ms";
      H.col ~fmt:"%.1f ms" "full mean" "full_mean_ms";
      H.col ~fmt:"%.1f ms" "local mean" "local_mean_ms";
      H.col ~fmt:"%.1fx" "speedup" "speedup_x";
    ]
    domains;
  H.ledger ~bench:"stream" ~method_ ~timeout_s ~limit
    [
      ("k", int k);
      ("domains", J.Arr domains);
      ("rows", J.Arr rows);
      ("identical", J.Bool (H.failed () = before));
    ]

(* ------------------------------------------------------------------ *)
(* Sharded serving: the 2-shard router vs the single-process server.  *)
(* Every /rank body, SSE frame sequence (fresh and cache-replayed),   *)
(* and /synthesize deterministic field set must be byte-identical     *)
(* across the two topologies; a worker SIGKILLed under load must cost *)
(* zero failed stateless requests and surface as a respawn in both    *)
(* /version and the merged /metrics.                                  *)
(* ------------------------------------------------------------------ *)

module Router = Dggt_shard.Router
module Ssup = Dggt_shard.Supervisor

let run_shard ~timeout_s ~limit =
  let k = 5 in
  let method_ =
    "Sharded serving: a 2-shard router vs the single-process server, both \
     domains; /rank bodies, fresh and replayed SSE frame sequences and \
     /synthesize deterministic fields byte-identical across the two \
     topologies; cache-hot /rank throughput from 4 clients x 40 requests; \
     a TextEditing worker SIGKILLed under load must cost zero failed \
     stateless requests and show as a respawn in the merged /metrics"
  in
  H.heading method_;
  let exe = H.worker_exe () in
  let before = H.failed () in
  let single, sport = H.serve ~timeout_s () in
  let router =
    Router.create
      {
        Router.default_params with
        Router.port = 0;
        shards = 2;
        exe;
        worker_args =
          [
            "--workers"; "2"; "--queue"; "64"; "--cache-size"; "512";
            "--timeout"; Printf.sprintf "%g" timeout_s;
          ];
        proxy_timeout_s = Float.max 30.0 (timeout_s *. 2.0);
      }
  in
  let rport = Router.port router in
  Format.eprintf "  single on port %d, 2-shard router on port %d@." sport rport;
  let items =
    List.concat_map
      (fun (d : Domain.t) ->
        List.map
          (fun (q : Domain.query) -> (d.Domain.name, q.Domain.text))
          (H.queries ~skip_hard:true limit d))
      served_domains
  in
  let rank_body (domain, text) = H.query_body ~k ~timeout_s ~domain text in
  (* ---- identity: every surface, both topologies, byte for byte ---- *)
  Format.eprintf "  identity pass over %d queries...@." (List.length items);
  List.iter
    (fun ((domain, text) as item) ->
      let body = rank_body item in
      (* 1. fresh streams: first contact with this query on both sides,
         so the full candidate-frame sequence is live engine output *)
      let st1, f1 = H.stream ~port:sport ~path:"/rank?stream=1" ~body in
      let st2, f2 = H.stream ~port:rport ~path:"/rank?stream=1" ~body in
      if st1 <> 200 then H.fail "single stream /rank -> %d for %S" st1 text;
      if st2 <> 200 then H.fail "sharded stream /rank -> %d for %S" st2 text;
      if f1 <> f2 then
        H.fail "SHARD DIVERGENCE on %S: fresh SSE frame sequences differ (%d vs %d frames)"
          text (List.length f1) (List.length f2);
      (* 2. non-streaming /rank: fresh compute, then cached on both *)
      let sa, ba = H.http ~port:sport ~meth:"POST" ~path:"/rank" ~body () in
      let sb, bb = H.http ~port:rport ~meth:"POST" ~path:"/rank" ~body () in
      if sa <> 200 then H.fail "single /rank -> %d for %S" sa text;
      if sb <> 200 then H.fail "sharded /rank -> %d for %S" sb text;
      if sa = 200 && sb = 200 && ba <> bb then
        H.fail "SHARD DIVERGENCE on %S: /rank bodies differ" text;
      (* 3. replayed streams: the whole-query cache answers both now *)
      let _, g1 = H.stream ~port:sport ~path:"/rank?stream=1" ~body in
      let _, g2 = H.stream ~port:rport ~path:"/rank?stream=1" ~body in
      if g1 <> g2 then
        H.fail "SHARD DIVERGENCE on %S: replayed SSE frame sequences differ" text;
      (* 4. /synthesize: deterministic fields only (time_s may differ) *)
      let sbody = H.query_body ~timeout_s ~domain text in
      let sc, bc = H.http ~port:sport ~meth:"POST" ~path:"/synthesize" ~body:sbody () in
      let sd, bd = H.http ~port:rport ~meth:"POST" ~path:"/synthesize" ~body:sbody () in
      if sc <> 200 || sd <> 200 then
        H.fail "/synthesize -> %d (single) / %d (sharded) for %S" sc sd text
      else
        match (J.of_string bc, J.of_string bd) with
        | Ok jc, Ok jd -> (
            match H.fields_diff jc jd with
            | [] -> ()
            | ds ->
                H.fail "SHARD DIVERGENCE on %S: /synthesize %s differ" text
                  (String.concat ", " ds))
        | Error e, _ | _, Error e -> H.fail "bad /synthesize JSON for %S: %s" text e)
    items;
  (* ---- throughput: cache-hot /rank, same closed loop on both ---- *)
  let qps ~port ~label =
    let threads = 4 and per = 40 in
    let arr = Array.of_list items in
    let errs = Atomic.make 0 in
    let run id =
      for i = 0 to per - 1 do
        let body = rank_body arr.((id + i) mod Array.length arr) in
        match H.http ~port ~meth:"POST" ~path:"/rank" ~body () with
        | 200, _ -> ()
        | _ -> Atomic.incr errs
        | exception _ -> Atomic.incr errs
      done
    in
    let (), wall =
      H.timed (fun () -> List.iter Thread.join (List.init threads (Thread.create run)))
    in
    if Atomic.get errs > 0 then
      H.fail "%s: %d failed requests during the throughput pass" label (Atomic.get errs);
    float_of_int (threads * per) /. wall
  in
  Format.eprintf "  throughput (cache-hot /rank, 4 clients x 40 each)...@.";
  let single_qps = qps ~port:sport ~label:"single" in
  let sharded_qps = qps ~port:rport ~label:"sharded" in
  (* ---- crash under load: SIGKILL the worker of a TextEditing query ---- *)
  Format.eprintf "  crash-under-load: SIGKILL a TextEditing query's worker...@.";
  let te = Text_editing.domain.Domain.name in
  let te_items = Array.of_list (List.filter (fun (d, _) -> d = te) items) in
  (* the router places a query by its text; the clients below send every
     TextEditing query, so some of them land on the victim *)
  let victim_slot = Router.slot_of ~shards:2 (snd te_items.(0)) in
  let victim_pid =
    match Ssup.find (Router.supervisor router) victim_slot with
    | Some w -> w.Ssup.pid
    | None -> -1
  in
  if victim_pid < 0 then H.fail "no live worker behind slot %d" victim_slot;
  let stop_clients = Atomic.make false in
  let crash_failures = Atomic.make 0 and crash_total = Atomic.make 0 in
  let client id =
    let i = ref id in
    while not (Atomic.get stop_clients) do
      let body = rank_body te_items.(!i mod Array.length te_items) in
      incr i;
      (match H.http ~port:rport ~meth:"POST" ~path:"/rank" ~body () with
      | 200, _ -> ()
      | st, _ ->
          Atomic.incr crash_failures;
          Format.eprintf "    non-200 (%d) during the crash phase@." st
      | exception e ->
          Atomic.incr crash_failures;
          Format.eprintf "    transport error during the crash phase: %s@."
            (Printexc.to_string e));
      Atomic.incr crash_total
    done
  in
  let ts = List.init 4 (Thread.create client) in
  Thread.delay 0.4;
  if victim_pid > 0 then (try Unix.kill victim_pid Sys.sigkill with Unix.Unix_error _ -> ());
  Thread.delay 3.0;
  Atomic.set stop_clients true;
  List.iter Thread.join ts;
  if Atomic.get crash_failures > 0 then
    H.fail "worker crash cost %d failed stateless requests (of %d)"
      (Atomic.get crash_failures) (Atomic.get crash_total);
  (* the respawn must become visible in the topology and merged metrics *)
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec await () =
    match Ssup.find (Router.supervisor router) victim_slot with
    | Some w when w.Ssup.state = Ssup.Healthy && w.Ssup.respawns >= 1 -> true
    | _ ->
        Unix.gettimeofday () < deadline
        && begin
             Thread.delay 0.05;
             await ()
           end
  in
  if not (await ()) then H.fail "slot %d did not respawn to healthy within 15 s" victim_slot;
  let respawns =
    match Ssup.find (Router.supervisor router) victim_slot with
    | Some w -> w.Ssup.respawns
    | None -> 0
  in
  let respawn_series = Printf.sprintf "dggt_shard_respawns_total{shard=\"%d\"}" victim_slot in
  (match
     H.metric_value respawn_series (snd (H.http ~port:rport ~meth:"GET" ~path:"/metrics" ()))
   with
  | Some n when n > 0 -> ()
  | _ -> H.fail "merged /metrics does not report the respawn (%s)" respawn_series);
  Serve.stop single;
  Router.stop router;
  let fields =
    [
      ("shards", int 2);
      ("queries", int (List.length items));
      ("single_qps", J.Num single_qps);
      ("sharded_qps", J.Num sharded_qps);
      ( "crash",
        J.Obj
          [
            ("requests", int (Atomic.get crash_total));
            ("failures", int (Atomic.get crash_failures));
            ("victim_slot", int victim_slot);
            ("respawns", int respawns);
          ] );
      ("identical", J.Bool (H.failed () = before));
    ]
  in
  H.table
    [
      H.col ~fmt:"%.1f" "single qps" "single_qps";
      H.col ~fmt:"%.1f" "sharded(2) qps" "sharded_qps";
      H.int_col "crash reqs" "crash.requests";
      H.int_col "failed" "crash.failures";
      H.int_col "slot" "crash.victim_slot";
      H.int_col "respawns" "crash.respawns";
    ]
    [ J.Obj fields ];
  H.ledger ~bench:"shard" ~method_ ~timeout_s ~limit fields

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per evaluation artifact,   *)
(* measuring the engine work that artifact exercises.                 *)
(* ------------------------------------------------------------------ *)

let synth_once (dom : Domain.t) alg text =
  let ses = H.session ~alg ~timeout_s:20.0 dom in
  fun () -> ignore (H.respond ses Engine.Plain text)

let micro_tests () =
  let te = Text_editing.domain and am = Astmatcher.domain in
  let te_q = "Append \":\" in every line containing numerals." in
  let am_q = "find cxx constructor expressions which declare a cxx method named \"PI\"" in
  let open Bechamel in
  [
    (* Table I: building the domain inputs (grammar graph + document) *)
    Test.make ~name:"table1/grammar-graph-build"
      (Staged.stage
         (let g = Lazy.force te.Domain.graph in
          let start = g.Dggt_grammar.Ggraph.cfg.Dggt_grammar.Cfg.start in
          fun () ->
            match Dggt_grammar.Cfg.of_text ~start Te_pack.grammar_bnf with
            | Ok cfg -> ignore (Dggt_grammar.Ggraph.build cfg)
            | Error _ -> assert false));
    (* Table II / Fig 7 / Fig 8: end-to-end synthesis per engine *)
    Test.make ~name:"table2/dggt-textediting" (Staged.stage (synth_once te Engine.Dggt_alg te_q));
    Test.make ~name:"table2/hisyn-textediting"
      (Staged.stage (synth_once te Engine.Hisyn_alg "insert \"-\" at the start of each line"));
    Test.make ~name:"table2/dggt-astmatcher" (Staged.stage (synth_once am Engine.Dggt_alg am_q));
    (* Table III: the pruning-heavy pipeline pieces *)
    Test.make ~name:"table3/dependency-parse"
      (Staged.stage (fun () -> ignore (Dggt_nlu.Depparser.parse te_q)));
    Test.make ~name:"table3/word2api"
      (Staged.stage
         (let doc = Lazy.force te.Domain.doc in
          let dg = Queryprune.prune (Dggt_nlu.Depparser.parse te_q) in
          fun () -> ignore (Word2api.build doc dg)));
    Test.make ~name:"table3/edge2path"
      (Staged.stage
         (let autom = Lazy.force te.Domain.autom in
          let doc = Lazy.force te.Domain.doc in
          let dg = Queryprune.prune (Dggt_nlu.Depparser.parse te_q) in
          let w2a = Word2api.build doc dg in
          fun () -> ignore (Edge2path.build autom dg w2a)));
  ]

let run_micro ~timeout_s:_ ~limit:_ =
  H.rule ();
  Format.fprintf fmt "Bechamel microbenchmarks (monotonic clock, ~1 s per test)@.@.";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Format.fprintf fmt "  %-34s %12.0f ns/run@." name est
          | _ -> Format.fprintf fmt "  %-34s (no estimate)@." name)
        analysis)
    (micro_tests ())

(* every target with its default --limit (None = all queries) *)
let targets =
  [
    ("table1", None, run_table1);
    ("table2", None, run_table2);
    ("table3", None, run_table3);
    ("fig7", None, run_fig7);
    ("fig8", None, run_fig8);
    ("ablation", None, run_ablation);
    ("stages", None, run_stages);
    ("micro", None, run_micro);
    ("parallel", None, run_parallel);
    ("automaton", None, run_automaton);
    ("pathmerge", None, run_pathmerge);
    ("incremental", Some 8, run_incremental);
    ("warmstart", Some 6, run_warmstart);
    ("stream", Some 6, run_stream);
    ("shard", Some 4, run_shard);
  ]

let all = [ "table1"; "table2"; "table3"; "fig7"; "fig8"; "ablation"; "stages"; "micro" ]

let () =
  let timeout_s = ref 20.0 and limit = ref None in
  let rec parse acc = function
    | "--timeout" :: v :: rest ->
        timeout_s := float_of_string v;
        parse acc rest
    | "--limit" :: v :: rest ->
        limit := Some (int_of_string v);
        parse acc rest
    | x :: rest -> parse (x :: acc) rest
    | [] -> List.rev acc
  in
  let names = match parse [] (List.tl (Array.to_list Sys.argv)) with [] -> [ "all" ] | ts -> ts in
  (* a misspelled target fails before anything runs *)
  let valid = List.map (fun (n, _, _) -> n) targets @ [ "all" ] in
  (match List.find_opt (fun t -> not (List.mem t valid)) names with
  | Some t ->
      Format.eprintf "unknown target %S (valid: %s)@." t (String.concat ", " valid);
      exit 2
  | None -> ());
  List.iter
    (fun name ->
      let _, default, run = List.find (fun (n, _, _) -> n = name) targets in
      run ~timeout_s:!timeout_s ~limit:(if !limit = None then default else !limit))
    (List.concat_map (fun t -> if t = "all" then all else [ t ]) names);
  H.finish ()
