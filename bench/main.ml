(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables I-III, Figures 7-8), runs the optimization ablation,
   and measures the pipeline stages with Bechamel microbenchmarks.

     dune exec bench/main.exe                     # everything, 20 s timeout
     dune exec bench/main.exe -- table2           # one artifact
     dune exec bench/main.exe -- --timeout 2 all  # faster protocol
     dune exec bench/main.exe -- micro            # Bechamel stage benches
     dune exec bench/main.exe -- stages           # per-stage latency table
     dune exec bench/main.exe -- parallel         # batch queries/sec sweep
     dune exec bench/main.exe -- automaton        # DFS vs compiled automaton
     dune exec bench/main.exe -- pathmerge        # reference vs semiring PathMerge
     dune exec bench/main.exe -- incremental      # as-you-type session replay
     dune exec bench/main.exe -- warmstart        # cold vs warm --store boot
     dune exec bench/main.exe -- --timeout 2 smoke  # reduced CI sweep

   The 20 s timeout is the paper's protocol; because this substrate is much
   faster than the authors' testbed, --timeout 2 produces the same shape in
   a tenth of the wall-clock time. *)

open Dggt_core
open Dggt_domains
open Dggt_eval

let fmt = Format.std_formatter

let progress label i n =
  if i mod 25 = 0 || i = n then Format.eprintf "    [%s %d/%d]@." label i n

let comparisons = Hashtbl.create 2

(* Table II, Fig 7 and Fig 8 share the expensive HISyn-vs-DGGT runs. *)
let comparison ~timeout_s (dom : Domain.t) =
  match Hashtbl.find_opt comparisons dom.Domain.name with
  | Some c -> c
  | None ->
      Format.eprintf "  running %s (timeout %.0f s)...@." dom.Domain.name timeout_s;
      let c =
        Report.compare_domain ~timeout_s
          ~progress:(fun l i n -> progress (dom.Domain.name ^ "/" ^ l) i n)
          dom
      in
      Hashtbl.replace comparisons dom.Domain.name c;
      c

let hr () = Format.fprintf fmt "@.%s@.@." (String.make 78 '-')

let run_table1 () =
  hr ();
  Report.table1 fmt

let run_table2 ~timeout_s () =
  hr ();
  let cs = List.map (comparison ~timeout_s) [ Astmatcher.domain; Text_editing.domain ] in
  Report.table2 fmt cs

let run_table3 () =
  hr ();
  Report.table3 fmt Text_editing.domain;
  Format.fprintf fmt "@.";
  Report.table3 fmt Astmatcher.domain

let run_fig7 ~timeout_s () =
  hr ();
  List.iter
    (fun d -> Report.fig7 fmt (comparison ~timeout_s d))
    [ Astmatcher.domain; Text_editing.domain ]

let run_fig8 ~timeout_s () =
  hr ();
  List.iter
    (fun d -> Report.fig8 fmt (comparison ~timeout_s d))
    [ Astmatcher.domain; Text_editing.domain ]

let run_ablation ~timeout_s () =
  hr ();
  (* the no-relocation variant re-inherits the baseline's path blow-up;
     cap its budget so the ablation stays affordable *)
  let timeout_s = Float.min timeout_s 3.0 in
  Report.ablation fmt ~timeout_s Text_editing.domain;
  Format.fprintf fmt "@.";
  Report.ablation fmt ~timeout_s Astmatcher.domain

let run_stages ~timeout_s () =
  hr ();
  Report.stage_table fmt ~timeout_s Text_editing.domain;
  Format.fprintf fmt "@.";
  Report.stage_table fmt ~timeout_s Astmatcher.domain

(* spin up a whole-query fan-out pool for [f]'s lifetime (1 = sequential,
   no pool) *)
let with_pool workers f =
  if workers > 1 then
    let pool = Dggt_par.Pool.create ~workers () in
    Fun.protect
      ~finally:(fun () -> Dggt_par.Pool.shutdown pool)
      (fun () -> f (Some pool))
  else f None

(* A reduced sweep for CI: domain stats plus a per-stage latency probe on a
   short query prefix — exercises tracing end to end in a few seconds. *)
let run_smoke ~timeout_s () =
  hr ();
  Report.table1 fmt;
  hr ();
  let timeout_s = Float.min timeout_s 5.0 in
  Report.stage_table fmt ~timeout_s ~limit:8 Text_editing.domain;
  Format.fprintf fmt "@.";
  Report.stage_table fmt ~timeout_s ~limit:8 Astmatcher.domain

(* ------------------------------------------------------------------ *)
(* Batch-parallel sweep: whole queries fanned out over a worker pool  *)
(* (queries/sec vs worker count), plus the byte-identity check the    *)
(* determinism claim rests on. Intra-query fan-out is gone — the      *)
(* measured 0.6-0.9x "speedup" of per-pair searches killed it — so    *)
(* this sweep measures the knob that actually scales: concurrency     *)
(* across queries.                                                    *)
(* ------------------------------------------------------------------ *)

type psweep = {
  p_workers : int;
  p_wall_s : float;           (* wall-clock for the whole query set *)
  p_qps : float;              (* queries per second of wall-clock *)
  p_identical : bool;         (* codelets byte-identical to 1-worker run *)
  p_timeout_skips : int;      (* pairs excluded: either side timed out *)
}

let edge2path_share (q : Runner.qresult) =
  let total = List.fold_left (fun a (_, d) -> a +. d) 0.0 q.Runner.stage_s in
  match List.assoc_opt "EdgeToPath" q.Runner.stage_s with
  | Some d when total > 0.0 -> d /. total
  | _ -> 0.0

let run_parallel_domain ~timeout_s ~counts (dom : Domain.t) =
  Format.eprintf "  sweeping %s...@." dom.Domain.name;
  let run_at w =
    (* a fresh automaton per worker count, compiled before the clock
       starts: its path memo, shared by that run's workers, starts cold
       at every count *)
    let dom =
      {
        dom with
        Domain.autom =
          Lazy.from_val (Dggt_autom.Autom.compile (Lazy.force dom.Domain.graph));
      }
    in
    with_pool w (fun pool ->
        let t0 = Unix.gettimeofday () in
        let r =
          Runner.run_domain ~timeout_s ?pool
            ~progress:(fun i n ->
              progress (Printf.sprintf "%s x%d" dom.Domain.name w) i n)
            dom Engine.Dggt_alg
        in
        (r, Unix.gettimeofday () -. t0))
  in
  let baseline, base_wall = run_at (List.hd counts) in
  let nq = List.length baseline.Runner.results in
  (* wall-clock timeouts are scheduling-dependent under contention (on a
     1-core host every extra worker steals time from every query), so a
     pair where either run timed out is incomparable — excluded and
     counted, exactly like the automaton sweep *)
  let compare_codes r =
    List.fold_left2
      (fun (same, skips) (a : Runner.qresult) (b : Runner.qresult) ->
        if a.Runner.outcome.Engine.timed_out || b.Runner.outcome.Engine.timed_out
        then (same, skips + 1)
        else (same && a.Runner.outcome.Engine.code = b.Runner.outcome.Engine.code, skips))
      (true, 0) baseline.Runner.results r.Runner.results
  in
  let sweep =
    List.map
      (fun w ->
        let r, wall =
          if w = List.hd counts then (baseline, base_wall) else run_at w
        in
        let identical, skips = compare_codes r in
        {
          p_workers = w;
          p_wall_s = wall;
          p_qps = float_of_int nq /. Float.max wall 1e-9;
          p_identical = identical;
          p_timeout_skips = skips;
        })
      counts
  in
  (dom, nq, sweep)

let parallel_json ~timeout_s results =
  let module J = Dggt_server.Jsonio in
  let f v = J.Num v and i n = J.Num (float_of_int n) in
  J.Obj
    [
      ("bench", J.Str "parallel");
      ("timeout_s", f timeout_s);
      (* speedups only mean anything relative to the cores actually
         available where the sweep ran *)
      ("host_cores", i (Stdlib.Domain.recommended_domain_count ()));
      ( "domains",
        J.list
          (fun ((dom : Domain.t), nq, sweep) ->
            let base = (List.hd sweep).p_wall_s in
            J.Obj
              [
                ("name", J.Str dom.Domain.name);
                ("queries", i nq);
                ( "sweep",
                  J.list
                    (fun p ->
                      J.Obj
                        [
                          ("workers", i p.p_workers);
                          ("wall_s", f p.p_wall_s);
                          ("queries_per_s", f p.p_qps);
                          ("speedup", f (base /. Float.max p.p_wall_s 1e-9));
                          ("codelets_identical", J.Bool p.p_identical);
                          ("timeout_skips", i p.p_timeout_skips);
                        ])
                    sweep );
              ])
          results );
    ]

let run_parallel ~timeout_s () =
  hr ();
  let counts = [ 1; 2; 4; 8 ] in
  Format.fprintf fmt
    "Batch throughput: whole queries fanned out over a Dggt_par worker \
     pool@.(worker counts %s; host has %d core(s); 'identical' = codelets \
     byte-equal to the sequential run, pairs where either side timed out \
     excluded and counted as skips)@.@."
    (String.concat "/" (List.map string_of_int counts))
    (Stdlib.Domain.recommended_domain_count ());
  let results =
    List.map
      (run_parallel_domain ~timeout_s ~counts)
      [ Astmatcher.domain; Text_editing.domain ]
  in
  List.iter
    (fun ((dom : Domain.t), nq, sweep) ->
      let base = (List.hd sweep).p_wall_s in
      Format.fprintf fmt "%s: %d queries@.@." dom.Domain.name nq;
      Format.fprintf fmt "  %8s %10s %12s %8s %10s %6s@." "workers" "wall (s)"
        "queries/s" "speedup" "identical" "skips";
      List.iter
        (fun p ->
          Format.fprintf fmt "  %8d %10.3f %12.1f %7.2fx %10s %6d@." p.p_workers
            p.p_wall_s p.p_qps
            (base /. Float.max p.p_wall_s 1e-9)
            (if p.p_identical then "yes" else "NO")
            p.p_timeout_skips;
          if not p.p_identical then
            Format.fprintf fmt "  ^^^ DETERMINISM VIOLATION at %d workers@."
              p.p_workers)
        sweep;
      Format.fprintf fmt "@.")
    results;
  let path = "BENCH_parallel.json" in
  let oc = open_out path in
  output_string oc (Dggt_server.Jsonio.to_string (parallel_json ~timeout_s results));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Incremental sessions: replay each query as an as-you-type edit     *)
(* sequence, full-vs-incremental per revision, with the equivalence   *)
(* assertion the subsystem's guarantee rests on.                      *)
(* ------------------------------------------------------------------ *)

(* split a query into typeable chunks, never breaking a quoted literal
   ("append \":\" at ..." must keep the ':' inside its quotes) *)
let edit_chunks q =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  let in_quote = ref false in
  String.iter
    (fun c ->
      match c with
      | '"' ->
          Buffer.add_char buf c;
          in_quote := not !in_quote
      | (' ' | '\t') when not !in_quote -> flush ()
      | c -> Buffer.add_char buf c)
    q;
  flush ();
  List.rev !out

(* the edit script for one query: the last [depth] word-append revisions
   (the as-you-type tail), then a whitespace/punctuation-only revision that
   should splice *)
let edit_script ~depth q =
  let chunks = edit_chunks q in
  let n = List.length chunks in
  let prefix k = String.concat " " (List.filteri (fun i _ -> i < k) chunks) in
  let first = max 1 (n - depth) in
  let rec range a b = if a > b then [] else a :: range (a + 1) b in
  let prefixes = List.map (fun k -> (prefix k, k > first)) (range first n) in
  (* (revision text, is-append-one-word revision) *)
  prefixes @ [ (prefix n ^ " .", false) ]

type irow = {
  i_domain : string;
  i_queries : int;
  i_revisions : int;
  i_appends : int;           (* append-one-word revisions *)
  i_splices : int;
  i_full_s : float;          (* summed from-scratch wall time *)
  i_inc_s : float;           (* summed incremental wall time *)
  i_full_searches : int;     (* EdgeToPath searches, from-scratch *)
  i_inc_searches : int;      (* EdgeToPath compute thunks, incremental *)
  i_app_full_searches : int; (* same, append-one-word revisions only *)
  i_app_inc_searches : int;
  i_mismatches : (string * string) list; (* (revision text, what diverged) *)
  i_timeout_skips : int;
}

(* byte-equivalence of a from-scratch and an incremental outcome; timing
   is the one field allowed to differ *)
let outcome_divergence (a : Engine.outcome) (b : Engine.outcome) =
  if a.Engine.code <> b.Engine.code then Some "code"
  else if a.Engine.cgt_size <> b.Engine.cgt_size then Some "cgt_size"
  else if a.Engine.failure <> b.Engine.failure then Some "failure"
  else if a.Engine.timed_out <> b.Engine.timed_out then Some "timed_out"
  else if not (Stats.equal a.Engine.stats b.Engine.stats) then Some "stats"
  else None

let run_incremental_domain ~timeout_s ~limit ~depth (dom : Domain.t) =
  Format.eprintf "  replaying %s edit sequences...@." dom.Domain.name;
  let base =
    Domain.configure dom
      { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some timeout_s }
  in
  (* from-scratch runs count their EdgeToPath searches through a transparent
     hook: increment, then compute — the result bytes can't change *)
  let scratch_searches = ref 0 in
  let scratch_target =
    {
      base.Engine.target with
      Engine.caches =
        {
          Engine.word2api = None;
          edge2path =
            Some
              (fun ~src:_ ~dst:_ compute ->
                incr scratch_searches;
                compute ());
        };
    }
  in
  let queries =
    List.filteri (fun i _ -> i < limit) dom.Domain.queries
    |> List.map (fun (q : Domain.query) -> q.Domain.text)
  in
  let acc =
    ref
      {
        i_domain = dom.Domain.name;
        i_queries = List.length queries;
        i_revisions = 0;
        i_appends = 0;
        i_splices = 0;
        i_full_s = 0.0;
        i_inc_s = 0.0;
        i_full_searches = 0;
        i_inc_searches = 0;
        i_app_full_searches = 0;
        i_app_inc_searches = 0;
        i_mismatches = [];
        i_timeout_skips = 0;
      }
  in
  List.iter
    (fun q ->
      let inc = Dggt_inc.Session.create base in
      List.iter
        (fun (text, is_append) ->
          let t0 = Unix.gettimeofday () in
          let o_inc, reuse = Dggt_inc.Session.query inc text in
          let inc_s = Unix.gettimeofday () -. t0 in
          scratch_searches := 0;
          let t1 = Unix.gettimeofday () in
          let o_full =
            Engine.respond
              { base with Engine.target = scratch_target }
              { Engine.input = Engine.Text text; mode = Engine.Plain }
          in
          let full_s = Unix.gettimeofday () -. t1 in
          let full_n = !scratch_searches in
          let inc_n = reuse.Dggt_inc.Reuse.pairs.Dggt_inc.Reuse.computed in
          let a = !acc in
          let timeout_skip =
            o_inc.Engine.timed_out || o_full.Engine.timed_out
          in
          let mismatches =
            if timeout_skip then a.i_mismatches
            else
              match outcome_divergence o_full o_inc with
              | None -> a.i_mismatches
              | Some what -> (text, what) :: a.i_mismatches
          in
          acc :=
            {
              a with
              i_revisions = a.i_revisions + 1;
              i_appends = (a.i_appends + if is_append then 1 else 0);
              i_splices =
                (a.i_splices + if reuse.Dggt_inc.Reuse.splice then 1 else 0);
              i_full_s = a.i_full_s +. full_s;
              i_inc_s = a.i_inc_s +. inc_s;
              i_full_searches = a.i_full_searches + full_n;
              i_inc_searches = a.i_inc_searches + inc_n;
              i_app_full_searches =
                (a.i_app_full_searches + if is_append then full_n else 0);
              i_app_inc_searches =
                (a.i_app_inc_searches + if is_append then inc_n else 0);
              i_mismatches = mismatches;
              i_timeout_skips =
                (a.i_timeout_skips + if timeout_skip then 1 else 0);
            })
        (edit_script ~depth q))
    queries;
  !acc

let incremental_json ~timeout_s rows =
  let module J = Dggt_server.Jsonio in
  let f v = J.Num v and i n = J.Num (float_of_int n) in
  J.Obj
    [
      ("bench", J.Str "incremental");
      ("timeout_s", f timeout_s);
      ( "domains",
        J.list
          (fun r ->
            J.Obj
              [
                ("name", J.Str r.i_domain);
                ("queries", i r.i_queries);
                ("revisions", i r.i_revisions);
                ("append_revisions", i r.i_appends);
                ("splices", i r.i_splices);
                ("full_s", f r.i_full_s);
                ("incremental_s", f r.i_inc_s);
                ("speedup", f (r.i_full_s /. Float.max r.i_inc_s 1e-9));
                ("full_searches", i r.i_full_searches);
                ("incremental_searches", i r.i_inc_searches);
                ("append_full_searches", i r.i_app_full_searches);
                ("append_incremental_searches", i r.i_app_inc_searches);
                ("timeout_skips", i r.i_timeout_skips);
                ("equivalent", J.Bool (r.i_mismatches = []));
                ( "mismatches",
                  J.list
                    (fun (text, what) ->
                      J.Obj [ ("query", J.Str text); ("diverged", J.Str what) ])
                    r.i_mismatches );
              ])
          rows );
    ]

let run_incremental ~timeout_s ~limit () =
  hr ();
  let depth = 4 in
  Format.fprintf fmt
    "Incremental sessions: each query replayed as an as-you-type edit \
     sequence@.(last %d word-appends plus a punctuation-only revision; \
     every revision checked byte-equivalent to a from-scratch run; %d \
     queries per domain)@.@."
    depth limit;
  let rows =
    List.map
      (run_incremental_domain ~timeout_s ~limit ~depth)
      [ Text_editing.domain; Astmatcher.domain ]
  in
  Format.fprintf fmt "  %12s %5s %5s %8s %9s %8s %8s %10s %10s %5s@." "domain"
    "revs" "spl" "full(s)" "inc(s)" "speedup" "equal" "srch-full" "srch-inc"
    "skip";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %12s %5d %5d %8.3f %9.3f %7.2fx %8s %10d %10d %5d@."
        r.i_domain r.i_revisions r.i_splices r.i_full_s r.i_inc_s
        (r.i_full_s /. Float.max r.i_inc_s 1e-9)
        (if r.i_mismatches = [] then "yes" else "NO")
        r.i_full_searches r.i_inc_searches r.i_timeout_skips)
    rows;
  Format.fprintf fmt "@.";
  let path = "BENCH_incremental.json" in
  let oc = open_out path in
  output_string oc
    (Dggt_server.Jsonio.to_string (incremental_json ~timeout_s rows));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path;
  let failed = ref false in
  List.iter
    (fun r ->
      List.iter
        (fun (text, what) ->
          failed := true;
          Format.eprintf
            "EQUIVALENCE VIOLATION (%s): %s diverged on %S@." r.i_domain what
            text)
        r.i_mismatches;
      (* the whole point of the session: appending a word must search less
         than starting over *)
      if r.i_appends > 0 && r.i_app_inc_searches >= r.i_app_full_searches
      then begin
        failed := true;
        Format.eprintf
          "REUSE REGRESSION (%s): %d incremental vs %d full searches over \
           %d append-one-word revisions@."
          r.i_domain r.i_app_inc_searches r.i_app_full_searches r.i_appends
      end)
    rows;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Compiled automaton: DFS vs table-walk EdgeToPath over every domain *)
(* (built-ins plus each pack under examples/packs), byte-identity     *)
(* asserted per query, speedup measured on the dominated subset.      *)
(* ------------------------------------------------------------------ *)

type ameasure = {
  a_total_s : float;     (* summed per-query wall time *)
  a_e2p_s : float;       (* summed EdgeToPath stage time *)
  a_dom_e2p_s : float;   (* EdgeToPath stage time, dominated subset only *)
}

type around = {
  r_dfs : ameasure;
  r_tw : ameasure;
  r_dfs_first : bool;    (* which side ran first in the round *)
  r_compile_s : float;   (* this round's fresh compile *)
  r_timeout_skips : int;
}

type arow = {
  au_domain : string;
  au_queries : int;
  au_dominated : int;
  au_rule : string;
  au_compile_s : float;  (* fastest round's compile *)
  au_digest : string;
  au_dfs : ameasure;     (* fastest DFS pass on the dominated subset *)
  au_tw : ameasure;      (* fastest table-walk (automaton) pass *)
  au_rounds : around list;
  au_memo : Dggt_autom.Autom.memo_counters;  (* first round's automaton *)
  au_memo_words : int;  (* words its path memo keeps alive *)
  au_mismatches : (string * string) list;
  au_timeout_skips : int;  (* most skips in any round *)
}

(* DFS and table-walk passes per domain, run alternately. The speed gate
   compares each side's fastest pass, so one host stall during a pass
   cannot decide it. *)
let automaton_rounds = 3

let e2p_of (q : Runner.qresult) =
  Option.value (List.assoc_opt "EdgeToPath" q.Runner.stage_s) ~default:0.0

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
  let dom =
    if limit >= List.length dom.Domain.queries then dom
    else
      {
        dom with
        Domain.queries = List.filteri (fun i _ -> i < limit) dom.Domain.queries;
      }
  in
  let nq = List.length dom.Domain.queries in
  Format.eprintf "  %s: DFS vs automaton (%d queries)...@." dom.Domain.name nq;
  let run ?caches (dom : Domain.t) tag =
    Runner.run_domain ~timeout_s ?caches ~stage_timing:true
      ~progress:(fun i n -> progress (dom.Domain.name ^ "/" ^ tag) i n)
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
  let passes = List.init automaton_rounds (fun i -> round (dfs_first i)) in
  let first_dfs, first_autom, _ = List.hd passes in
  (* the subset is decided on the first DFS pass and held for all *)
  let dominated, rule = dominated_subset first_dfs.Runner.results in
  let measure (r : Runner.run) =
    let fold f init = List.fold_left2 f init dominated r.Runner.results in
    {
      a_total_s =
        fold (fun a _ q -> a +. q.Runner.outcome.Engine.time_s) 0.0;
      a_e2p_s = fold (fun a _ q -> a +. e2p_of q) 0.0;
      a_dom_e2p_s =
        fold (fun a keep q -> if keep then a +. e2p_of q else a) 0.0;
    }
  in
  (* per-query byte-identity of every round's two passes; a timeout on
     either side makes the pair incomparable (the faster run legitimately
     finishes more), counted separately instead of flagged *)
  let divergence (dfs : Runner.run) (tw : Runner.run) =
    List.fold_left2
      (fun (ms, sk) (a : Runner.qresult) (b : Runner.qresult) ->
        if a.Runner.outcome.Engine.timed_out || b.Runner.outcome.Engine.timed_out
        then (ms, sk + 1)
        else
          match outcome_divergence a.Runner.outcome b.Runner.outcome with
          | None -> (ms, sk)
          | Some what -> ((a.Runner.query.Domain.text, what) :: ms, sk))
      ([], 0) dfs.Runner.results tw.Runner.results
  in
  let checked = List.map (fun (dfs, _, tw) -> divergence dfs tw) passes in
  let leaked =
    let { Dggt_autom.Autom.hits; misses; _ } =
      Dggt_autom.Autom.memo_counters (Lazy.force dom.Domain.autom)
    in
    if hits + misses = 0 then []
    else
      [
        ( Printf.sprintf "%d searches that bypassed the edge2path hook"
            (hits + misses),
          "reference side" );
      ]
  in
  let rounds =
    List.mapi
      (fun i ((dfs, autom, tw), (_, skips)) ->
        {
          r_dfs = measure dfs;
          r_tw = measure tw;
          r_dfs_first = dfs_first i;
          r_compile_s = Dggt_autom.Autom.compile_time_s autom;
          r_timeout_skips = skips;
        })
      (List.combine passes checked)
  in
  let fastest side =
    List.fold_left
      (fun best r -> if (side r).a_dom_e2p_s < best.a_dom_e2p_s then side r else best)
      (side (List.hd rounds)) rounds
  in
  {
    au_domain = dom.Domain.name;
    au_queries = nq;
    au_dominated = List.length (List.filter Fun.id dominated);
    au_rule = rule;
    au_compile_s =
      List.fold_left (fun m r -> Float.min m r.r_compile_s) infinity rounds;
    au_digest = Dggt_autom.Autom.digest first_autom;
    au_dfs = fastest (fun r -> r.r_dfs);
    au_tw = fastest (fun r -> r.r_tw);
    au_rounds = rounds;
    au_memo = Dggt_autom.Autom.memo_counters first_autom;
    au_memo_words = Dggt_autom.Autom.memo_words first_autom;
    au_mismatches = leaked @ List.concat_map (fun (ms, _) -> List.rev ms) checked;
    au_timeout_skips =
      List.fold_left (fun m r -> max m r.r_timeout_skips) 0 rounds;
  }

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

let automaton_json ~timeout_s rows =
  let module J = Dggt_server.Jsonio in
  let f v = J.Num v and i n = J.Num (float_of_int n) in
  let m (a : ameasure) =
    J.Obj
      [
        ("total_s", f a.a_total_s);
        ("edge2path_s", f a.a_e2p_s);
        ("dominated_edge2path_s", f a.a_dom_e2p_s);
      ]
  in
  J.Obj
    [
      ("bench", J.Str "automaton");
      ("timeout_s", f timeout_s);
      ( "domains",
        J.list
          (fun r ->
            J.Obj
              [
                ("name", J.Str r.au_domain);
                ("queries", i r.au_queries);
                ("edge2path_dominated", i r.au_dominated);
                ("dominated_rule", J.Str r.au_rule);
                ("compile_s", f r.au_compile_s);
                ("digest", J.Str r.au_digest);
                ("dfs", m r.au_dfs);
                ("automaton", m r.au_tw);
                ( "rounds",
                  J.list
                    (fun rd ->
                      J.Obj
                        [
                          ("first", J.Str (if rd.r_dfs_first then "dfs" else "automaton"));
                          ("compile_s", f rd.r_compile_s);
                          ("dfs", m rd.r_dfs);
                          ("automaton", m rd.r_tw);
                          ("timeout_skips", i rd.r_timeout_skips);
                        ])
                    r.au_rounds );
                ( "edge2path_speedup",
                  f (r.au_dfs.a_e2p_s /. Float.max r.au_tw.a_e2p_s 1e-9) );
                ( "dominated_speedup",
                  f
                    (r.au_dfs.a_dom_e2p_s
                    /. Float.max r.au_tw.a_dom_e2p_s 1e-9) );
                ( "memo",
                  J.Obj
                    [
                      ("hits", i r.au_memo.Dggt_autom.Autom.hits);
                      ("misses", i r.au_memo.Dggt_autom.Autom.misses);
                      ("entries", i r.au_memo.Dggt_autom.Autom.entries);
                      ("words", i r.au_memo_words);
                    ] );
                ("timeout_skips", i r.au_timeout_skips);
                ("identical", J.Bool (r.au_mismatches = []));
                ( "mismatches",
                  J.list
                    (fun (text, what) ->
                      J.Obj [ ("query", J.Str text); ("diverged", J.Str what) ])
                    r.au_mismatches );
              ])
          rows );
    ]

let run_automaton ~timeout_s ~limit () =
  hr ();
  Format.fprintf fmt
    "Compiled automaton: EdgeToPath as the reference per-query DFS \
     (Refgpath, through the edge2path hook) vs precompiled state \
     tables@.(every domain: built-ins + examples/packs/*; stage tracing on \
     in both runs; %d alternating rounds, a fresh automaton each, times from \
     each side's fastest pass; 'identical' = outcomes byte-equal per query \
     in every round, timeouts skipped)@.@."
    automaton_rounds;
  let rows =
    List.map (run_automaton_domain ~timeout_s ~limit) (automaton_domains ())
  in
  Format.fprintf fmt "  %12s %4s %4s %9s %10s %10s %8s %8s %7s %9s %5s@." "domain" "q"
    "dom" "compile" "e2p-dfs" "e2p-tw" "speedup" "dom-spd" "memo" "memo-kw" "ident";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "  %12s %4d %4d %7.1fms %9.3fs %9.3fs %7.2fx %7.2fx %7d %9.1f %5s@." r.au_domain
        r.au_queries r.au_dominated
        (r.au_compile_s *. 1000.)
        r.au_dfs.a_e2p_s r.au_tw.a_e2p_s
        (r.au_dfs.a_e2p_s /. Float.max r.au_tw.a_e2p_s 1e-9)
        (r.au_dfs.a_dom_e2p_s /. Float.max r.au_tw.a_dom_e2p_s 1e-9)
        r.au_memo.Dggt_autom.Autom.entries
        (float_of_int r.au_memo_words /. 1000.)
        (if r.au_mismatches = [] then "yes" else "NO"))
    rows;
  Format.fprintf fmt "@.";
  let path = "BENCH_automaton.json" in
  let oc = open_out path in
  output_string oc
    (Dggt_server.Jsonio.to_string (automaton_json ~timeout_s rows));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path;
  let failed = ref false in
  List.iter
    (fun r ->
      List.iter
        (fun (text, what) ->
          failed := true;
          Format.eprintf "EQUIVALENCE VIOLATION (%s): %s diverged on %S@."
            r.au_domain what text)
        r.au_mismatches;
      (* on the search-bound domain the table walk's fastest pass must
         beat the DFS's fastest where the DFS actually spends its time *)
      if
        String.lowercase_ascii r.au_domain = "astmatcher"
        && r.au_tw.a_dom_e2p_s >= r.au_dfs.a_dom_e2p_s
      then begin
        failed := true;
        Format.eprintf
          "AUTOMATON REGRESSION (%s): table walk %.3fs not faster than DFS \
           %.3fs on the EdgeToPath-dominated subset@."
          r.au_domain r.au_tw.a_dom_e2p_s r.au_dfs.a_dom_e2p_s
      end)
    rows;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Semiring PathMerge: the pre-semiring DFS-of-record walk (kept as   *)
(* Dggt_eval.Refmerge, on the pairwise-table pruning and quadratic    *)
(* tree check it was written with) vs the production Min_size chart   *)
(* over every domain, byte-identity asserted per query — outcome,     *)
(* failure and statistics alike — plus ranked-mode (Top_k) timing and *)
(* head agreement. The same domain sweep as the automaton gate.       *)
(* ------------------------------------------------------------------ *)

type prow = {
  pm_domain : string;
  pm_queries : int;
  pm_ref_s : float;      (* summed wall time, reference walk *)
  pm_sem_s : float;      (* summed wall time, semiring Min_size *)
  pm_sem_words : float;  (* summed minor words, semiring Min_size *)
  pm_ranked_s : float;   (* summed wall time, Ranked k respond *)
  pm_ranked_words : float;  (* summed minor words, Ranked k respond *)
  pm_ranked_k : int;
  pm_ranked_nonempty : int;
  pm_mismatches : (string * string) list;
  pm_timeout_skips : int;
}

let run_pathmerge_domain ~timeout_s ~limit (dom : Domain.t) =
  let dom =
    if limit >= List.length dom.Domain.queries then dom
    else
      {
        dom with
        Domain.queries = List.filteri (fun i _ -> i < limit) dom.Domain.queries;
      }
  in
  let nq = List.length dom.Domain.queries in
  Format.eprintf "  %s: reference vs semiring PathMerge (%d queries)...@."
    dom.Domain.name nq;
  let ses =
    Domain.configure dom
      { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some timeout_s }
  in
  let k = 5 in
  let ref_s = ref 0.0
  and sem_s = ref 0.0
  and sem_words = ref 0.0
  and ranked_s = ref 0.0
  and ranked_words = ref 0.0
  and ranked_nonempty = ref 0
  and mismatches = ref []
  and skips = ref 0 in
  List.iteri
    (fun i (q : Domain.query) ->
      progress (dom.Domain.name ^ "/pathmerge") (i + 1) nq;
      (* minor words around the engine calls alone: the same code
         allocates the same count on every run *)
      let w0 = Gc.minor_words () in
      let o_sem =
        Engine.respond ses
          { Engine.input = Engine.Text q.Domain.text; mode = Engine.Plain }
      in
      sem_words := !sem_words +. (Gc.minor_words () -. w0);
      let o_ref =
        Engine.synthesize_with_merge ~merge:Refmerge.synthesize
          ses.Engine.cfg ses.Engine.target q.Domain.text
      in
      sem_s := !sem_s +. o_sem.Engine.time_s;
      ref_s := !ref_s +. o_ref.Engine.time_s;
      (* a timeout on either side makes the pair incomparable (the faster
         walk legitimately finishes more), counted instead of flagged *)
      if o_sem.Engine.timed_out || o_ref.Engine.timed_out then incr skips
      else begin
        (match outcome_divergence o_ref o_sem with
        | None -> ()
        | Some what ->
            mismatches := (q.Domain.text, what) :: !mismatches);
        let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
        let rk =
          (Engine.respond ses
             { Engine.input = Engine.Text q.Domain.text; mode = Engine.Ranked k })
            .Engine.ranked
        in
        ranked_words := !ranked_words +. (Gc.minor_words () -. w0);
        ranked_s := !ranked_s +. (Unix.gettimeofday () -. t0);
        if rk <> [] then begin
          incr ranked_nonempty;
          (* the n-best head must be the Min_size codelet *)
          match o_sem.Engine.code with
          | Some c when (List.hd rk).Engine.code <> c ->
              mismatches := (q.Domain.text, "ranked-head") :: !mismatches
          | _ -> ()
        end
      end)
    dom.Domain.queries;
  {
    pm_domain = dom.Domain.name;
    pm_queries = nq;
    pm_ref_s = !ref_s;
    pm_sem_s = !sem_s;
    pm_sem_words = !sem_words;
    pm_ranked_s = !ranked_s;
    pm_ranked_words = !ranked_words;
    pm_ranked_k = k;
    pm_ranked_nonempty = !ranked_nonempty;
    pm_mismatches = List.rev !mismatches;
    pm_timeout_skips = !skips;
  }

(* the checkout's commit, "-dirty" when the tree differs from it;
   "unknown" outside a git checkout *)
let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    let ic =
      Unix.open_process_args_in "git" [| "git"; "describe"; "--always"; "--dirty" |]
    in
    let c = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    c

let pathmerge_json ~timeout_s rows =
  let module J = Dggt_server.Jsonio in
  let f v = J.Num v and i n = J.Num (float_of_int n) in
  J.Obj
    [
      ("bench", J.Str "pathmerge");
      ("timeout_s", f timeout_s);
      ("host_cores", i (Stdlib.Domain.recommended_domain_count ()));
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("commit", J.Str (commit ()));
      ( "domains",
        J.list
          (fun r ->
            J.Obj
              [
                ("name", J.Str r.pm_domain);
                ("queries", i r.pm_queries);
                ("reference_s", f r.pm_ref_s);
                ("semiring_s", f r.pm_sem_s);
                ("semiring_minor_words", f r.pm_sem_words);
                ( "overhead",
                  f (r.pm_sem_s /. Float.max r.pm_ref_s 1e-9) );
                ("ranked_k", i r.pm_ranked_k);
                ("ranked_s", f r.pm_ranked_s);
                ("ranked_minor_words", f r.pm_ranked_words);
                ("ranked_nonempty", i r.pm_ranked_nonempty);
                ("timeout_skips", i r.pm_timeout_skips);
                ("identical", J.Bool (r.pm_mismatches = []));
                ( "mismatches",
                  J.list
                    (fun (text, what) ->
                      J.Obj [ ("query", J.Str text); ("diverged", J.Str what) ])
                    r.pm_mismatches );
              ])
          rows );
    ]

let run_pathmerge ~timeout_s ~limit () =
  hr ();
  Format.fprintf fmt
    "Semiring PathMerge: reference DFS-of-record walk vs generic Min_size \
     chart@.(every domain: built-ins + examples/packs/*; 'identical' = \
     outcomes byte-equal per query including stats, timeouts skipped; \
     ranked = a Ranked 5 respond under Top_k, head must match)@.@.";
  let rows =
    List.map (run_pathmerge_domain ~timeout_s ~limit) (automaton_domains ())
  in
  Format.fprintf fmt "  %12s %4s %10s %10s %8s %10s %6s %10s %10s %5s@." "domain" "q"
    "reference" "semiring" "overhead" "ranked" "n-best" "sem kw" "ranked kw" "ident";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %12s %4d %9.3fs %9.3fs %7.2fx %9.3fs %6d %10.0f %10.0f %5s@."
        r.pm_domain r.pm_queries r.pm_ref_s r.pm_sem_s
        (r.pm_sem_s /. Float.max r.pm_ref_s 1e-9)
        r.pm_ranked_s r.pm_ranked_nonempty
        (r.pm_sem_words /. 1e3) (r.pm_ranked_words /. 1e3)
        (if r.pm_mismatches = [] then "yes" else "NO"))
    rows;
  Format.fprintf fmt "@.";
  let path = "BENCH_pathmerge.json" in
  let oc = open_out path in
  output_string oc
    (Dggt_server.Jsonio.to_string (pathmerge_json ~timeout_s rows));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path;
  let failed = ref false in
  List.iter
    (fun r ->
      List.iter
        (fun (text, what) ->
          failed := true;
          Format.eprintf "EQUIVALENCE VIOLATION (%s): %s diverged on %S@."
            r.pm_domain what text)
        r.pm_mismatches)
    rows;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Warm-start store: cold vs warm server boot over a loopback socket. *)
(* Phase 1 boots with an empty --store, serves every query (checked   *)
(* against a local Engine.respond baseline), replays them as cache    *)
(* hits, and shuts down (spilling the caches' snapshot). Phase 2      *)
(* boots the same store: /metrics must show the snapshot replayed,    *)
(* each domain's first request must already hit, and every            *)
(* warm-served response must be byte-identical to the cold            *)
(* (fresh-synthesis) one on the deterministic fields (code, cgt_size, *)
(* failure, alternatives, stats). Divergence exits non-zero.          *)
(* ------------------------------------------------------------------ *)

module Serve = Dggt_server.Serve
module WHist = Dggt_server.Smetrics.Hist

(* one-shot HTTP/1.1 request over loopback, connection: close *)
let ws_http ~port ~meth ~path ?(body = "") () =
  let module J = Dggt_server.Jsonio in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\
           content-type: application/json\r\ncontent-length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let rec write_all off =
        if off < String.length req then
          write_all (off + Unix.write_substring fd req off (String.length req - off))
      in
      write_all 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      let raw = Buffer.contents buf in
      let status = Scanf.sscanf raw "HTTP/1.1 %d" (fun s -> s) in
      let body =
        let n = String.length raw in
        let rec hdr_end i =
          if i + 4 > n then n
          else if String.sub raw i 4 = "\r\n\r\n" then i + 4
          else hdr_end (i + 1)
        in
        let b = hdr_end 0 in
        String.sub raw b (n - b)
      in
      (status, body))

(* the deterministic slice of a /synthesize response: everything that
   must survive the store byte-for-byte (time_s and cached may differ) *)
type wfields = {
  w_ok : string option;
  w_code : string option;
  w_cgt : string option;
  w_failure : string option;
  w_alts : string option;
  w_stats : string option;
}

let wfields_of j =
  let module J = Dggt_server.Jsonio in
  let m k = Option.map J.to_string (J.member k j) in
  {
    w_ok = m "ok";
    w_code = m "code";
    w_cgt = m "cgt_size";
    w_failure = m "failure";
    w_alts = m "alternatives";
    w_stats = m "stats";
  }

let wfields_diff a b =
  let d n x y = if x = y then [] else [ n ] in
  d "ok" a.w_ok b.w_ok @ d "code" a.w_code b.w_code
  @ d "cgt_size" a.w_cgt b.w_cgt
  @ d "failure" a.w_failure b.w_failure
  @ d "alternatives" a.w_alts b.w_alts
  @ d "stats" a.w_stats b.w_stats

type wphase = {
  wp_create_s : float;    (* Serve.create wall time *)
  wp_first_answers : (string * float) list;
      (* per domain, boot start -> its first answer *)
  wp_first_hit_s : float; (* boot start -> first cached:true response *)
  wp_replay : WHist.t;    (* per-request latency of the replay pass *)
}

(* the value of the /metrics sample named [name] *)
let metric_value name body =
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; v ] when n = name -> int_of_string_opt v
         | _ -> None)

let run_warmstart ~timeout_s ~limit () =
  hr ();
  let module J = Dggt_server.Jsonio in
  Format.fprintf fmt
    "Warm-start store: cold boot (empty store) vs warm boot (same \
     store)@.(both domains, %d queries each; warm responses must be \
     cache hits, byte-identical@.to the cold run's fresh synthesis)@.@."
    limit;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dggt-warmstart-%d" (Unix.getpid ()))
  in
  (* fresh store: wipe any leftover from a crashed earlier run *)
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let params =
    {
      Serve.default_params with
      Serve.port = 0;
      workers = 2;
      queue_capacity = 64;
      cache_size = 512;
      default_timeout_s = timeout_s;
      store_dir = Some dir;
      store_interval_s = 0.0 (* spill on shutdown only: deterministic *);
    }
  in
  let pick (d : Domain.t) =
    d.Domain.queries
    |> List.filter (fun (q : Domain.query) -> not q.Domain.hard)
    |> (fun qs -> List.filteri (fun i _ -> i < limit) qs)
    |> List.map (fun (q : Domain.query) -> (d, q.Domain.text))
  in
  let items = pick Text_editing.domain @ pick Astmatcher.domain in
  (* the first query of each domain, in registry order *)
  let firsts =
    List.filter_map
      (fun (d : Domain.t) ->
        Option.map
          (fun (_, text) -> (d.Domain.name, text))
          (List.find_opt
             (fun ((d' : Domain.t), _) -> d'.Domain.name = d.Domain.name)
             items))
      [ Text_editing.domain; Astmatcher.domain ]
  in
  Format.eprintf "  local baselines for %d queries...@." (List.length items);
  let baselines =
    List.map
      (fun ((d : Domain.t), text) ->
        let ses =
          Domain.configure d
            { (Engine.default Engine.Dggt_alg) with
              Engine.timeout_s = Some timeout_s }
        in
        ( d.Domain.name,
          text,
          (Engine.respond ses
             { Engine.input = Engine.Text text; mode = Engine.Plain })
            .Engine.code ))
      items
  in
  let failed = ref false in
  let fail fmt_ = Format.kasprintf (fun s -> failed := true; Format.eprintf "%s@." s) fmt_ in
  let post_synth ~port ~domain ~text =
    let body =
      J.to_string
        (J.Obj
           [
             ("query", J.Str text);
             ("domain", J.Str domain);
             ("timeout", J.Num timeout_s);
           ])
    in
    let st, b = ws_http ~port ~meth:"POST" ~path:"/synthesize" ~body () in
    if st <> 200 then (fail "POST /synthesize -> %d for %S" st text; None)
    else
      match J.of_string b with
      | Error e -> fail "bad JSON for %S: %s" text e; None
      | Ok j -> Some j
  in
  (* each domain's first answer, timed from the start of Serve.create: the
     server listens before it builds, and each domain answers once its own
     state is built. [hit] is what a warm boot's answers must be. *)
  let first_answers ~port ~t0 ~hit =
    List.map
      (fun (domain, text) ->
        (match post_synth ~port ~domain ~text with
        | Some j when hit && J.bool_field "cached" j <> Some true ->
            fail "warm first request %S missed the cache" text
        | _ -> ());
        (domain, Unix.gettimeofday () -. t0))
      firsts
  in
  (* ---- phase 1: cold ---- *)
  Format.eprintf "  cold boot...@.";
  let t0 = Unix.gettimeofday () in
  let srv = Serve.create params in
  let cold_create_s = Unix.gettimeofday () -. t0 in
  let port = Serve.port srv in
  let cold_firsts = first_answers ~port ~t0 ~hit:false in
  (* prime: every query once, checking against the engine baseline *)
  let expected =
    List.filter_map
      (fun (domain, text, base_code) ->
        match post_synth ~port ~domain ~text with
        | None -> None
        | Some j ->
            if Option.value (J.bool_field "timed_out" j) ~default:false then begin
              (* timeouts are never cached; drop the pair from the replay *)
              Format.eprintf "    (timeout on %S, excluded)@." text;
              None
            end
            else begin
              if J.str_field "code" j <> base_code then
                fail "cold answer diverges from Engine.respond on %S" text;
              Some (domain, text, wfields_of j)
            end)
      baselines
  in
  (* first hit: the first primed query served from the whole-query cache *)
  (match expected with
  | (domain, text, _) :: _ -> (
      match post_synth ~port ~domain ~text with
      | Some j when J.bool_field "cached" j = Some true -> ()
      | Some _ -> fail "cold repeat of %S was not a cache hit" text
      | None -> ())
  | [] -> fail "every query timed out; nothing to persist");
  let cold_first_hit_s = Unix.gettimeofday () -. t0 in
  let cold_replay = WHist.create () in
  List.iter
    (fun (domain, text, _) ->
      let r0 = Unix.gettimeofday () in
      ignore (post_synth ~port ~domain ~text);
      WHist.observe cold_replay (Unix.gettimeofday () -. r0))
    expected;
  Serve.stop srv (* graceful: spills the caches' snapshot *);
  let cold =
    {
      wp_create_s = cold_create_s;
      wp_first_answers = cold_firsts;
      wp_first_hit_s = cold_first_hit_s;
      wp_replay = cold_replay;
    }
  in
  (* ---- phase 2: warm ---- *)
  Format.eprintf "  warm boot (same store)...@.";
  let t0 = Unix.gettimeofday () in
  let srv = Serve.create params in
  let warm_create_s = Unix.gettimeofday () -. t0 in
  let port = Serve.port srv in
  (* the first request must already be a hit, and so must each domain's *)
  let warm_firsts = first_answers ~port ~t0 ~hit:true in
  let warm_first_hit_s =
    match warm_firsts with (_, s) :: _ -> s | [] -> Float.nan
  in
  if
    metric_value "dggt_store_records_loaded_total"
      (snd (ws_http ~port ~meth:"GET" ~path:"/metrics" ()))
    <> Some 1
  then fail "warm boot did not replay the store's snapshot";
  let warm_replay = WHist.create () in
  List.iter
    (fun (domain, text, cold_f) ->
      let r0 = Unix.gettimeofday () in
      let j = post_synth ~port ~domain ~text in
      WHist.observe warm_replay (Unix.gettimeofday () -. r0);
      match j with
      | None -> ()
      | Some j ->
          if J.bool_field "cached" j <> Some true then
            fail "warm replay of %S missed the cache" text;
          match wfields_diff cold_f (wfields_of j) with
          | [] -> ()
          | ds ->
              fail "WARM DIVERGENCE on %S: %s differ" text
                (String.concat ", " ds))
    expected;
  Serve.stop srv;
  let warm =
    {
      wp_create_s = warm_create_s;
      wp_first_answers = warm_firsts;
      wp_first_hit_s = warm_first_hit_s;
      wp_replay = warm_replay;
    }
  in
  (* ---- report ---- *)
  let q h p = 1000. *. WHist.quantile h p in
  Format.fprintf fmt "  %6s %9s %11s %12s %12s@." "phase" "boot(s)"
    "first-hit(s)" "replay p50" "replay p99";
  List.iter
    (fun (name, p) ->
      Format.fprintf fmt "  %6s %9.3f %11.3f %9.2f ms %9.2f ms@." name
        p.wp_create_s p.wp_first_hit_s (q p.wp_replay 0.5)
        (q p.wp_replay 0.99))
    [ ("cold", cold); ("warm", warm) ];
  Format.fprintf fmt "@.  first answer after boot start (s):@.";
  List.iter
    (fun (name, p) ->
      Format.fprintf fmt "  %6s %s@." name
        (String.concat "  "
           (List.map
              (fun (d, s) -> Printf.sprintf "%s %.3f" d s)
              p.wp_first_answers)))
    [ ("cold", cold); ("warm", warm) ];
  Format.fprintf fmt "@.";
  let path = "BENCH_warmstart.json" in
  let phase_json p =
    J.Obj
      [
        ("create_s", J.Num p.wp_create_s);
        ( "first_answer_s",
          J.Obj (List.map (fun (d, s) -> (d, J.Num s)) p.wp_first_answers) );
        ("first_hit_s", J.Num p.wp_first_hit_s);
        ("replay_p50_ms", J.Num (q p.wp_replay 0.5));
        ("replay_p99_ms", J.Num (q p.wp_replay 0.99));
        ("replay_max_ms", J.Num (1000. *. WHist.max_value p.wp_replay));
      ]
  in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("bench", J.Str "warmstart");
            ("timeout_s", J.Num timeout_s);
            ("queries", J.Num (float_of_int (List.length expected)));
            ("cold", phase_json cold);
            ("warm", phase_json warm);
            ("identical", J.Bool (not !failed));
          ]));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path;
  (* leave no temp store behind *)
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat dir f))
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Streaming rank: time-to-first-candidate vs full-search latency     *)
(* over a live SSE stream (/rank?stream=1), plus the byte-identity    *)
(* gate — the terminal [event: done] frame must carry exactly the     *)
(* non-streaming /rank body, and its ranked list must match a local   *)
(* Engine ranked run. Divergence exits non-zero. Both times are the   *)
(* server's, from the stream's trace span: a client on the same host  *)
(* may not be scheduled between two frame writes a fraction of a     *)
(* millisecond apart, and then reads both frames at once.             *)
(* ------------------------------------------------------------------ *)

(* streamed request over loopback: the status and the response's
   chunks in order, one SSE frame each (the server writes one chunk per
   frame) *)
let stream_http ~port ~path ~body () =
  let status, raw = ws_http ~port ~meth:"POST" ~path ~body () in
  let n = String.length raw in
  let rec frames acc cur =
    match String.index_from_opt raw cur '\r' with
    | None -> List.rev acc
    | Some le -> (
        match
          int_of_string_opt ("0x" ^ String.trim (String.sub raw cur (le - cur)))
        with
        | Some size when size > 0 && le + 2 + size + 2 <= n ->
            frames (String.sub raw (le + 2) size :: acc) (le + 2 + size + 2)
        | _ -> List.rev acc)
  in
  (status, if status = 200 then frames [] 0 else [])

(* "event: X\ndata: {json}\n\n" -> (X, json-text) *)
let sse_event frame =
  match String.split_on_char '\n' frame with
  | ev :: data :: _
    when String.length ev > 7
         && String.sub ev 0 7 = "event: "
         && String.length data > 6
         && String.sub data 0 6 = "data: " ->
      Some
        ( String.sub ev 7 (String.length ev - 7),
          String.sub data 6 (String.length data - 6) )
  | _ -> None

type st_row = {
  st_domain : string;
  st_query : string;
  st_frames : int;          (* candidate revisions received *)
  st_ttfc_s : float option; (* first candidate frame produced *)
  st_done_s : float;        (* done frame produced = full-search latency *)
  st_local_s : float;       (* direct Engine ranked run, same k *)
}

(* the newest trace's [Stream] span notes as [(candidates, ttfc_s,
   done_s)], or an error; the stream bench's server keeps one trace, the
   stream it just read *)
let stream_span ~port text =
  let module J = Dggt_server.Jsonio in
  let _, body = ws_http ~port ~meth:"GET" ~path:"/debug/trace" () in
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
              | Some c, Some d ->
                  Ok (int_of_float c, List.assoc_opt "ttfc_s" ns, d)
              | _ -> Error "Stream span without candidates/done_s notes")
          | None -> Error "newest trace has no Stream span")
      | _ -> Error "newest trace is not this stream's")

let run_stream ~timeout_s ~limit () =
  hr ();
  let module J = Dggt_server.Jsonio in
  let module Wire = Dggt_server.Wire in
  let k = 5 in
  Format.fprintf fmt
    "Streaming rank: time-to-first-candidate vs full-search latency@.(both \
     domains, %d queries each over /rank?stream=1, timed when the@.server \
     produced each frame; the [event: done] frame must be@.byte-identical to \
     the non-streaming /rank body, and its ranked list@.identical to a local \
     Engine ranked run)@.@."
    limit;
  let params =
    {
      Serve.default_params with
      Serve.port = 0;
      workers = 2;
      queue_capacity = 64;
      cache_size = 512;
      default_timeout_s = timeout_s;
      trace_buffer = 1;
    }
  in
  let pick (d : Domain.t) =
    d.Domain.queries
    |> List.filter (fun (q : Domain.query) -> not q.Domain.hard)
    |> (fun qs -> List.filteri (fun i _ -> i < limit) qs)
    |> List.map (fun (q : Domain.query) -> (d, q.Domain.text))
  in
  let items = pick Text_editing.domain @ pick Astmatcher.domain in
  let failed = ref false in
  let fail fmt_ =
    Format.kasprintf
      (fun s ->
        failed := true;
        Format.eprintf "%s@." s)
      fmt_
  in
  let srv = Serve.create params in
  let port = Serve.port srv in
  Format.eprintf "  %d queries over loopback port %d...@." (List.length items)
    port;
  let sessions = Hashtbl.create 4 in
  let session_of (d : Domain.t) =
    match Hashtbl.find_opt sessions d.Domain.name with
    | Some s -> s
    | None ->
        let s =
          Domain.configure d
            { (Engine.default Engine.Dggt_alg) with
              Engine.timeout_s = Some timeout_s }
        in
        Hashtbl.add sessions d.Domain.name s;
        s
  in
  let rows =
    List.map
      (fun ((d : Domain.t), text) ->
        let body =
          J.to_string
            (J.Obj
               [
                 ("query", J.Str text);
                 ("domain", J.Str d.Domain.name);
                 ("k", J.Num (float_of_int k));
                 ("timeout", J.Num timeout_s);
               ])
        in
        (* 1. streamed request, then when the server produced its frames *)
        let status, frames =
          stream_http ~port ~path:"/rank?stream=1" ~body ()
        in
        if status <> 200 then fail "stream /rank -> %d for %S" status text;
        let parsed = List.filter_map sse_event frames in
        if List.length parsed <> List.length frames then
          fail "unparseable SSE frame for %S" text;
        let cands = List.filter (fun (e, _) -> e = "candidate") parsed in
        (match List.filter (fun (e, _) -> e = "error") parsed with
        | [] -> ()
        | (_, d_) :: _ -> fail "stream error frame for %S: %s" text d_);
        let ttfc, done_t =
          match stream_span ~port text with
          | Ok (sent, ttfc, done_t) ->
              if sent <> List.length cands then
                fail "%d candidate frames received, the server sent %d on %S"
                  (List.length cands) sent text;
              (ttfc, done_t)
          | Error e ->
              fail "no stream timing for %S: %s" text e;
              (None, 0.0)
        in
        (* interim revisions must be strictly monotone *)
        ignore
          (List.fold_left
             (fun prev (_, data) ->
               match J.of_string data with
               | Ok j -> (
                   match J.int_field "revision" j with
                   | Some r when r > prev -> r
                   | Some r ->
                       fail "revision %d after %d on %S" r prev text;
                       r
                   | None ->
                       fail "candidate frame without revision on %S" text;
                       prev)
               | Error e ->
                   fail "bad candidate JSON on %S: %s" text e;
                   prev)
             0 cands);
        let done_body =
          match List.filter (fun (e, _) -> e = "done") parsed with
          | [ (_, d_) ] -> d_
          | ds ->
              fail "expected exactly one done frame for %S (got %d)" text
                (List.length ds);
              ""
        in
        (* 2. wire-level identity: fresh non-streaming /rank, same body *)
        let st2, b2 = ws_http ~port ~meth:"POST" ~path:"/rank" ~body () in
        if st2 <> 200 then fail "POST /rank -> %d for %S" st2 text;
        if st2 = 200 && done_body <> "" && b2 <> done_body then
          fail
            "STREAM DIVERGENCE on %S: done frame differs from the /rank body"
            text;
        (* 3. engine-level identity: local ranked run, same k *)
        let t0 = Unix.gettimeofday () in
        let o =
          Engine.respond (session_of d)
            { Engine.input = Engine.Text text; mode = Engine.Ranked k }
        in
        let local_s = Unix.gettimeofday () -. t0 in
        (if done_body <> "" then
           match J.of_string done_body with
           | Ok j ->
               let wire_ranked =
                 Option.map J.to_string (J.member "ranked" j)
               in
               let local_ranked =
                 Some (J.to_string (Wire.ranked_json o.Engine.ranked))
               in
               if wire_ranked <> local_ranked then
                 fail
                   "STREAM DIVERGENCE on %S: ranked list differs from a \
                    local ranked run"
                   text
           | Error e -> fail "bad done JSON on %S: %s" text e);
        (match ttfc with
        | Some t when t >= done_t && done_t > 0.0 ->
            fail "TTFC %.3f ms not below full-search %.3f ms on %S"
              (1000. *. t) (1000. *. done_t) text
        | _ -> ());
        {
          st_domain = d.Domain.name;
          st_query = text;
          st_frames = List.length cands;
          st_ttfc_s = ttfc;
          st_done_s = done_t;
          st_local_s = local_s;
        })
      items
  in
  Serve.stop srv;
  let mean = function
    | [] -> 0.0
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  Format.fprintf fmt "  %-12s %8s %12s %12s %12s %9s@." "domain" "queries"
    "ttfc mean" "full mean" "local mean" "speedup";
  let dom_json =
    List.filter_map
      (fun (d : Domain.t) ->
        match List.filter (fun r -> r.st_domain = d.Domain.name) rows with
        | [] -> None
        | rs ->
            let ttfcs = List.filter_map (fun r -> r.st_ttfc_s) rs in
            let ttfc_mean = mean ttfcs in
            let full_mean = mean (List.map (fun r -> r.st_done_s) rs) in
            let local_mean = mean (List.map (fun r -> r.st_local_s) rs) in
            if ttfcs <> [] && ttfc_mean >= full_mean then
              fail "%s: mean TTFC %.1f ms is not below mean full-search %.1f ms"
                d.Domain.name (1000. *. ttfc_mean) (1000. *. full_mean);
            Format.fprintf fmt "  %-12s %8d %9.1f ms %9.1f ms %9.1f ms %8.1fx@."
              d.Domain.name (List.length rs) (1000. *. ttfc_mean)
              (1000. *. full_mean) (1000. *. local_mean)
              (if ttfc_mean > 0. then full_mean /. ttfc_mean else 0.);
            Some
              (J.Obj
                 [
                   ("domain", J.Str d.Domain.name);
                   ("queries", J.Num (float_of_int (List.length rs)));
                   ("with_candidates", J.Num (float_of_int (List.length ttfcs)));
                   ("ttfc_mean_ms", J.Num (1000. *. ttfc_mean));
                   ("full_mean_ms", J.Num (1000. *. full_mean));
                   ("local_mean_ms", J.Num (1000. *. local_mean));
                   ( "speedup_x",
                     J.Num
                       (if ttfc_mean > 0. then full_mean /. ttfc_mean else 0.)
                   );
                 ]))
      [ Text_editing.domain; Astmatcher.domain ]
  in
  Format.fprintf fmt "@.";
  let path = "BENCH_stream.json" in
  let row_json r =
    J.Obj
      [
        ("domain", J.Str r.st_domain);
        ("query", J.Str r.st_query);
        ("candidate_frames", J.Num (float_of_int r.st_frames));
        ("ttfc_ms", J.opt (fun t -> J.Num (1000. *. t)) r.st_ttfc_s);
        ("full_ms", J.Num (1000. *. r.st_done_s));
        ("local_ms", J.Num (1000. *. r.st_local_s));
      ]
  in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("bench", J.Str "stream");
            ("k", J.Num (float_of_int k));
            ("timeout_s", J.Num timeout_s);
            ("domains", J.Arr dom_json);
            ("rows", J.Arr (List.map row_json rows));
            ("identical", J.Bool (not !failed));
          ]));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Sharded serving: the 2-shard router vs the single-process server.  *)
(* Every /rank body, SSE frame sequence (fresh and cache-replayed),   *)
(* and /synthesize deterministic field set must be byte-identical     *)
(* across the two topologies; a worker SIGKILLed under load must cost *)
(* zero failed stateless requests and surface as a respawn in both    *)
(* /version and the merged /metrics. Divergence exits non-zero.       *)
(* ------------------------------------------------------------------ *)

module Router = Dggt_shard.Router
module Sring = Dggt_shard.Ring
module Ssup = Dggt_shard.Supervisor

(* the dggt binary the router's workers run: resolved relative to this
   bench executable inside the same _build tree *)
let worker_exe () =
  let guess =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "dggt_cli.exe")
  in
  if Filename.is_relative guess then Filename.concat (Sys.getcwd ()) guess
  else guess

let run_shard ~timeout_s ~limit () =
  hr ();
  let module J = Dggt_server.Jsonio in
  let k = 5 in
  Format.fprintf fmt
    "Sharded serving: 2-shard router vs the single-process server@.(both \
     domains, %d queries each; /rank bodies and SSE frame sequences@.must \
     be byte-identical across the two topologies, and a worker crash@.under \
     load must cost zero failed stateless requests)@.@."
    limit;
  let exe = worker_exe () in
  if not (Sys.file_exists exe) then begin
    Format.eprintf
      "bench shard: worker binary %s missing (run: dune build bin/dggt_cli.exe)@."
      exe;
    exit 1
  end;
  let failed = ref false in
  let fail fmt_ =
    Format.kasprintf
      (fun s ->
        failed := true;
        Format.eprintf "%s@." s)
      fmt_
  in
  let single =
    Serve.create
      {
        Serve.default_params with
        Serve.port = 0;
        workers = 2;
        queue_capacity = 64;
        cache_size = 512;
        default_timeout_s = timeout_s;
      }
  in
  let sport = Serve.port single in
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
  let pick (d : Domain.t) =
    d.Domain.queries
    |> List.filter (fun (q : Domain.query) -> not q.Domain.hard)
    |> (fun qs -> List.filteri (fun i _ -> i < limit) qs)
    |> List.map (fun (q : Domain.query) -> (d.Domain.name, q.Domain.text))
  in
  let items = pick Text_editing.domain @ pick Astmatcher.domain in
  let rank_body (domain, text) =
    J.to_string
      (J.Obj
         [
           ("query", J.Str text);
           ("domain", J.Str domain);
           ("k", J.Num (float_of_int k));
           ("timeout", J.Num timeout_s);
         ])
  in
  (* ---- identity: every surface, both topologies, byte for byte ---- *)
  Format.eprintf "  identity pass over %d queries...@." (List.length items);
  List.iter
    (fun ((domain, text) as item) ->
      let body = rank_body item in
      (* 1. fresh streams: first contact with this query on both sides,
         so the full candidate-frame sequence is live engine output *)
      let st1, f1 = stream_http ~port:sport ~path:"/rank?stream=1" ~body () in
      let st2, f2 = stream_http ~port:rport ~path:"/rank?stream=1" ~body () in
      if st1 <> 200 then fail "single stream /rank -> %d for %S" st1 text;
      if st2 <> 200 then fail "sharded stream /rank -> %d for %S" st2 text;
      if f1 <> f2 then
        fail
          "SHARD DIVERGENCE on %S: fresh SSE frame sequences differ (%d vs \
           %d frames)"
          text (List.length f1) (List.length f2);
      (* 2. non-streaming /rank: fresh compute, then cached on both *)
      let sa, ba = ws_http ~port:sport ~meth:"POST" ~path:"/rank" ~body () in
      let sb, bb = ws_http ~port:rport ~meth:"POST" ~path:"/rank" ~body () in
      if sa <> 200 then fail "single /rank -> %d for %S" sa text;
      if sb <> 200 then fail "sharded /rank -> %d for %S" sb text;
      if sa = 200 && sb = 200 && ba <> bb then
        fail "SHARD DIVERGENCE on %S: /rank bodies differ" text;
      (* 3. replayed streams: the whole-query cache answers both now *)
      let _, g1 = stream_http ~port:sport ~path:"/rank?stream=1" ~body () in
      let _, g2 = stream_http ~port:rport ~path:"/rank?stream=1" ~body () in
      if g1 <> g2 then
        fail "SHARD DIVERGENCE on %S: replayed SSE frame sequences differ"
          text;
      (* 4. /synthesize: deterministic fields only (time_s may differ) *)
      let sbody =
        J.to_string
          (J.Obj
             [
               ("query", J.Str text);
               ("domain", J.Str domain);
               ("timeout", J.Num timeout_s);
             ])
      in
      let sc, bc =
        ws_http ~port:sport ~meth:"POST" ~path:"/synthesize" ~body:sbody ()
      in
      let sd, bd =
        ws_http ~port:rport ~meth:"POST" ~path:"/synthesize" ~body:sbody ()
      in
      if sc <> 200 || sd <> 200 then
        fail "/synthesize -> %d (single) / %d (sharded) for %S" sc sd text
      else
        match (J.of_string bc, J.of_string bd) with
        | Ok jc, Ok jd -> (
            match wfields_diff (wfields_of jc) (wfields_of jd) with
            | [] -> ()
            | ds ->
                fail "SHARD DIVERGENCE on %S: /synthesize %s differ" text
                  (String.concat ", " ds))
        | Error e, _ | _, Error e ->
            fail "bad /synthesize JSON for %S: %s" text e)
    items;
  (* ---- throughput: cache-hot /rank, same closed loop on both ---- *)
  let qps ~port ~label =
    let threads = 4 and per = 40 in
    let arr = Array.of_list items in
    let errs = Atomic.make 0 in
    let run id =
      for i = 0 to per - 1 do
        let body = rank_body arr.((id + i) mod Array.length arr) in
        match ws_http ~port ~meth:"POST" ~path:"/rank" ~body () with
        | 200, _ -> ()
        | _ -> Atomic.incr errs
        | exception _ -> Atomic.incr errs
      done
    in
    let t0 = Unix.gettimeofday () in
    let ts = List.init threads (fun id -> Thread.create run id) in
    List.iter Thread.join ts;
    let wall = Unix.gettimeofday () -. t0 in
    if Atomic.get errs > 0 then
      fail "%s: %d failed requests during the throughput pass" label
        (Atomic.get errs);
    float_of_int (threads * per) /. wall
  in
  Format.eprintf "  throughput (cache-hot /rank, 4 clients x 40 each)...@.";
  let single_qps = qps ~port:sport ~label:"single" in
  let sharded_qps = qps ~port:rport ~label:"sharded" in
  (* ---- crash under load: SIGKILL the worker serving TextEditing ---- *)
  Format.eprintf "  crash-under-load: SIGKILL the TextEditing worker...@.";
  let te_key = String.lowercase_ascii Text_editing.domain.Domain.name in
  let victim_slot =
    Option.value (Sring.lookup (Router.ring router) te_key) ~default:0
  in
  let victim_pid =
    match Ssup.find (Router.supervisor router) victim_slot with
    | Some w -> w.Ssup.pid
    | None -> -1
  in
  if victim_pid < 0 then fail "no live worker behind slot %d" victim_slot;
  let te_items =
    Array.of_list
      (List.filter
         (fun (d, _) -> d = Text_editing.domain.Domain.name)
         items)
  in
  let stop_clients = Atomic.make false in
  let crash_failures = Atomic.make 0 and crash_total = Atomic.make 0 in
  let client id =
    let i = ref id in
    while not (Atomic.get stop_clients) do
      let body = rank_body te_items.(!i mod Array.length te_items) in
      incr i;
      (match ws_http ~port:rport ~meth:"POST" ~path:"/rank" ~body () with
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
  let ts = List.init 4 (fun id -> Thread.create client id) in
  Thread.delay 0.4;
  if victim_pid > 0 then (
    try Unix.kill victim_pid Sys.sigkill with Unix.Unix_error _ -> ());
  Thread.delay 3.0;
  Atomic.set stop_clients true;
  List.iter Thread.join ts;
  if Atomic.get crash_failures > 0 then
    fail "worker crash cost %d failed stateless requests (of %d)"
      (Atomic.get crash_failures) (Atomic.get crash_total);
  (* the respawn must become visible in the topology and merged metrics *)
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec await () =
    match Ssup.find (Router.supervisor router) victim_slot with
    | Some w when w.Ssup.state = Ssup.Healthy && w.Ssup.respawns >= 1 -> true
    | _ ->
        if Unix.gettimeofday () >= deadline then false
        else begin
          Thread.delay 0.05;
          await ()
        end
  in
  if not (await ()) then
    fail "slot %d did not respawn to healthy within 15 s" victim_slot;
  let respawns =
    match Ssup.find (Router.supervisor router) victim_slot with
    | Some w -> w.Ssup.respawns
    | None -> 0
  in
  let metrics = snd (ws_http ~port:rport ~meth:"GET" ~path:"/metrics" ()) in
  let respawn_line =
    Printf.sprintf "dggt_shard_respawns_total{shard=\"%d\"}" victim_slot
  in
  let reports_respawn =
    String.split_on_char '\n' metrics
    |> List.exists (fun l ->
           String.length l > String.length respawn_line
           && String.sub l 0 (String.length respawn_line) = respawn_line
           && String.trim
                (String.sub l
                   (String.length respawn_line)
                   (String.length l - String.length respawn_line))
              <> "0")
  in
  if not reports_respawn then
    fail "merged /metrics does not report the respawn (%s)" respawn_line;
  Serve.stop single;
  Router.stop router;
  (* ---- report ---- *)
  Format.fprintf fmt "  %-12s %12s@." "topology" "rank qps";
  Format.fprintf fmt "  %-12s %12.1f@." "single" single_qps;
  Format.fprintf fmt "  %-12s %12.1f@." "sharded(2)" sharded_qps;
  Format.fprintf fmt
    "  crash: %d stateless requests across the kill, %d failed, slot %d \
     respawns=%d@.@."
    (Atomic.get crash_total)
    (Atomic.get crash_failures)
    victim_slot respawns;
  let path = "BENCH_shard.json" in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("bench", J.Str "shard");
            ("shards", J.Num 2.0);
            ("timeout_s", J.Num timeout_s);
            ("queries", J.Num (float_of_int (List.length items)));
            ("single_qps", J.Num single_qps);
            ("sharded_qps", J.Num sharded_qps);
            ( "crash",
              J.Obj
                [
                  ("requests", J.Num (float_of_int (Atomic.get crash_total)));
                  ("failures", J.Num (float_of_int (Atomic.get crash_failures)));
                  ("victim_slot", J.Num (float_of_int victim_slot));
                  ("respawns", J.Num (float_of_int respawns));
                ] );
            ("identical", J.Bool (not !failed));
          ]));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per evaluation artifact,   *)
(* measuring the engine work that artifact exercises.                 *)
(* ------------------------------------------------------------------ *)

let synth_once (dom : Domain.t) alg text =
  let ses =
    Domain.configure dom
      { (Engine.default alg) with Engine.timeout_s = Some 20.0 }
  in
  fun () ->
    ignore
      (Engine.respond ses { Engine.input = Engine.Text text; mode = Engine.Plain })

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

let run_micro () =
  hr ();
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

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let timeout_s = ref 20.0 in
  let limit = ref (-1) in
  let rec parse acc = function
    | "--timeout" :: v :: rest ->
        timeout_s := float_of_string v;
        parse acc rest
    | "--limit" :: v :: rest ->
        limit := int_of_string v;
        parse acc rest
    | x :: rest -> parse (x :: acc) rest
    | [] -> List.rev acc
  in
  let targets = match parse [] args with [] -> [ "all" ] | ts -> ts in
  let timeout_s = !timeout_s in
  (* --limit caps queries per domain; each target picks its own default
     (incremental: 8 prefix pairs, automaton: the full query set) *)
  let limit = !limit in
  let runners =
    [
      ("table1", run_table1);
      ("table2", run_table2 ~timeout_s);
      ("table3", run_table3);
      ("fig7", run_fig7 ~timeout_s);
      ("fig8", run_fig8 ~timeout_s);
      ("ablation", run_ablation ~timeout_s);
      ("stages", run_stages ~timeout_s);
      ("parallel", run_parallel ~timeout_s);
      ( "automaton",
        run_automaton ~timeout_s ~limit:(if limit < 0 then max_int else limit) );
      ( "pathmerge",
        run_pathmerge ~timeout_s ~limit:(if limit < 0 then max_int else limit) );
      ( "incremental",
        run_incremental ~timeout_s ~limit:(if limit < 0 then 8 else limit) );
      ( "warmstart",
        run_warmstart ~timeout_s ~limit:(if limit < 0 then 6 else limit) );
      ("stream", run_stream ~timeout_s ~limit:(if limit < 0 then 6 else limit));
      ("shard", run_shard ~timeout_s ~limit:(if limit < 0 then 4 else limit));
      ("smoke", run_smoke ~timeout_s);
      ("micro", run_micro);
      ( "all",
        fun () ->
          run_table1 ();
          run_table2 ~timeout_s ();
          run_table3 ();
          run_fig7 ~timeout_s ();
          run_fig8 ~timeout_s ();
          run_ablation ~timeout_s ();
          run_stages ~timeout_s ();
          run_micro () );
    ]
  in
  (* a misspelled target fails before anything runs *)
  (match List.find_opt (fun t -> not (List.mem_assoc t runners)) targets with
  | Some t ->
      Format.eprintf "unknown target %S (valid: %s)@." t
        (String.concat ", " (List.map fst runners));
      exit 2
  | None -> ());
  List.iter (fun t -> (List.assoc t runners) ()) targets;
  Format.pp_print_flush fmt ()
