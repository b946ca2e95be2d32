open Dggt_core
open Dggt_domains

type comparison = { dom : Domain.t; hisyn : Runner.run; dggt : Runner.run }

let domains () = [ Text_editing.domain; Astmatcher.domain ]

let compare_domain ?(timeout_s = 20.0) ?(progress = fun _ _ _ -> ()) dom =
  let hisyn =
    Runner.run_domain ~timeout_s ~progress:(progress "hisyn") dom Engine.Hisyn_alg
  in
  let dggt =
    Runner.run_domain ~timeout_s ~progress:(progress "dggt") dom Engine.Dggt_alg
  in
  { dom; hisyn; dggt }

(* ------------------------------------------------------------------ *)
(* Table I                                                            *)
(* ------------------------------------------------------------------ *)

let table1 fmt =
  Format.fprintf fmt "Table I: testing domains and test cases@.";
  Format.fprintf fmt
    "  (paper: TextEditing 52 APIs / 200 queries; ASTMatcher 505 APIs / 100 queries)@.@.";
  Format.fprintf fmt "  %-12s %7s %9s  %s@." "Domain" "#APIs" "#Queries" "Source";
  List.iter
    (fun (d : Domain.t) ->
      Format.fprintf fmt "  %-12s %7d %9d  %s@." d.Domain.name (Domain.api_count d)
        (Domain.query_count d) d.Domain.source)
    (domains ());
  Format.fprintf fmt "@.  Example queries and codelets:@.";
  List.iter
    (fun (d : Domain.t) ->
      List.iteri
        (fun i (q : Domain.query) ->
          if i < 3 then
            Format.fprintf fmt "  [%s] %s@.      => %s@." d.Domain.name
              q.Domain.text q.Domain.expected)
        d.Domain.queries)
    (domains ())

(* ------------------------------------------------------------------ *)
(* Table II                                                           *)
(* ------------------------------------------------------------------ *)

(* the paper's laptop rows, for side-by-side printing *)
let paper_table2 = function
  | "ASTMatcher" -> Some (537.7, 25.02, 3.463, 0.744, 0.765)
  | "TextEditing" -> Some (1887.0, 133.2, 12.86, 0.675, 0.791)
  | _ -> None

let table2 fmt comparisons =
  Format.fprintf fmt
    "Table II: performance comparison (%.0f s timeout; paper laptop row in parentheses)@.@."
    (match comparisons with c :: _ -> c.hisyn.Runner.timeout_s | [] -> 20.0);
  Format.fprintf fmt "  %-12s %22s %22s %22s %18s %18s@." "Domain" "Speedup max"
    "Speedup mean" "Speedup median" "Acc HISyn" "Acc DGGT";
  List.iter
    (fun c ->
      let s = Metrics.speedups ~baseline:c.hisyn ~optimized:c.dggt in
      let fmt_pair mine paper = Printf.sprintf "%10.1f (%8.1f)" mine paper in
      let fmt_acc mine paper = Printf.sprintf "%6.3f (%6.3f)" mine paper in
      match paper_table2 c.dom.Domain.name with
      | Some (pmax, pmean, pmed, phacc, pdacc) ->
          Format.fprintf fmt "  %-12s %22s %22s %22s %18s %18s@."
            c.dom.Domain.name
            (fmt_pair s.Metrics.max pmax)
            (fmt_pair s.Metrics.mean pmean)
            (fmt_pair s.Metrics.median pmed)
            (fmt_acc (Runner.accuracy c.hisyn) phacc)
            (fmt_acc (Runner.accuracy c.dggt) pdacc)
      | None ->
          Format.fprintf fmt "  %-12s %22.1f %22.1f %22.1f %18.3f %18.3f@."
            c.dom.Domain.name s.Metrics.max s.Metrics.mean s.Metrics.median
            (Runner.accuracy c.hisyn) (Runner.accuracy c.dggt))
    comparisons;
  List.iter
    (fun c ->
      Format.fprintf fmt
        "  [%s] HISyn: %.1f s total, %d timeouts | DGGT: %.2f s total, %d timeouts@."
        c.dom.Domain.name (Runner.total_time c.hisyn) (Runner.timeouts c.hisyn)
        (Runner.total_time c.dggt) (Runner.timeouts c.dggt))
    comparisons

(* ------------------------------------------------------------------ *)
(* Table III                                                          *)
(* ------------------------------------------------------------------ *)

let run_one (dom : Domain.t) algorithm ~timeout_s (q : Domain.query) =
  Engine.respond
    (Domain.configure dom
       { (Engine.default algorithm) with Engine.timeout_s = Some timeout_s })
    { Engine.input = Engine.Text q.Domain.text; mode = Engine.Plain }

(* Hard-case selection: the combination product the baseline faces, probed
   with a tiny step budget (the product is recorded before enumeration). *)
let combos_possible dom (q : Domain.query) =
  let o =
    Engine.respond
      (Domain.configure dom
         {
           (Engine.default Engine.Hisyn_alg) with
           Engine.timeout_s = None;
           max_steps = Some 2_000;
         })
      { Engine.input = Engine.Text q.Domain.text; mode = Engine.Plain }
  in
  o.Engine.stats.Stats.hisyn_combos_possible

let table3 fmt ?ids (dom : Domain.t) =
  let queries =
    match ids with
    | Some ids ->
        List.filter (fun (q : Domain.query) -> List.mem q.Domain.id ids)
          dom.Domain.queries
    | None ->
        dom.Domain.queries
        |> List.map (fun q -> (combos_possible dom q, q))
        |> List.sort (fun (a, _) (b, _) -> compare b a)
        |> Dggt_util.Listutil.take 4
        |> List.map snd
  in
  Format.fprintf fmt
    "Table III: detailed DGGT results on hard cases (%s)@." dom.Domain.name;
  Format.fprintf fmt
    "  (paper cases 1-4: combos 3.8e6..1.3e10, >90%% pruned, speedups 1887x-8186x)@.@.";
  Format.fprintf fmt "  %4s %5s %9s %12s | %9s %9s %8s %8s %7s | %9s@."
    "id" "#edge" "#path" "#comb" "#path'" "#comb'" "gprune" "sprune" "remain"
    "speedup";
  List.iter
    (fun (q : Domain.query) ->
      let h = run_one dom Engine.Hisyn_alg ~timeout_s:20.0 q in
      let d = run_one dom Engine.Dggt_alg ~timeout_s:20.0 q in
      let hs = h.Engine.stats and ds = d.Engine.stats in
      let speedup = h.Engine.time_s /. Float.max d.Engine.time_s 1e-6 in
      Format.fprintf fmt "  %4d %5d %9d %12d | %9d %9d %8d %8d %7d | %8.1fx%s@."
        q.Domain.id hs.Stats.dep_edges hs.Stats.orig_paths
        hs.Stats.hisyn_combos_possible ds.Stats.paths_after_reloc
        ds.Stats.combos_total (Stats.gprune_removed ds) (Stats.sprune_removed ds)
        ds.Stats.combos_after_sprune speedup
        (if h.Engine.timed_out then " (baseline timed out)" else ""))
    queries

(* ------------------------------------------------------------------ *)
(* Figures                                                            *)
(* ------------------------------------------------------------------ *)

let bar fmt label count total =
  let width = if total = 0 then 0 else count * 50 / total in
  Format.fprintf fmt "  %-14s %4d  %s@." label count (String.make width '#')

let fig7 fmt c =
  Format.fprintf fmt "Figure 7: execution-time distribution (%s)@."
    c.dom.Domain.name;
  Format.fprintf fmt
    "  (paper, laptop: DGGT finishes ~74-89%% of cases under 0.1 s; HISyn ~45-59%%)@.";
  let show name run =
    let b = Metrics.buckets run in
    let total = List.length run.Runner.results in
    Format.fprintf fmt "  %s:@." name;
    bar fmt "< 0.1 s" b.Metrics.under_100ms total;
    bar fmt "0.1 - 1 s" b.Metrics.ms100_to_1s total;
    bar fmt "1 s - limit" b.Metrics.over_1s total;
    bar fmt "timeout" b.Metrics.timed_out total;
    Format.fprintf fmt "  (under 0.1 s: %.1f%%)@.@."
      (100.0 *. float_of_int b.Metrics.under_100ms /. float_of_int (max 1 total))
  in
  show "HISyn" c.hisyn;
  show "DGGT" c.dggt

let fig8 fmt c =
  Format.fprintf fmt "Figure 8: accumulated execution time (%s)@." c.dom.Domain.name;
  Format.fprintf fmt
    "  (paper: DGGT's curve rises far slower than HISyn's on both domains)@.@.";
  let acc_h = Array.of_list (Metrics.accumulated c.hisyn) in
  let acc_d = Array.of_list (Metrics.accumulated c.dggt) in
  let n = Array.length acc_h in
  Format.fprintf fmt "  %8s %14s %14s@." "case" "HISyn (s)" "DGGT (s)";
  let steps = 10 in
  for i = 1 to steps do
    let idx = min (n - 1) ((i * n / steps) - 1) in
    if idx >= 0 then
      Format.fprintf fmt "  %8d %14.2f %14.4f@." (idx + 1) acc_h.(idx) acc_d.(idx)
  done

(* ------------------------------------------------------------------ *)
(* Per-stage latency                                                  *)
(* ------------------------------------------------------------------ *)

let stage_table fmt ?(timeout_s = 20.0) (dom : Domain.t) =
  let r = Runner.run_domain ~timeout_s ~stage_timing:true dom Engine.Dggt_alg in
  let means = Runner.stage_means r in
  let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 means in
  let maxima =
    List.map
      (fun (stage, _) ->
        ( stage,
          List.fold_left
            (fun acc (q : Runner.qresult) ->
              match List.assoc_opt stage q.Runner.stage_s with
              | Some d -> Float.max acc d
              | None -> acc)
            0.0 r.Runner.results ))
      means
  in
  Format.fprintf fmt
    "Per-stage latency: DGGT engine, %s (%d queries, %.0f s timeout)@.@."
    dom.Domain.name
    (List.length r.Runner.results)
    timeout_s;
  Format.fprintf fmt "  %-16s %12s %12s %7s@." "stage" "mean (ms)" "max (ms)"
    "share";
  List.iter
    (fun (stage, mean) ->
      Format.fprintf fmt "  %-16s %12.3f %12.3f %6.1f%%@." stage (mean *. 1e3)
        (1e3 *. Option.value (List.assoc_opt stage maxima) ~default:0.0)
        (100.0 *. mean /. Float.max total 1e-12))
    means

(* ------------------------------------------------------------------ *)
(* Ablation                                                           *)
(* ------------------------------------------------------------------ *)

let ablation fmt ?(timeout_s = 20.0) dom =
  Format.fprintf fmt
    "Ablation: DGGT with each optimization disabled (%s, %.0f s timeout)@.@."
    dom.Domain.name timeout_s;
  Format.fprintf fmt "  %-24s %10s %9s %9s %12s@." "configuration" "total(s)"
    "timeouts" "accuracy" "merges";
  let variants =
    [
      ("full DGGT", Fun.id);
      ( "no grammar pruning",
        fun (c : Engine.config) -> { c with Engine.gprune = false } );
      ( "no size pruning",
        fun (c : Engine.config) -> { c with Engine.sprune = false } );
      ( "no orphan relocation",
        fun (c : Engine.config) -> { c with Engine.orphan_reloc = false } );
      ( "no pruning at all",
        fun (c : Engine.config) ->
          { c with Engine.gprune = false; sprune = false } );
    ]
  in
  List.iter
    (fun (name, tweak) ->
      let r = Runner.run_domain ~timeout_s ~tweak dom Engine.Dggt_alg in
      let merges =
        List.fold_left
          (fun acc (q : Runner.qresult) ->
            acc + q.Runner.outcome.Engine.stats.Stats.combos_merged)
          0 r.Runner.results
      in
      Format.fprintf fmt "  %-24s %10.2f %9d %9.3f %12d@." name
        (Runner.total_time r) (Runner.timeouts r) (Runner.accuracy r) merges)
    variants
