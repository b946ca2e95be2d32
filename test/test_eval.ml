(* Tests for the evaluation harness: runner, metrics, report rendering.
   They run on a trimmed copy of the TextEditing domain so the suite stays
   fast; the full sweeps live in bench/main.exe. *)

open Dggt_core
open Dggt_domains
open Dggt_eval

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

let small_te =
  let te = Text_editing.domain in
  { te with Domain.queries = Dggt_util.Listutil.take 12 te.Domain.queries }

let runs =
  lazy
    (let h = Runner.run_domain ~timeout_s:5.0 small_te Engine.Hisyn_alg in
     let d = Runner.run_domain ~timeout_s:5.0 small_te Engine.Dggt_alg in
     (h, d))

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)
(* ------------------------------------------------------------------ *)

let test_runner_shape () =
  let h, d = Lazy.force runs in
  check_i "hisyn covers all queries" 12 (List.length h.Runner.results);
  check_i "dggt covers all queries" 12 (List.length d.Runner.results);
  check_b "names recorded" true
    (h.Runner.domain_name = "TextEditing" && d.Runner.domain_name = "TextEditing");
  (* results come back in query order *)
  List.iter2
    (fun (r : Runner.qresult) (q : Domain.query) ->
      check_i "order preserved" q.Domain.id r.Runner.query.Domain.id)
    d.Runner.results small_te.Domain.queries

let test_runner_metrics_consistency () =
  let _, d = Lazy.force runs in
  check_b "accuracy in [0,1]" true
    (Runner.accuracy d >= 0.0 && Runner.accuracy d <= 1.0);
  check_b "dggt solves most of the easy prefix" true (Runner.accuracy d >= 0.7);
  check_i "dggt has no timeouts on the prefix" 0 (Runner.timeouts d);
  check_b "total time = sum of times" true
    (Float.abs
       (Runner.total_time d -. List.fold_left ( +. ) 0.0 (Runner.times d))
    < 1e-9)

let test_runner_progress () =
  let seen = ref [] in
  let _ =
    Runner.run_domain ~timeout_s:5.0
      ~progress:(fun i n -> seen := (i, n) :: !seen)
      { small_te with Domain.queries = Dggt_util.Listutil.take 3 small_te.Domain.queries }
      Engine.Dggt_alg
  in
  check_i "progress called per query" 3 (List.length !seen);
  check_b "progress counts up to n" true (List.hd !seen = (3, 3))

let test_runner_tweak () =
  (* the tweak hook must actually reach the engine: an impossible step
     budget forces timeouts *)
  let r =
    Runner.run_domain ~timeout_s:5.0
      ~tweak:(fun c -> { c with Engine.max_steps = Some 1 })
      { small_te with Domain.queries = [ List.nth small_te.Domain.queries 0 ] }
      Engine.Hisyn_alg
  in
  check_i "tweaked run times out" 1 (Runner.timeouts r)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_basic_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Metrics.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Metrics.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "median even" 1.5 (Metrics.median [ 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Metrics.maximum [ 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Metrics.mean []);
  Alcotest.(check (float 1e-9)) "empty median" 0.0 (Metrics.median [])

let test_speedups () =
  let h, d = Lazy.force runs in
  let s = Metrics.speedups ~baseline:h ~optimized:d in
  check_b "max >= median" true (s.Metrics.max >= s.Metrics.median);
  check_b "max >= mean" true (s.Metrics.max >= s.Metrics.mean);
  check_b "speedups positive" true (s.Metrics.median > 0.0)

let test_buckets () =
  let _, d = Lazy.force runs in
  let b = Metrics.buckets d in
  check_i "buckets partition the run"
    (List.length d.Runner.results)
    (b.Metrics.under_100ms + b.Metrics.ms100_to_1s + b.Metrics.over_1s
   + b.Metrics.timed_out)

let test_accumulated () =
  let _, d = Lazy.force runs in
  let acc = Metrics.accumulated d in
  check_i "one point per case" (List.length d.Runner.results) (List.length acc);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && monotone rest
    | _ -> true
  in
  check_b "monotone nondecreasing" true (monotone acc);
  Alcotest.(check (float 1e-6))
    "last point = total time" (Runner.total_time d)
    (List.nth acc (List.length acc - 1))

let test_speedups_mismatch () =
  let h, d = Lazy.force runs in
  let shorter = { d with Runner.results = Dggt_util.Listutil.take 3 d.Runner.results } in
  Alcotest.check_raises "mismatched runs rejected"
    (Invalid_argument "Metrics.speedups: runs cover different query sets")
    (fun () -> ignore (Metrics.speedups ~baseline:h ~optimized:shorter))

(* ------------------------------------------------------------------ *)
(* Envelope                                                           *)
(* ------------------------------------------------------------------ *)

let test_envelope_check () =
  let _, d = Lazy.force runs in
  let p95 = Envelope.p95_ms d in
  check_b "p95 positive" true (p95 > 0.0);
  (* generous bounds: inside the envelope, verdict carries measurements *)
  let v =
    Envelope.check
      { Envelope.min_accuracy = Some 0.1; max_p95_ms = Some (p95 +. 1000.0) }
      d
  in
  check_b "inside the envelope" true (Envelope.ok v);
  check_b "verdict carries measurements" true
    (Float.abs (v.Envelope.accuracy -. Runner.accuracy d) < 1e-9
    && Float.abs (v.Envelope.p95_ms -. p95) < 1e-9);
  (* impossible floor and ceiling: one violation each, named *)
  let v =
    Envelope.check
      { Envelope.min_accuracy = Some 1.1; max_p95_ms = Some (p95 /. 1e6) }
      d
  in
  check_i "both axes violated" 2 (List.length v.Envelope.violations);
  check_b "not ok" false (Envelope.ok v);
  let has sub s = Dggt_util.Strutil.contains_sub ~sub s in
  check_b "violations name the keys" true
    (List.exists (has "expect-accuracy") v.Envelope.violations
    && List.exists (has "expect-p95-ms") v.Envelope.violations);
  (* absent bounds opt the axis out *)
  let v =
    Envelope.check { Envelope.min_accuracy = None; max_p95_ms = None } d
  in
  check_b "no bounds, no violations" true (Envelope.ok v)

(* ------------------------------------------------------------------ *)
(* Report rendering                                                   *)
(* ------------------------------------------------------------------ *)

let render f =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let contains s sub = Dggt_util.Strutil.contains_sub ~sub s

let test_table1_renders () =
  let out = render Report.table1 in
  check_b "mentions both domains" true
    (contains out "TextEditing" && contains out "ASTMatcher");
  check_b "mentions paper reference" true (contains out "paper");
  check_b "shows an example codelet" true (contains out "INSERT(")

let test_table2_renders () =
  let h, d = Lazy.force runs in
  let c = { Report.dom = small_te; hisyn = h; dggt = d } in
  let out = render (fun fmt -> Report.table2 fmt [ c ]) in
  check_b "has speedup columns" true (contains out "Speedup");
  check_b "has accuracy columns" true (contains out "Acc");
  check_b "quotes the paper row" true (contains out "1887")

let test_fig7_fig8_render () =
  let h, d = Lazy.force runs in
  let c = { Report.dom = small_te; hisyn = h; dggt = d } in
  let out7 = render (fun fmt -> Report.fig7 fmt c) in
  check_b "fig7 histogram" true (contains out7 "< 0.1 s");
  let out8 = render (fun fmt -> Report.fig8 fmt c) in
  check_b "fig8 columns" true (contains out8 "HISyn (s)")

let test_table3_renders () =
  let out =
    render (fun fmt -> Report.table3 fmt ~ids:[ 1; 2 ] Text_editing.domain)
  in
  check_b "table3 header" true (contains out "gprune");
  check_b "table3 rows" true (contains out "x")

(* ------------------------------------------------------------------ *)
(* Bench ledgers                                                      *)
(* ------------------------------------------------------------------ *)

(* every committed BENCH_<target>.json carries the one header the bench
   harness writes: what ran, on which host and commit, how, and at which
   budget and query limit *)
let test_ledger_headers () =
  let module J = Dggt_server.Jsonio in
  let dir = Filename.parent_dir_name in
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  in
  check_b "ledgers found" true (files <> []);
  List.iter
    (fun f ->
      let target = Filename.chop_suffix (String.sub f 6 (String.length f - 6)) ".json" in
      let j =
        match J.of_string (In_channel.with_open_text (Filename.concat dir f) In_channel.input_all) with
        | Ok j -> j
        | Error e -> Alcotest.failf "%s: %s" f e
      in
      let host = Option.value (J.member "host" j) ~default:J.Null in
      Alcotest.(check (option string)) (f ^ " bench") (Some target) (J.str_field "bench" j);
      check_b (f ^ " host.cores >= 1") true
        (match J.int_field "cores" host with Some n -> n >= 1 | None -> false);
      check_b (f ^ " host.ocaml_version") true (J.str_field "ocaml_version" host <> None);
      check_b (f ^ " host.commit") true (J.str_field "commit" host <> None);
      check_b (f ^ " method") true (J.str_field "method" j <> None);
      check_b (f ^ " timeout_s") true (J.num_field "timeout_s" j <> None);
      check_b (f ^ " limit") true
        (match J.member "limit" j with
        | Some J.Null -> true
        | Some v -> J.int v <> None
        | None -> false))
    files

let suite =
  [
    Alcotest.test_case "bench ledger headers" `Quick test_ledger_headers;
    Alcotest.test_case "runner shape" `Slow test_runner_shape;
    Alcotest.test_case "runner metrics" `Slow test_runner_metrics_consistency;
    Alcotest.test_case "runner progress hook" `Quick test_runner_progress;
    Alcotest.test_case "runner tweak hook" `Quick test_runner_tweak;
    Alcotest.test_case "basic statistics" `Quick test_basic_stats;
    Alcotest.test_case "speedups" `Slow test_speedups;
    Alcotest.test_case "buckets partition" `Slow test_buckets;
    Alcotest.test_case "accumulated curve" `Slow test_accumulated;
    Alcotest.test_case "speedups mismatch rejected" `Slow test_speedups_mismatch;
    Alcotest.test_case "envelope check" `Slow test_envelope_check;
    Alcotest.test_case "table1 renders" `Quick test_table1_renders;
    Alcotest.test_case "table2 renders" `Slow test_table2_renders;
    Alcotest.test_case "fig7/fig8 render" `Slow test_fig7_fig8_render;
    Alcotest.test_case "table3 renders" `Slow test_table3_renders;
  ]
