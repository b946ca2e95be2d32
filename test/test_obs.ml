(* Tests for dggt_obs: span nesting and ordering under a deterministic
   clock, note capping, the optional-sink zero-cost conveniences, the
   trace ring buffer, and the end-to-end [dggt explain] narrative naming
   all six pipeline stages on both benchmark domains. *)

module Trace = Dggt_obs.Trace
module Ring = Dggt_obs.Ring
module Engine = Dggt_core.Engine

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* each call advances time by exactly 1 s; [create] consumes the first
   tick as the origin, so all events land on integral offsets *)
let ticking_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

(* ------------------------------------------------------------------ *)
(* spans                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let s = Trace.create ~clock:(ticking_clock ()) () in
  let a = Trace.enter s "A" in
  let b = Trace.enter s "B" in
  Trace.finish s b;
  let c = Trace.enter s "C" in
  Trace.finish s c;
  Trace.finish s a;
  let t = Trace.result s in
  check_i "three events" 3 (List.length t.Trace.events);
  let ev name = Option.get (Trace.find t name) in
  (* ids follow start order, parents follow nesting *)
  check_i "A id" 0 (ev "A").Trace.id;
  check_b "A top-level" true ((ev "A").Trace.parent = None);
  check_b "B under A" true ((ev "B").Trace.parent = Some 0);
  check_b "C under A" true ((ev "C").Trace.parent = Some 0);
  (* origin=0, A starts t=1, B [2,3], C [4,5], A ends t=6 *)
  check_b "A start" true ((ev "A").Trace.start_s = 1.0);
  check_b "A dur" true ((ev "A").Trace.dur_s = 5.0);
  check_b "B dur" true ((ev "B").Trace.dur_s = 1.0);
  check_b "C start after B" true ((ev "C").Trace.start_s = 4.0);
  (* only parentless events feed the stage histograms *)
  check_b "durations top-level only" true
    (Trace.durations t = [ ("A", 5.0) ])

let test_finish_closes_children () =
  let s = Trace.create ~clock:(ticking_clock ()) () in
  let a = Trace.enter s "A" in
  let _b = Trace.enter s "B" in
  Trace.finish s a;
  (* B was left open: it closes with A's end time *)
  let t = Trace.result s in
  let ev name = Option.get (Trace.find t name) in
  check_b "B closed with A" true
    ((ev "B").Trace.start_s +. (ev "B").Trace.dur_s
    = (ev "A").Trace.start_s +. (ev "A").Trace.dur_s);
  (* finishing again is a no-op, and new spans are top-level now *)
  Trace.finish s a;
  let d = Trace.enter s "D" in
  Trace.finish s d;
  let t = Trace.result s in
  check_b "D top-level" true ((Option.get (Trace.find t "D")).Trace.parent = None)

let test_result_includes_open_spans () =
  let s = Trace.create ~clock:(ticking_clock ()) () in
  let _a = Trace.enter s "A" in
  let t = Trace.result s in
  check_b "open span snapshotted" true (Trace.find t "A" <> None);
  check_b "duration measured to now" true
    ((Option.get (Trace.find t "A")).Trace.dur_s >= 0.0)

let test_note_cap () =
  let s = Trace.create ~clock:(ticking_clock ()) ~max_notes:2 () in
  Trace.span (Some s) "X" (fun sp ->
      Trace.int sp "n1" 1;
      Trace.int sp "n2" 2;
      Trace.int sp "n3" 3;
      Trace.str sp "n4" "four");
  let t = Trace.result s in
  let ev = Option.get (Trace.find t "X") in
  check_b "kept in emission order plus drop count" true
    (ev.Trace.notes
    = [
        ("n1", Trace.Int 1); ("n2", Trace.Int 2); ("notes_dropped", Trace.Int 2);
      ])

let test_optional_sink_off () =
  (* with no sink every convenience is inert and [on] gates eager work *)
  check_b "span off" true (Trace.span None "X" (fun sp -> sp = None));
  Trace.int None "k" 1;
  Trace.str None "k" "v";
  check_b "on None" false (Trace.on None);
  let s = Trace.create () in
  Trace.span (Some s) "X" (fun sp -> check_b "on Some" true (Trace.on sp))

let test_span_closes_on_raise () =
  let s = Trace.create ~clock:(ticking_clock ()) () in
  (try Trace.span (Some s) "X" (fun _ -> raise Exit) with Exit -> ());
  (* X was closed by the protect; the next span is not nested under it *)
  let y = Trace.enter s "Y" in
  Trace.finish s y;
  let t = Trace.result s in
  check_b "Y top-level after raise" true
    ((Option.get (Trace.find t "Y")).Trace.parent = None)

(* ------------------------------------------------------------------ *)
(* ring                                                               *)
(* ------------------------------------------------------------------ *)

let test_ring_eviction () =
  let r = Ring.create ~capacity:3 in
  check_i "capacity" 3 (Ring.capacity r);
  List.iter (Ring.add r) [ 1; 2; 3; 4; 5 ];
  check_i "length bounded" 3 (Ring.length r);
  check_i "total counts evicted" 5 (Ring.total r);
  check_b "snapshot newest first" true (Ring.snapshot r = [ 5; 4; 3 ]);
  Ring.clear r;
  check_i "cleared" 0 (Ring.length r);
  check_b "empty snapshot" true (Ring.snapshot r = [])

let test_ring_disabled () =
  let r = Ring.create ~capacity:0 in
  Ring.add r 1;
  Ring.add r 2;
  check_i "disabled never stores" 0 (Ring.length r);
  check_i "disabled total" 0 (Ring.total r);
  check_b "disabled snapshot" true (Ring.snapshot r = [])

(* ------------------------------------------------------------------ *)
(* the engine under tracing                                           *)
(* ------------------------------------------------------------------ *)

let test_traced_equals_untraced () =
  (* tracing observes; it must not change what the engine produces *)
  let dom = Dggt_domains.Text_editing.domain in
  let ses =
    Dggt_domains.Domain.configure dom
      { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some 10.0 }
  in
  let q = "insert \"-\" at the start of each line" in
  let request = { Engine.input = Engine.Text q; mode = Engine.Plain } in
  let plain = Engine.respond ses request in
  let sink = Trace.create () in
  let traced =
    Engine.respond
      (Engine.with_cfg (fun c -> { c with Engine.trace = Some sink }) ses)
      request
  in
  check_b "same code" true (plain.Engine.code = traced.Engine.code);
  check_b "same cgt size" true (plain.Engine.cgt_size = traced.Engine.cgt_size);
  (* and the trace covers the whole pipeline, stages in order *)
  let t = Trace.result sink in
  check_b "all six stages, in order" true
    (List.map fst (Trace.durations t) = Engine.stage_names)

(* ------------------------------------------------------------------ *)
(* dggt explain, end to end                                           *)
(* ------------------------------------------------------------------ *)

let explain dom q =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let o = Dggt_eval.Explain.run fmt ~timeout_s:20.0 dom q in
  Format.pp_print_flush fmt ();
  (o, Buffer.contents buf)

let check_narrative name out code =
  check_b (name ^ " synthesized") true (code <> None);
  List.iter
    (fun stage ->
      check_b
        (Printf.sprintf "%s narrative names %s" name stage)
        true
        (Dggt_util.Strutil.contains_sub ~sub:stage out))
    Engine.stage_names;
  check_b (name ^ " prints the codelet") true
    (Dggt_util.Strutil.contains_sub ~sub:(Option.get code) out)

let test_explain_text_editing () =
  let o, out =
    explain Dggt_domains.Text_editing.domain
      "insert \"> \" at the start of each line"
  in
  check_narrative "TextEditing" out o.Engine.code

let test_explain_astmatcher () =
  let o, out =
    explain Dggt_domains.Astmatcher.domain
      "find all binary operators named \"*\""
  in
  check_narrative "ASTMatcher" out o.Engine.code

let suite =
  [
    Alcotest.test_case "span nesting and order" `Quick test_span_nesting;
    Alcotest.test_case "finish closes children" `Quick test_finish_closes_children;
    Alcotest.test_case "result snapshots open spans" `Quick
      test_result_includes_open_spans;
    Alcotest.test_case "note cap" `Quick test_note_cap;
    Alcotest.test_case "optional sink off" `Quick test_optional_sink_off;
    Alcotest.test_case "span closes on raise" `Quick test_span_closes_on_raise;
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "ring disabled" `Quick test_ring_disabled;
    Alcotest.test_case "traced = untraced" `Quick test_traced_equals_untraced;
    Alcotest.test_case "explain TextEditing e2e" `Quick test_explain_text_editing;
    Alcotest.test_case "explain ASTMatcher e2e" `Quick test_explain_astmatcher;
  ]
