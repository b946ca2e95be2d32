(* Tests for dggt_inc: revision diffing, session reuse, the whole-suffix
   splice, trace notes, and the equivalence guarantee — the incremental
   path must be byte-identical to a from-scratch run, property-tested over
   random edit scripts on both benchmark domains. *)

module Engine = Dggt_core.Engine
module Stats = Dggt_core.Stats
module Trace = Dggt_obs.Trace
module Diff = Dggt_inc.Diff
module Session = Dggt_inc.Session
module Reuse = Dggt_inc.Reuse
module Token = Dggt_nlu.Token
module Tokenizer = Dggt_nlu.Tokenizer

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let te = Dggt_domains.Text_editing.domain
let am = Dggt_domains.Astmatcher.domain

let base_session ?(timeout = 10.0) dom =
  Dggt_domains.Domain.configure dom
    { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some timeout }

let text ?(mode = Engine.Plain) q = { Engine.input = Engine.Text q; mode }

(* the from-scratch outcome a session revision must equal *)
let scratch ses q = Engine.respond ses (text q)

(* the top-5 codes of a ranked respond, from scratch or through a session *)
let top5 respond q =
  List.map
    (fun (r : Engine.ranked) -> r.Engine.code)
    (respond (text ~mode:(Engine.Ranked 5) q)).Engine.ranked

(* ------------------------------------------------------------------ *)
(* diff                                                               *)
(* ------------------------------------------------------------------ *)

let test_diff_tokens () =
  let tk s = Tokenizer.tokenize s in
  (* pure append *)
  let d = Diff.tokens ~prev:(tk "delete all numbers")
      ~next:(tk "delete all the numbers") in
  check_i "kept" 3 d.Diff.kept;
  check_i "added" 1 d.Diff.added;
  check_i "removed" 0 d.Diff.removed;
  (* an early insertion still matches every later token: indices do not
     participate in the LCS equality *)
  let d = Diff.tokens ~prev:(tk "print every line")
      ~next:(tk "now print every line") in
  check_i "insert kept" 3 d.Diff.kept;
  check_i "insert added" 1 d.Diff.added;
  (* matched pairs are ascending on both sides *)
  let ascending ps =
    let rec go = function
      | (a, b) :: ((c, d) :: _ as rest) -> a < c && b < d && go rest
      | _ -> true
    in
    go ps
  in
  check_b "pairs ascending" true (ascending d.Diff.pairs);
  check_i "pair count = kept" d.Diff.kept (List.length d.Diff.pairs);
  (* replacement *)
  let d = Diff.tokens ~prev:(tk "delete all numbers")
      ~next:(tk "select all numbers") in
  check_i "replace kept" 2 d.Diff.kept;
  check_i "replace added" 1 d.Diff.added;
  check_i "replace removed" 1 d.Diff.removed;
  (* first revision against nothing *)
  let d = Diff.tokens ~prev:[] ~next:(tk "delete all numbers") in
  check_i "empty prev kept" 0 d.Diff.kept;
  check_i "empty prev added" 3 d.Diff.added

let test_diff_equivalent () =
  let cfg = (base_session te).Engine.cfg in
  let pruned q = Engine.prune cfg (Engine.parse cfg q) in
  let q = "delete all numbers in every line" in
  check_b "same query equivalent" true
    (Diff.equivalent ~prev:(pruned q) ~next:(pruned q));
  (* trailing punctuation is dropped by pruning: the graphs stay
     equivalent even though the token streams differ *)
  check_b "punct-only edit equivalent" true
    (Diff.equivalent ~prev:(pruned q) ~next:(pruned (q ^ " .")));
  (* a content-word change is not equivalent *)
  check_b "content edit not equivalent" false
    (Diff.equivalent ~prev:(pruned q)
       ~next:(pruned "select all numbers in every line"));
  check_b "append not equivalent" false
    (Diff.equivalent ~prev:(pruned "delete all numbers") ~next:(pruned q))

(* ------------------------------------------------------------------ *)
(* outcome equality — the equivalence guarantee's yardstick            *)
(* ------------------------------------------------------------------ *)

let outcome_equal (a : Engine.outcome) (b : Engine.outcome) =
  a.Engine.code = b.Engine.code
  && a.Engine.cgt_size = b.Engine.cgt_size
  && a.Engine.failure = b.Engine.failure
  && a.Engine.timed_out = b.Engine.timed_out
  && Stats.equal a.Engine.stats b.Engine.stats

(* ------------------------------------------------------------------ *)
(* session reuse                                                      *)
(* ------------------------------------------------------------------ *)

let test_session_append_reuse () =
  let base = base_session te in
  let s = Session.create base in
  let q1 = "insert \"> \" at the start" in
  let q2 = "insert \"> \" at the start of each line" in
  let o1, r1 = Session.query s q1 in
  check_i "rev 1" 1 r1.Reuse.revision;
  check_b "rev 1 no splice" false r1.Reuse.splice;
  check_b "rev 1 computed words" true (r1.Reuse.words.Reuse.computed > 0);
  check_b "rev 1 matches scratch" true (outcome_equal o1 (scratch base q1));
  let o2, r2 = Session.query s q2 in
  check_i "rev 2" 2 r2.Reuse.revision;
  check_b "rev 2 reused words" true (r2.Reuse.words.Reuse.reused > 0);
  check_b "rev 2 token diff adds" true (r2.Reuse.tokens_added > 0);
  check_i "rev 2 removed none" 0 r2.Reuse.tokens_removed;
  check_b "rev 2 matches scratch" true (outcome_equal o2 (scratch base q2));
  check_i "revisions" 2 (Session.revisions s)

(* on an append-one-word revision the session must hit strictly fewer
   EdgeToPath searches than a from-scratch run of the same query *)
let test_session_fewer_searches () =
  let base = base_session te in
  let q1 = "delete all numbers in every" in
  let q2 = "delete all numbers in every line" in
  let s = Session.create base in
  ignore (Session.query s q1);
  let _, r2 = Session.query s q2 in
  (* count the scratch run's searches through a transparent hook *)
  let searches = ref 0 in
  let counting =
    {
      base with
      Engine.target =
        {
          base.Engine.target with
          Engine.caches =
            {
              Engine.word2api = None;
              edge2path =
                Some
                  (fun ~src:_ ~dst:_ compute ->
                    incr searches;
                    compute ());
            };
        };
    }
  in
  ignore (scratch counting q2);
  check_b
    (Printf.sprintf "incremental searches %d < scratch %d"
       r2.Reuse.pairs.Reuse.computed !searches)
    true
    (r2.Reuse.pairs.Reuse.computed < !searches)

let test_session_splice () =
  let base = base_session te in
  let s = Session.create base in
  let q = "delete all numbers in every line" in
  let o1, _ = Session.query s q in
  (* punctuation-only edit: the pruned graph is unchanged, so stages 3-6
     are skipped and the previous outcome is replayed *)
  let o2, r2 = Session.query s (q ^ " .") in
  check_b "spliced" true r2.Reuse.splice;
  check_i "no word lookups" 0 (Reuse.total r2.Reuse.words);
  check_i "no pair lookups" 0 (Reuse.total r2.Reuse.pairs);
  check_i "dgg rows replayed" o1.Engine.stats.Stats.dgg_nodes
    r2.Reuse.dgg_rows.Reuse.reused;
  check_i "nothing recomputed" 0 r2.Reuse.dgg_rows.Reuse.computed;
  check_b "spliced outcome matches" true (outcome_equal o1 o2);
  check_b "stats are a copy, not shared" true
    (o1.Engine.stats != o2.Engine.stats);
  (* a result-affecting config change must disarm the splice *)
  let o3, r3 =
    Session.query ~tweak:(fun c -> { c with Engine.top_k = c.Engine.top_k + 1 })
      s (q ^ " .")
  in
  check_b "cfg change disarms splice" false r3.Reuse.splice;
  check_b "recomputed under new cfg" true
    (outcome_equal o3
       (scratch
          (Engine.with_cfg
             (fun c -> { c with Engine.top_k = c.Engine.top_k + 1 })
             base)
          (q ^ " .")))

let test_session_table_invalidation () =
  let base = base_session te in
  let s = Session.create base in
  let q = "delete all numbers" in
  ignore (Session.query s q);
  (* changing the path limits invalidates the word/pair tables: nothing
     may be served from entries built under the old limits *)
  let tweak c =
    let l = c.Engine.path_limits in
    let max_paths = l.Dggt_grammar.Gpath.max_paths - 1 in
    { c with Engine.path_limits = { l with Dggt_grammar.Gpath.max_paths } }
  in
  let o2, r2 = Session.query ~tweak s q in
  check_b "no splice across a path-limits change" false r2.Reuse.splice;
  check_b "words recomputed" true (r2.Reuse.words.Reuse.computed > 0);
  check_b "pairs recomputed" true (r2.Reuse.pairs.Reuse.computed > 0);
  check_b "matches scratch under the new limits" true
    (outcome_equal o2 (scratch (Engine.with_cfg tweak base) q));
  (* the same tweak again on an identical query splices (cfg now matches) *)
  let _, r3 = Session.query ~tweak s q in
  check_b "repeat under same tweak splices" true r3.Reuse.splice;
  (* and on an append it serves from the tables rebuilt under the tweak *)
  let _, r4 = Session.query ~tweak s (q ^ " in every line") in
  check_b "tables valid under repeated tweak" true
    (r4.Reuse.words.Reuse.reused > 0)

let test_session_reset () =
  let base = base_session te in
  let s = Session.create base in
  let q = "delete all numbers" in
  ignore (Session.query s q);
  Session.reset s;
  check_i "revisions cleared" 0 (Session.revisions s);
  let _, r = Session.query s q in
  check_i "fresh rev 1" 1 r.Reuse.revision;
  check_b "no splice after reset" false r.Reuse.splice

let test_session_ranked () =
  let base = base_session te in
  let s = Session.create base in
  let q = "delete all numbers in every line" in
  ignore (Session.query s q);
  let revs = Session.revisions s in
  check_b "ranked equals scratch" true
    (top5 (Session.respond s) q = top5 (Engine.respond base) q);
  check_i "ranked does not advance revisions" revs (Session.revisions s)

let test_session_trace_notes () =
  let base = base_session te in
  let s = Session.create base in
  let q = "delete all numbers" in
  let run_traced query =
    let sink = Trace.create () in
    let _, r =
      Session.query ~tweak:(fun c -> { c with Engine.trace = Some sink }) s
        query
    in
    (Trace.result sink, r)
  in
  let tr, r1 = run_traced q in
  (match Trace.find tr "IncrementalReuse" with
  | None -> Alcotest.fail "IncrementalReuse span missing"
  | Some ev ->
      let note k = List.assoc_opt k ev.Trace.notes in
      check_b "revision note" true (note "revision" = Some (Trace.Int 1));
      check_b "splice note" true (note "splice" = Some (Trace.Bool false));
      check_b "words_computed note" true
        (note "words_computed"
        = Some (Trace.Int r1.Reuse.words.Reuse.computed));
      check_b "pairs_reused note" true
        (note "pairs_reused" = Some (Trace.Int r1.Reuse.pairs.Reuse.reused)));
  (* the stage spans still surround the reuse span on the compute path *)
  check_b "stage spans present" true
    (List.for_all
       (fun st -> Trace.find tr st <> None)
       Engine.stage_names);
  let tr2, _ = run_traced (q ^ " .") in
  match Trace.find tr2 "IncrementalReuse" with
  | None -> Alcotest.fail "IncrementalReuse span missing on splice"
  | Some ev ->
      check_b "splice note true" true
        (List.assoc_opt "splice" ev.Trace.notes = Some (Trace.Bool true));
      (* spliced revisions skip stages 3-6 *)
      check_b "no EdgeToPath span on splice" true
        (Trace.find tr2 "EdgeToPath" = None)

(* ------------------------------------------------------------------ *)
(* equivalence property over random edit scripts                      *)
(* ------------------------------------------------------------------ *)

(* split a query into edit units, never breaking a quoted literal *)
let edit_chunks q =
  let out = ref [] and buf = Buffer.create 16 and quoted = ref false in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c ->
      if c = '"' then begin
        quoted := not !quoted;
        Buffer.add_char buf c
      end
      else if c = ' ' && not !quoted then flush ()
      else Buffer.add_char buf c)
    q;
  flush ();
  List.rev !out

type op = Append | Drop | Punct

(* a seed picks the query and drives the edit script deterministically *)
let script_gen =
  QCheck.Gen.(
    triple (oneofl [ `Te; `Am ]) nat
      (list_size (1 -- 4) (oneofl [ Append; Drop; Punct ])))

let revisions_of_script dom qidx ops =
  let qs =
    List.filter
      (fun q -> not q.Dggt_domains.Domain.hard)
      dom.Dggt_domains.Domain.queries
  in
  let q = (List.nth qs (qidx mod List.length qs)).Dggt_domains.Domain.text in
  let chunks = Array.of_list (edit_chunks q) in
  let n = Array.length chunks in
  let prefix k =
    String.concat " " (Array.to_list (Array.sub chunks 0 k))
  in
  let k = ref (max 1 (n - List.length ops)) in
  let revs = ref [ prefix !k ] in
  List.iter
    (fun op ->
      match op with
      | Append ->
          k := min n (!k + 1);
          revs := prefix !k :: !revs
      | Drop ->
          k := max 1 (!k - 1);
          revs := prefix !k :: !revs
      | Punct -> revs := (prefix !k ^ " .") :: !revs)
    ops;
  List.rev !revs

let prop_edit_script_equivalence =
  QCheck.Test.make
    ~name:"incremental output is byte-identical over random edit scripts"
    ~count:10
    (QCheck.make script_gen
       ~print:(fun (d, q, ops) ->
         Printf.sprintf "(%s, q%d, [%s])"
           (match d with `Te -> "te" | `Am -> "am")
           q
           (String.concat ";"
              (List.map
                 (function
                   | Append -> "append" | Drop -> "drop" | Punct -> "punct")
                 ops))))
    (fun (which, qidx, ops) ->
      let dom = match which with `Te -> te | `Am -> am in
      let base = base_session ~timeout:5.0 dom in
      let s = Session.create base in
      List.for_all
        (fun rev ->
          let inc, _ = Session.query s rev in
          let full = scratch base rev in
          (* a timeout on either side makes the comparison indeterminate *)
          inc.Engine.timed_out || full.Engine.timed_out
          || outcome_equal inc full)
        (revisions_of_script dom qidx ops))

(* ranking equivalence rides the same session state: after an edit script,
   ranked hints through the warm tables equal the scratch ranking *)
let test_ranked_equivalence_both_domains () =
  List.iter
    (fun dom ->
      let base = base_session dom in
      let qs =
        List.filter
          (fun q -> not q.Dggt_domains.Domain.hard)
          dom.Dggt_domains.Domain.queries
      in
      let q = (List.hd qs).Dggt_domains.Domain.text in
      let chunks = edit_chunks q in
      let prefixq =
        String.concat " "
          (List.filteri (fun i _ -> i < max 1 (List.length chunks - 1)) chunks)
      in
      let s = Session.create base in
      ignore (Session.query s prefixq);
      ignore (Session.query s q);
      check_b
        (dom.Dggt_domains.Domain.name ^ " ranked matches scratch")
        true
        (top5 (Session.respond s) q = top5 (Engine.respond base) q))
    [ te; am ]

let suite =
  [
    Alcotest.test_case "diff tokens (LCS)" `Quick test_diff_tokens;
    Alcotest.test_case "diff pruned-graph equivalence" `Quick
      test_diff_equivalent;
    Alcotest.test_case "session append reuse" `Quick test_session_append_reuse;
    Alcotest.test_case "session fewer searches than scratch" `Quick
      test_session_fewer_searches;
    Alcotest.test_case "session splice" `Quick test_session_splice;
    Alcotest.test_case "session table invalidation" `Quick
      test_session_table_invalidation;
    Alcotest.test_case "session reset" `Quick test_session_reset;
    Alcotest.test_case "session ranked" `Quick test_session_ranked;
    Alcotest.test_case "session trace notes" `Quick test_session_trace_notes;
    Alcotest.test_case "ranked equivalence (both domains)" `Quick
      test_ranked_equivalence_both_domains;
    QCheck_alcotest.to_alcotest prop_edit_script_equivalence;
  ]
