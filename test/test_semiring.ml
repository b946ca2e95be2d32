(* Tests for the PathMerge semiring: cell semantics per objective, the
   byte-identity of the Min_size chart against the preserved pre-semiring
   walk (Dggt_eval.Refmerge) — on sampled queries, on random queries, and
   through lib/inc sessions over random edit scripts — and the soundness
   of the Top_k n-best (sorted, bounded, duplicate-free, head = the plain
   run's codelet). DGGT_GOLDEN_FULL=1 widens the sampled sweeps to every
   benchmark query. *)

module Semiring = Dggt_core.Semiring
module Cgt = Dggt_core.Cgt
module Engine = Dggt_core.Engine
module Stats = Dggt_core.Stats
module Session = Dggt_inc.Session
module Domain = Dggt_domains.Domain

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let te = Dggt_domains.Text_editing.domain
let am = Dggt_domains.Astmatcher.domain

let full_sweep () = Sys.getenv_opt "DGGT_GOLDEN_FULL" = Some "1"

let base_session ?(timeout = 10.0) dom =
  Domain.configure dom
    { (Engine.default Engine.Dggt_alg) with Engine.timeout_s = Some timeout }

let respond ?(mode = Engine.Plain) ses q =
  Engine.respond ses { Engine.input = Engine.Text q; mode }

let ranked ~k ses q = (respond ~mode:(Engine.Ranked k) ses q).Engine.ranked

let cand ?(nid = 1) ?(api = "A") ~size ~cov ~score () =
  {
    Semiring.size;
    (* structural singleton CGTs: node ids only need to be distinct, no
       grammar is involved at the cell level *)
    cgt = Cgt.node nid;
    assignment = List.init cov (fun i -> (i, api));
    score;
  }

(* ------------------------------------------------------------------ *)
(* cells                                                              *)
(* ------------------------------------------------------------------ *)

let test_cell_min_size () =
  let c = Semiring.zero Semiring.Min_size in
  check_b "fresh cell unsolved" false (Semiring.Cell.solved c);
  check_b "fresh cell has no best" true (Semiring.Cell.best c = None);
  let a = cand ~size:3 ~cov:2 ~score:1.0 () in
  check_b "first insert improves" true (Semiring.plus c a);
  check_b "solved after insert" true (Semiring.Cell.solved c);
  (* higher coverage beats smaller size *)
  let b = cand ~size:5 ~cov:3 ~score:0.5 () in
  check_b "coverage wins" true (Semiring.plus c b);
  check_i "best is the 3-cover" 3
    (match Semiring.Cell.best c with
    | Some x -> Semiring.coverage x
    | None -> -1);
  (* same coverage, bigger size: rejected, incumbent kept *)
  check_b "bigger size loses" false
    (Semiring.plus c (cand ~size:9 ~cov:3 ~score:9.0 ()));
  check_i "incumbent size kept" 5
    (match Semiring.Cell.best c with Some x -> x.Semiring.size | None -> -1);
  (* same coverage, smaller size: replaces *)
  check_b "smaller size wins" true
    (Semiring.plus c (cand ~size:4 ~cov:3 ~score:0.1 ()));
  (* a tie on every key keeps the incumbent (update_min's strictness) *)
  check_b "exact tie keeps incumbent" false
    (Semiring.plus c (cand ~size:4 ~cov:3 ~score:0.1 ()));
  check_i "min-size retains one" 1 (List.length (Semiring.Cell.choices c))

let test_cell_top_k () =
  let c = Semiring.zero (Semiring.Top_k 3) in
  let xs =
    [
      cand ~api:"A" ~size:5 ~cov:2 ~score:1.0 ();
      cand ~api:"B" ~size:3 ~cov:2 ~score:1.0 ();
      cand ~api:"C" ~size:4 ~cov:2 ~score:1.0 ();
      cand ~api:"D" ~size:2 ~cov:1 ~score:9.0 ();
      cand ~api:"E" ~size:6 ~cov:2 ~score:1.0 ();
    ]
  in
  List.iter (fun x -> ignore (Semiring.plus c x)) xs;
  let kept = Semiring.Cell.choices c in
  check_i "bounded at k" 3 (List.length kept);
  (* sorted best-first under compare_cand *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        Semiring.compare_cand a b <= 0 && sorted rest
    | _ -> true
  in
  check_b "choices sorted" true (sorted kept);
  check_i "head is the size-3 candidate" 3
    (match Semiring.Cell.best c with Some x -> x.Semiring.size | None -> -1);
  (* the low-coverage candidate never outranks a 2-cover, whatever its
     score; with k=3 it fell off the end *)
  check_b "low coverage evicted" true
    (List.for_all (fun x -> Semiring.coverage x = 2) kept);
  (* exact duplicates are dropped, not accumulated *)
  let n = List.length (Semiring.Cell.choices c) in
  ignore (Semiring.plus c (cand ~api:"B" ~size:3 ~cov:2 ~score:1.0 ()));
  check_i "duplicate dropped" n (List.length (Semiring.Cell.choices c))

(* [Semiring.Cell.plus] as it was: every candidate, kept or not, rebuilt
   the list and re-measured it. Keep this frozen: it is the oracle for
   the cell that returns early and counts its entries. *)
module Listcell = struct
  type t = { limit : int; mutable cands : Semiring.cand list }

  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest

  let plus c x =
    let improved =
      match c.cands with [] -> true | h :: _ -> Semiring.compare_cand x h < 0
    in
    let rec ins = function
      | [] -> [ x ]
      | y :: rest as l ->
          let cmp = Semiring.compare_cand x y in
          if cmp < 0 then x :: l
          else if cmp = 0 && y.Semiring.assignment = x.Semiring.assignment then l
          else y :: ins rest
    in
    let merged = ins c.cands in
    c.cands <-
      (if List.length merged > c.limit then take c.limit merged else merged);
    improved
end

(* A stream of up to 40 candidates for a cell of limit 1-6, a quarter of
   them offered again. Coverage, size, assignment and CGT take a few
   values each, so ties on every key but one are common. Scores sit on
   a grid of 0.5 plus jitter under 1e-9, the shape of the engine's
   scores (sums of word scores that coincide up to rounding or differ by
   far more): the 1e-9 tie is then an equivalence, which the cell's
   early exit relies on (see [Semiring.Cell.plus]). *)
let gen_stream =
  QCheck.Gen.(
    let cand =
      map
        (fun ((cov, size, api), (grid, jitter, nid)) ->
          {
            Semiring.size;
            cgt = Cgt.node nid;
            assignment = List.init cov (fun i -> (i, api));
            score = (0.5 *. float_of_int grid) +. (1e-10 *. float_of_int jitter);
          })
        (pair
           (triple (0 -- 3) (1 -- 4) (oneofl [ "A"; "B" ]))
           (triple (0 -- 2) (0 -- 4) (1 -- 3)))
    in
    pair (1 -- 6)
      (list_size (0 -- 40) cand >>= fun xs ->
       let arr = Array.of_list xs in
       map
         (fun picks ->
           List.mapi
             (fun i (again, j) -> if again && i > 0 then arr.(j mod i) else arr.(i))
             picks)
         (flatten_l
            (List.map (fun _ -> pair (map (fun n -> n = 0) (0 -- 3)) nat) xs))))

let print_stream (limit, xs) =
  Printf.sprintf "limit %d: %s" limit
    (String.concat "; "
       (List.map
          (fun (c : Semiring.cand) ->
            Printf.sprintf "cov %d size %d score %.12f cgt %s %s"
              (Semiring.coverage c) c.Semiring.size c.Semiring.score
              (String.concat "," (List.map string_of_int (Cgt.lone_ids c.Semiring.cgt)))
              (String.concat "," (List.map snd c.Semiring.assignment)))
          xs))

let prop_cell_matches_list_rebuild =
  QCheck.Test.make ~name:"cell plus = list-rebuilding cell on random streams"
    ~count:500
    (QCheck.make gen_stream ~print:print_stream)
    (fun (limit, xs) ->
      let c = Semiring.zero (Semiring.Top_k limit)
      and r = { Listcell.limit; cands = [] } in
      List.for_all
        (fun x ->
          let improved = Semiring.plus c x in
          improved = Listcell.plus r x
          && List.equal ( == ) (Semiring.Cell.choices c) r.Listcell.cands)
        xs)

(* ------------------------------------------------------------------ *)
(* Min_size vs the preserved reference walk                           *)
(* ------------------------------------------------------------------ *)

(* byte-equivalence modulo timing, as the bench gate checks it *)
let outcome_equal (a : Engine.outcome) (b : Engine.outcome) =
  a.Engine.code = b.Engine.code
  && a.Engine.cgt_size = b.Engine.cgt_size
  && a.Engine.failure = b.Engine.failure
  && a.Engine.timed_out = b.Engine.timed_out
  && Stats.equal a.Engine.stats b.Engine.stats

let sample_queries dom =
  let qs =
    List.filter (fun q -> not q.Domain.hard) dom.Domain.queries
    |> List.map (fun q -> q.Domain.text)
  in
  if full_sweep () then qs
  else List.filteri (fun i _ -> i < 4) qs

(* A long coordinated list: its combination product passes [max_int],
   so [combos_total] saturates on both sides. Neither run may time out. *)
let long_list =
  "insert a colon after each word, number, line, sentence, character, \
   digit, space, tab, comma, period, letter, token, paragraph, string, \
   word and number"

let test_minsize_matches_reference () =
  List.iter
    (fun (dom, extra) ->
      let ses = base_session dom in
      let compare_runs ~strict q =
        let sem = respond ses q in
        let r =
          Engine.synthesize_with_merge ~merge:Dggt_eval.Refmerge.synthesize
            ses.Engine.cfg ses.Engine.target q
        in
        let timed_out = sem.Engine.timed_out || r.Engine.timed_out in
        if strict then check_b (q ^ ": within the budget") false timed_out;
        if not timed_out then
          check_b
            (Printf.sprintf "%s: %S matches reference" dom.Domain.name q)
            true (outcome_equal sem r)
      in
      List.iter (compare_runs ~strict:false) (sample_queries dom);
      List.iter (compare_runs ~strict:true) extra)
    [ (te, [ long_list ]); (am, []) ]

let prop_random_query_matches_reference =
  QCheck.Test.make ~name:"semiring Min_size = reference walk on random queries"
    ~count:10
    (QCheck.make
       QCheck.Gen.(pair (oneofl [ `Te; `Am ]) nat)
       ~print:(fun (d, q) ->
         Printf.sprintf "(%s, q%d)" (match d with `Te -> "te" | `Am -> "am") q))
    (fun (which, qidx) ->
      let dom = match which with `Te -> te | `Am -> am in
      let qs =
        List.filter (fun q -> not q.Domain.hard) dom.Domain.queries
      in
      let q = (List.nth qs (qidx mod List.length qs)).Domain.text in
      let ses = base_session ~timeout:5.0 dom in
      let sem = respond ses q in
      let r =
        Engine.synthesize_with_merge ~merge:Dggt_eval.Refmerge.synthesize
          ses.Engine.cfg ses.Engine.target q
      in
      sem.Engine.timed_out || r.Engine.timed_out || outcome_equal sem r)

(* ------------------------------------------------------------------ *)
(* edit scripts through lib/inc sessions vs the reference walk        *)
(* ------------------------------------------------------------------ *)

(* split a query into edit units, never breaking a quoted literal (the
   same chunking the inc suite uses) *)
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

let script_gen =
  QCheck.Gen.(
    triple (oneofl [ `Te; `Am ]) nat
      (list_size (1 -- 4) (oneofl [ Append; Drop; Punct ])))

let revisions_of_script dom qidx ops =
  let qs = List.filter (fun q -> not q.Domain.hard) dom.Domain.queries in
  let q = (List.nth qs (qidx mod List.length qs)).Domain.text in
  let chunks = Array.of_list (edit_chunks q) in
  let n = Array.length chunks in
  let prefix k = String.concat " " (Array.to_list (Array.sub chunks 0 k)) in
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

let prop_edit_script_matches_reference =
  QCheck.Test.make
    ~name:"inc session (semiring) = reference walk over random edit scripts"
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
          let r =
            Engine.synthesize_with_merge ~merge:Dggt_eval.Refmerge.synthesize
              base.Engine.cfg base.Engine.target rev
          in
          inc.Engine.timed_out || r.Engine.timed_out || outcome_equal inc r)
        (revisions_of_script dom qidx ops))

(* ------------------------------------------------------------------ *)
(* Top_k soundness and cross-objective invariance                     *)
(* ------------------------------------------------------------------ *)

(* the documented ranking order on what a ranked respond exposes *)
let ranked_le (a : Engine.ranked) (b : Engine.ranked) =
  a.Engine.coverage > b.Engine.coverage
  || (a.Engine.coverage = b.Engine.coverage
     && (a.Engine.size < b.Engine.size
        || (a.Engine.size = b.Engine.size && a.Engine.score >= b.Engine.score -. 1e-9)))

let test_topk_soundness () =
  List.iter
    (fun dom ->
      let ses = base_session dom in
      List.iter
        (fun q ->
          let o = respond ses q in
          let rk = ranked ~k:5 ses q in
          check_b (q ^ ": at most k") true (List.length rk <= 5);
          let codes = List.map (fun (r : Engine.ranked) -> r.Engine.code) rk in
          check_b (q ^ ": no duplicate codes") true
            (List.length (List.sort_uniq compare codes) = List.length codes);
          let rec sorted = function
            | a :: (b :: _ as rest) -> ranked_le a b && sorted rest
            | _ -> true
          in
          check_b (q ^ ": sorted best-first") true (sorted rk);
          (match (o.Engine.code, rk) with
          | Some c, h :: _ ->
              check_b (q ^ ": head = plain run") true (h.Engine.code = c)
          | Some _, [] ->
              Alcotest.fail (q ^ ": plain run succeeded but ranked is empty")
          | None, _ -> check_b (q ^ ": no code, no ranked") true (rk = []));
          (* k = 1 degenerates to the Min_size chart byte-for-byte *)
          match (o.Engine.code, ranked ~k:1 ses q) with
          | Some c, [ only ] ->
              check_b (q ^ ": k=1 equals run") true
                (only.Engine.code = c
                && Some only.Engine.size = o.Engine.cgt_size)
          | None, [] -> ()
          | _ -> Alcotest.fail (q ^ ": k=1 shape mismatch"))
        (sample_queries dom))
    [ te; am ]

let test_objective_outcome_invariance () =
  (* the candidate stream into every cell is identical across objectives,
     so a Ranked 5 run (Top_k 5) must produce the Plain run's (Min_size)
     outcome bytes — codelet, failure and statistics alike *)
  List.iter
    (fun dom ->
      let ses = base_session dom in
      List.iter
        (fun q ->
          let plain = respond ses q in
          let ranked = respond ~mode:(Engine.Ranked 5) ses q in
          if not (plain.Engine.timed_out || ranked.Engine.timed_out) then
            check_b (q ^ " under Ranked 5") true (outcome_equal plain ranked))
        (sample_queries dom))
    [ te; am ]

let suite =
  [
    Alcotest.test_case "cell: Min_size semantics" `Quick test_cell_min_size;
    Alcotest.test_case "cell: Top_k semantics" `Quick test_cell_top_k;
    Alcotest.test_case "Min_size = reference (sampled queries)" `Quick
      test_minsize_matches_reference;
    Alcotest.test_case "Top_k soundness" `Quick test_topk_soundness;
    Alcotest.test_case "objective outcome invariance" `Quick
      test_objective_outcome_invariance;
    QCheck_alcotest.to_alcotest prop_cell_matches_list_rebuild;
    QCheck_alcotest.to_alcotest prop_random_query_matches_reference;
    QCheck_alcotest.to_alcotest prop_edit_script_matches_reference;
  ]
