(* Unit and property tests for the dggt_util library. *)

open Dggt_util

let check_sl = Alcotest.(check (list string))
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Strutil                                                            *)
(* ------------------------------------------------------------------ *)

let test_lowercase () =
  Alcotest.(check string) "mixed" "hasname" (Strutil.lowercase "HasName");
  Alcotest.(check string) "digits kept" "a1b2" (Strutil.lowercase "A1B2")

let test_split_camel () =
  check_sl "camel" [ "iteration"; "scope" ] (Strutil.split_camel "IterationScope");
  check_sl "lower camel" [ "has"; "operator"; "name" ]
    (Strutil.split_camel "hasOperatorName");
  check_sl "acronym head" [ "cxx"; "method"; "decl" ]
    (Strutil.split_camel "cxxMethodDecl");
  check_sl "allcaps" [ "startfrom" ] (Strutil.split_camel "STARTFROM");
  check_sl "underscore" [ "insert"; "arg" ] (Strutil.split_camel "insert_arg");
  check_sl "digit boundary" [ "utf"; "8" ] (Strutil.split_camel "Utf8");
  check_sl "acronym then word" [ "ast"; "matcher" ] (Strutil.split_camel "ASTMatcher");
  check_sl "empty" [] (Strutil.split_camel "")

let test_splits () =
  check_sl "ws" [ "a"; "b"; "c" ] (Strutil.split_ws "  a \t b\nc ");
  check_sl "chars" [ "x"; "y" ] (Strutil.split_on_chars ~chars:[ ','; ';' ] ",x;;y,");
  check_sl "none" [] (Strutil.split_ws "   ")

let test_affixes () =
  check_b "starts" true (Strutil.starts_with ~prefix:"has" "hasName");
  check_b "not starts" false (Strutil.starts_with ~prefix:"Has" "hasName");
  check_b "ends" true (Strutil.ends_with ~suffix:"Decl" "cxxMethodDecl");
  check_b "contains" true (Strutil.contains_sub ~sub:"thod" "cxxMethodDecl");
  check_b "contains empty" true (Strutil.contains_sub ~sub:"" "x");
  check_b "not contains" false (Strutil.contains_sub ~sub:"xyz" "abc");
  Alcotest.(check (option string))
    "drop suffix" (Some "insert")
    (Strutil.drop_suffix ~suffix:"ed" "inserted");
  Alcotest.(check (option string)) "no suffix" None (Strutil.drop_suffix ~suffix:"ed" "add")

let test_strip () =
  Alcotest.(check string) "both ends" "a b" (Strutil.strip " \t a b\n ");
  Alcotest.(check string) "all ws" "" (Strutil.strip "  \n")

let test_common_prefix () =
  check_i "shared" 3 (Strutil.common_prefix_len "insert" "inside");
  check_i "none" 0 (Strutil.common_prefix_len "abc" "xbc");
  check_i "identical" 3 (Strutil.common_prefix_len "abc" "abc")

(* ------------------------------------------------------------------ *)
(* Levenshtein                                                        *)
(* ------------------------------------------------------------------ *)

let test_levenshtein () =
  check_i "equal" 0 (Levenshtein.distance "match" "match");
  check_i "substitute" 1 (Levenshtein.distance "cat" "cut");
  check_i "transpose-ish" 2 (Levenshtein.distance "serach" "search");
  check_i "from empty" 5 (Levenshtein.distance "" "hello");
  check_i "to empty" 5 (Levenshtein.distance "hello" "");
  Alcotest.(check (float 1e-9)) "similarity equal" 1.0 (Levenshtein.similarity "a" "a");
  Alcotest.(check (float 1e-9)) "similarity empty" 1.0 (Levenshtein.similarity "" "")

let prop_lev_symmetric =
  QCheck.Test.make ~name:"levenshtein symmetric" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 12)) (string_of_size Gen.(0 -- 12)))
    (fun (a, b) -> Levenshtein.distance a b = Levenshtein.distance b a)

let prop_lev_triangle =
  QCheck.Test.make ~name:"levenshtein triangle inequality" ~count:200
    QCheck.(triple (string_of_size Gen.(0 -- 8)) (string_of_size Gen.(0 -- 8))
              (string_of_size Gen.(0 -- 8)))
    (fun (a, b, c) ->
      Levenshtein.distance a c <= Levenshtein.distance a b + Levenshtein.distance b c)

let prop_lev_identity =
  QCheck.Test.make ~name:"levenshtein zero iff equal" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 10)) (string_of_size Gen.(0 -- 10)))
    (fun (a, b) -> Levenshtein.distance a b = 0 = (a = b))

(* ------------------------------------------------------------------ *)
(* Listutil                                                           *)
(* ------------------------------------------------------------------ *)

let test_cartesian () =
  Alcotest.(check (list (list int)))
    "2x1" [ [ 1; 3 ]; [ 2; 3 ] ]
    (Listutil.cartesian [ [ 1; 2 ]; [ 3 ] ]);
  Alcotest.(check (list (list int))) "empty input" [ [] ] (Listutil.cartesian []);
  Alcotest.(check (list (list int))) "empty component" [] (Listutil.cartesian [ [ 1 ]; [] ])

let test_cartesian_count () =
  check_i "count" 6 (Listutil.cartesian_count [ [ 1; 2 ]; [ 1 ]; [ 1; 2; 3 ] ]);
  check_i "empty component" 0 (Listutil.cartesian_count [ [ 1 ]; [] ]);
  check_i "no components" 1 (Listutil.cartesian_count []);
  let big = List.init 100 (fun _ -> [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]) in
  check_i "saturates" max_int (Listutil.cartesian_count big)

let test_iter_cartesian () =
  let seen = ref [] in
  Listutil.iter_cartesian (fun c -> seen := c :: !seen) [ [ 1; 2 ]; [ 3; 4 ] ];
  Alcotest.(check (list (list int)))
    "order matches materialized"
    (Listutil.cartesian [ [ 1; 2 ]; [ 3; 4 ] ])
    (List.rev !seen)

let prop_iter_cartesian_agrees =
  QCheck.Test.make ~name:"iter_cartesian agrees with cartesian" ~count:100
    QCheck.(list_of_size Gen.(0 -- 4) (list_of_size Gen.(0 -- 3) small_int))
    (fun lls ->
      let acc = ref [] in
      Listutil.iter_cartesian (fun c -> acc := c :: !acc) lls;
      List.rev !acc = Listutil.cartesian lls)

let prop_cartesian_count_agrees =
  QCheck.Test.make ~name:"cartesian_count agrees with length" ~count:100
    QCheck.(list_of_size Gen.(0 -- 4) (list_of_size Gen.(0 -- 3) small_int))
    (fun lls -> Listutil.cartesian_count lls = List.length (Listutil.cartesian lls))

let prop_cartesian_take_agrees =
  QCheck.Test.make ~name:"cartesian_take is a prefix of cartesian" ~count:200
    QCheck.(
      pair (int_range (-1) 10)
        (list_of_size Gen.(0 -- 4) (list_of_size Gen.(0 -- 3) small_int)))
    (fun (n, lls) ->
      Listutil.cartesian_take n lls = Listutil.take n (Listutil.cartesian lls))

let test_group_by () =
  let groups = Listutil.group_by ~key:(fun x -> x mod 2) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list (pair int (list int))))
    "parity groups" [ (1, [ 1; 3; 5 ]); (0, [ 2; 4 ]) ] groups;
  Alcotest.(check (list (pair int (list int)))) "empty" [] (Listutil.group_by ~key:Fun.id [])

let test_misc_list () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listutil.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1 ] (Listutil.take 5 [ 1 ]);
  Alcotest.(check (list int)) "uniq" [ 1; 2; 3 ] (Listutil.uniq [ 1; 2; 1; 3; 2 ]);
  Alcotest.(check (option int)) "min_by" (Some 1) (Listutil.min_by compare [ 3; 1; 2 ]);
  Alcotest.(check (option int)) "max_by" (Some 3) (Listutil.max_by compare [ 3; 1; 2 ]);
  Alcotest.(check (option int)) "min_by empty" None (Listutil.min_by compare []);
  check_i "sum_by" 6 (Listutil.sum_by Fun.id [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Budget                                                             *)
(* ------------------------------------------------------------------ *)

let test_budget_steps () =
  let b = Budget.of_steps 3 in
  Budget.check b;
  Budget.check b;
  Budget.check b;
  check_b "not yet exhausted" false (Budget.exhausted b);
  Alcotest.check_raises "fourth tick raises" Budget.Exhausted (fun () -> Budget.check b);
  check_b "now exhausted" true (Budget.exhausted b);
  Alcotest.check_raises "stays exhausted" Budget.Exhausted (fun () -> Budget.check b)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  for _ = 1 to 10_000 do
    Budget.check b
  done;
  check_i "steps counted" 10_000 (Budget.steps_used b);
  check_b "never exhausted" false (Budget.exhausted b)

let test_budget_wallclock () =
  let b = Budget.of_seconds 0.02 in
  check_b "fresh" false (Budget.exhausted b);
  Unix.sleepf 0.03;
  check_b "expired" true (Budget.exhausted b);
  (* check samples the clock every 256 ticks; within 512 ticks it must see
     the expiry. *)
  Alcotest.check_raises "check raises after deadline" Budget.Exhausted (fun () ->
      for _ = 1 to 512 do
        Budget.check b
      done)

(* [spend b n] is [n] checks in one: from a step budget of [k] after
   [pre] checks (a dead budget once [pre > k]), both leave the same
   count, and raise on the same step or not at all *)
let prop_spend_is_checks =
  QCheck.Test.make ~name:"spend n = n checks under a step budget" ~count:1000
    QCheck.(triple (int_range 0 600) (int_range 0 600) (int_range 0 600))
    (fun (k, pre, n) ->
      let run f =
        let b = Budget.of_steps k in
        let raises f = match f () with () -> false | exception Budget.Exhausted -> true in
        let dead = raises (fun () -> for _ = 1 to pre do Budget.check b done) in
        let raised = raises (fun () -> f b) in
        (dead, raised, Budget.steps_used b, Budget.exhausted b)
      in
      run (fun b -> Budget.spend b n)
      = run (fun b ->
            for _ = 1 to n do
              Budget.check b
            done))

let test_budget_spend () =
  let b = Budget.of_steps 3 in
  Budget.spend b 0;
  check_i "spend 0 counts nothing" 0 (Budget.steps_used b);
  Budget.spend b 3;
  check_i "spend 3 = three checks" 3 (Budget.steps_used b);
  Alcotest.check_raises "the step past the limit raises" Budget.Exhausted (fun () ->
      Budget.spend b 10);
  check_i "the count stops on the step that raised" 4 (Budget.steps_used b);
  Budget.spend b 0;
  check_i "spend 0 on a dead budget is a no-op" 4 (Budget.steps_used b);
  Alcotest.check_raises "a dead budget raises" Budget.Exhausted (fun () -> Budget.spend b 1);
  check_i "on its next step" 5 (Budget.steps_used b);
  (* an expired deadline is seen on a multiple of 256, as [check] samples
     the clock, and not before *)
  let b = Budget.of_seconds (-1.0) in
  Budget.spend b 200;
  Budget.spend b 55;
  check_i "no multiple of 256 crossed" 255 (Budget.steps_used b);
  Alcotest.check_raises "step 256 samples the clock" Budget.Exhausted (fun () ->
      Budget.spend b 1);
  check_i "stopped on 256" 256 (Budget.steps_used b);
  let b = Budget.of_seconds (-1.0) in
  Budget.spend b 100;
  Alcotest.check_raises "crossing 256 raises" Budget.Exhausted (fun () ->
      Budget.spend b 1000);
  check_i "stopped on the multiple" 256 (Budget.steps_used b);
  let b = Budget.of_seconds_and_steps (-1.0) 100 in
  Alcotest.check_raises "the step limit comes first" Budget.Exhausted (fun () ->
      Budget.spend b 1000);
  check_i "stopped past the limit" 101 (Budget.steps_used b);
  let b = Budget.of_seconds 60.0 in
  Budget.spend b 1000;
  check_i "a live deadline lets every step through" 1000 (Budget.steps_used b)

let test_timer () =
  let (r, t) = Timer.time (fun () -> Unix.sleepf 0.01; 42) in
  check_i "result passed through" 42 r;
  check_b "time positive" true (t >= 0.009);
  check_b "time_ignore" true (Timer.time_ignore (fun () -> ()) < 0.5)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_lev_symmetric; prop_lev_triangle; prop_lev_identity;
      prop_iter_cartesian_agrees; prop_cartesian_count_agrees;
      prop_cartesian_take_agrees; prop_spend_is_checks ]

let suite =
  [
    Alcotest.test_case "lowercase" `Quick test_lowercase;
    Alcotest.test_case "split_camel" `Quick test_split_camel;
    Alcotest.test_case "splits" `Quick test_splits;
    Alcotest.test_case "affixes" `Quick test_affixes;
    Alcotest.test_case "strip" `Quick test_strip;
    Alcotest.test_case "common_prefix" `Quick test_common_prefix;
    Alcotest.test_case "levenshtein" `Quick test_levenshtein;
    Alcotest.test_case "cartesian" `Quick test_cartesian;
    Alcotest.test_case "cartesian_count" `Quick test_cartesian_count;
    Alcotest.test_case "iter_cartesian" `Quick test_iter_cartesian;
    Alcotest.test_case "group_by" `Quick test_group_by;
    Alcotest.test_case "list misc" `Quick test_misc_list;
    Alcotest.test_case "budget steps" `Quick test_budget_steps;
    Alcotest.test_case "budget unlimited" `Quick test_budget_unlimited;
    Alcotest.test_case "budget wallclock" `Quick test_budget_wallclock;
    Alcotest.test_case "budget spend" `Quick test_budget_spend;
    Alcotest.test_case "timer" `Quick test_timer;
  ]
  @ qsuite
