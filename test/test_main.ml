(* Test entry point: every module's suite is registered here. *)

let () =
  Alcotest.run "dggt"
    [
      ("util", Test_util.suite);
      ("nlu", Test_nlu.suite);
      ("grammar", Test_grammar.suite);
      ("obs", Test_obs.suite);
      ("core", Test_core.suite);
      ("autom", Test_autom.suite);
      ("domains", Test_domains.suite);
      ("eval", Test_eval.suite);
      ("server", Test_server.suite);
      ("inc", Test_inc.suite);
      ("pack", Test_pack.suite);
      ("store", Test_store.suite);
      ("par", Test_par.suite);
      ("shard", Test_shard.suite);
      ("metrics", Test_metrics.suite);
      ("properties", Test_props.suite);
      ("semiring", Test_semiring.suite);
      ("stress", Test_stress.suite);
      ("digests", Test_digest.suite);
    ]
