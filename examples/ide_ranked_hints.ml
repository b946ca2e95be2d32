(* Why near-real-time matters: an IDE hint panel re-synthesizes on every
   keystroke pause, so the paper's 20-second baseline cases are unusable
   interactively (§I cites Nielsen's 10-second attention limit). This
   example runs the same queries through both engines side by side and
   shows the pipeline statistics behind the speedup (the quantities of
   Table III).

     dune exec examples/ide_ranked_hints.exe *)

open Dggt_core
open Dggt_domains

let queries =
  [
    (Text_editing.domain, "insert \"WARN \" at the start of every line containing \"deprecated\"");
    (Text_editing.domain, "delete the last word of each sentence");
    (Astmatcher.domain, "find member call expressions invoking a method named \"size\"");
  ]

let engine dom alg =
  Domain.configure dom { (Engine.default alg) with Engine.timeout_s = Some 20.0 }

let () =
  List.iter
    (fun ((dom : Domain.t), q) ->
      Format.printf "@.[%s] %s@." dom.Domain.name q;
      let dses = engine dom Engine.Dggt_alg in
      let plain = { Engine.input = Engine.Text q; mode = Engine.Plain } in
      let d = Engine.respond dses plain in
      let h = Engine.respond (engine dom Engine.Hisyn_alg) plain in
      Format.printf "  hint: %s@." (Option.value d.Engine.code ~default:"<none>");
      Format.printf "  DGGT : %8.1f ms%s@." (d.Engine.time_s *. 1000.)
        (if d.Engine.timed_out then " TIMEOUT" else "");
      Format.printf "  HISyn: %8.1f ms%s (enumerated %d combinations of %d possible)@."
        (h.Engine.time_s *. 1000.)
        (if h.Engine.timed_out then " TIMEOUT" else "")
        h.Engine.stats.Stats.hisyn_combos_enumerated
        h.Engine.stats.Stats.hisyn_combos_possible;
      let s = d.Engine.stats in
      Format.printf
        "  DGGT search space: %d paths -> %d after relocation; %d combos -> %d after grammar pruning -> %d after size pruning@."
        s.Stats.orig_paths s.Stats.paths_after_reloc s.Stats.combos_total
        s.Stats.combos_after_gprune s.Stats.combos_after_sprune;
      Format.printf "  speedup: %.0fx@."
        (h.Engine.time_s /. Float.max d.Engine.time_s 1e-6);
      (* the ranked-hints mode of paper SVII-B.4: alternative codelets for
         the hint panel, read off the dynamic grammar graph's root nodes *)
      let hints =
        (Engine.respond dses
           { Engine.input = Engine.Text q; mode = Engine.Ranked 3 })
          .Engine.ranked
      in
      List.iteri
        (fun i (r : Engine.ranked) ->
          Format.printf "  hint %d: %s  (size %d, covers %d, score %.2f)@."
            (i + 1) r.Engine.code r.Engine.size r.Engine.coverage
            r.Engine.score)
        hints)
    queries
