open Dggt_core
open Dggt_domains
module Trace = Dggt_obs.Trace

let run fmt ?(timeout_s = 20.0) ?(algorithm = Engine.Dggt_alg) ?(top = 1)
    (dom : Domain.t) query =
  let sink = Trace.create () in
  let ses =
    Domain.configure dom
      {
        (Engine.default algorithm) with
        Engine.timeout_s = Some timeout_s;
        trace = Some sink;
      }
  in
  let o =
    Engine.respond ses { Engine.input = Engine.Text query; mode = Engine.Plain }
  in
  let trace = Trace.result sink in
  Format.fprintf fmt "domain: %s (%s engine)@." dom.Domain.name
    (match algorithm with Engine.Dggt_alg -> "dggt" | Engine.Hisyn_alg -> "hisyn");
  Format.fprintf fmt "query:  %s@.@." query;
  Trace.pp fmt trace;
  Format.fprintf fmt "@.%a@." Stats.pp o.Engine.stats;
  (match o.Engine.code with
  | Some code ->
      Format.fprintf fmt "@.codelet (%d APIs, %.3f ms):@.  %s@."
        (Option.value o.Engine.cgt_size ~default:0)
        (o.Engine.time_s *. 1e3) code
  | None ->
      Format.fprintf fmt "@.no codelet (%s, %.3f ms)@."
        (Option.value o.Engine.failure ~default:"unknown failure")
        (o.Engine.time_s *. 1e3));
  (* rank narration: re-run under the Top-k semiring and show what the
     chart kept beyond the winner — same pipeline, wider cells *)
  if top > 1 && o.Engine.code <> None && algorithm = Engine.Dggt_alg then begin
    let hints =
      (Engine.respond ses
         { Engine.input = Engine.Text query; mode = Engine.Ranked top })
        .Engine.ranked
    in
    Format.fprintf fmt "@.top-%d candidates (Top-k semiring chart):@." top;
    List.iteri
      (fun i (r : Engine.ranked) ->
        Format.fprintf fmt "  %d. %s@.     size %d, covers %d words, score %.2f%s@."
          (i + 1) r.Engine.code r.Engine.size r.Engine.coverage r.Engine.score
          (if i = 0 then "  (the winner above)" else ""))
      hints
  end;
  o
