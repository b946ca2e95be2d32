open Dggt_core
open Dggt_domains

type qresult = {
  query : Domain.query;
  outcome : Engine.outcome;
  correct : bool;
  stage_s : (string * float) list;
}

type run = {
  domain_name : string;
  algorithm : Engine.algorithm;
  timeout_s : float;
  results : qresult list;
}

let run_domain ?(timeout_s = 20.0) ?(tweak = Fun.id) ?(progress = fun _ _ -> ())
    ?(stage_timing = false) ?pool ?caches (dom : Domain.t) algorithm =
  let ses =
    Domain.configure ?caches dom
      { (Engine.default algorithm) with Engine.timeout_s = Some timeout_s }
    |> Engine.with_cfg tweak
  in
  let n = List.length dom.Domain.queries in
  (* completion counter, not an index: under a pool queries finish out of
     order, so progress reports "how many done", monotonically *)
  let finished = Atomic.make 0 in
  let eval (q : Domain.query) =
    let sink = if stage_timing then Some (Dggt_obs.Trace.create ()) else None in
    let outcome =
      Engine.respond
        (Engine.with_cfg (fun c -> { c with Engine.trace = sink }) ses)
        { Engine.input = Engine.Text q.Domain.text; mode = Engine.Plain }
    in
    let stage_s =
      match sink with
      | None -> []
      | Some s -> Dggt_obs.Trace.durations (Dggt_obs.Trace.result s)
    in
    progress (Atomic.fetch_and_add finished 1 + 1) n;
    {
      query = q;
      outcome;
      correct = Domain.check dom outcome.Engine.expr q;
      stage_s;
    }
  in
  let results =
    match pool with
    | None -> List.map eval dom.Domain.queries
    | Some p -> Dggt_par.Pool.map_ordered p eval dom.Domain.queries
  in
  { domain_name = dom.Domain.name; algorithm; timeout_s; results }

let accuracy r =
  let ok = List.length (List.filter (fun q -> q.correct) r.results) in
  float_of_int ok /. float_of_int (max 1 (List.length r.results))

let timeouts r =
  List.length (List.filter (fun q -> q.outcome.Engine.timed_out) r.results)

let times r = List.map (fun q -> q.outcome.Engine.time_s) r.results
let total_time r = List.fold_left ( +. ) 0.0 (times r)

let stage_means r =
  (* mean per-stage wall-clock across the run's queries, pipeline order *)
  let sums = Hashtbl.create 8 in
  List.iter
    (fun q ->
      List.iter
        (fun (stage, d) ->
          let s, c =
            Option.value (Hashtbl.find_opt sums stage) ~default:(0.0, 0)
          in
          Hashtbl.replace sums stage (s +. d, c + 1))
        q.stage_s)
    r.results;
  List.filter_map
    (fun stage ->
      match Hashtbl.find_opt sums stage with
      | Some (s, c) -> Some (stage, s /. float_of_int (max 1 c))
      | None -> None)
    Engine.stage_names
