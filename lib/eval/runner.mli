(** Executes a benchmark domain's query set under one engine configuration
    and collects per-query results — the raw material every table and
    figure of the paper's evaluation is computed from. *)

type qresult = {
  query : Dggt_domains.Domain.query;
  outcome : Dggt_core.Engine.outcome;
  correct : bool;
  stage_s : (string * float) list;
      (** per-stage wall-clock seconds ({!Dggt_obs.Trace.durations} of the
          query's trace); [] unless the run enabled [stage_timing] *)
}

type run = {
  domain_name : string;
  algorithm : Dggt_core.Engine.algorithm;
  timeout_s : float;
  results : qresult list;
}

val run_domain :
  ?timeout_s:float ->
  ?tweak:(Dggt_core.Engine.config -> Dggt_core.Engine.config) ->
  ?progress:(int -> int -> unit) ->
  ?stage_timing:bool ->
  ?pool:Dggt_par.Pool.t ->
  ?caches:Dggt_core.Engine.lookups ->
  Dggt_domains.Domain.t ->
  Dggt_core.Engine.algorithm ->
  run
(** Default timeout 20 s — the paper's interactive-use cutoff. [tweak]
    post-processes the domain-configured engine config (used by the
    ablation bench to toggle optimizations). [progress done n] is called
    after each query with the {e count} of finished queries (completion
    order, not query order, under a pool). [stage_timing] (default off)
    attaches a fresh trace sink per query and records the per-stage
    durations in [stage_s]; leave it off when measuring end-to-end
    latency for the tables.

    [pool] fans {e whole queries} out over worker domains
    ({!Dggt_par.Pool.map_ordered}) — each query is synthesized
    sequentially, results come back in query order and are byte-identical
    to a sequential run; this is the batch-throughput knob (queries/sec),
    not a latency one. [caches] installs per-stage lookup hooks through
    {!Dggt_domains.Domain.configure} ([bench automaton] routes EdgeToPath
    to its reference search this way). *)

val accuracy : run -> float
val timeouts : run -> int
val total_time : run -> float
val times : run -> float list
(** Per-query times in query order. *)

val stage_means : run -> (string * float) list
(** Mean seconds per pipeline stage across the run's queries, in pipeline
    order; [] when the run was made without [stage_timing]. *)
