(** Regenerates every table and figure of the paper's evaluation section
    (§VII), printing our measurements next to the paper's published numbers
    so the reproduction can be judged at a glance.

    Absolute times differ by construction — the substrate is our own OCaml
    NLU stack, not the authors' Python + CoreNLP testbed — the comparison
    targets the {e shape}: who wins, by what order of magnitude, where the
    timeouts sit. *)

type comparison = {
  dom : Dggt_domains.Domain.t;
  hisyn : Runner.run;
  dggt : Runner.run;
}

val compare_domain :
  ?timeout_s:float ->
  ?progress:(string -> int -> int -> unit) ->
  Dggt_domains.Domain.t ->
  comparison
(** Run both engines over the domain (the shared experiment behind Table II
    and Figures 7-8). [progress label i n] reports per-engine progress. *)

val table1 : Format.formatter -> unit
(** Table I: domain statistics and example query/codelet pairs. *)

val table2 : Format.formatter -> comparison list -> unit
(** Table II: speedup max/mean/median and accuracy per domain, with the
    paper's laptop row quoted alongside. *)

val table3 : Format.formatter -> ?ids:int list -> Dggt_domains.Domain.t -> unit
(** Table III: per-case optimization breakdown (paths before/after orphan
    relocation, combinations before/after grammar- and size-based pruning,
    speedup) on hard cases. Without [ids], the four queries with the
    largest baseline combination product are selected automatically. *)

val fig7 : Format.formatter -> comparison -> unit
(** Figure 7: response-time distribution histogram (text rendering). *)

val fig8 : Format.formatter -> comparison -> unit
(** Figure 8: accumulated execution time curves (text rendering, sampled). *)

val ablation : Format.formatter -> ?timeout_s:float -> Dggt_domains.Domain.t -> unit
(** §V synergy claim: DGGT with each optimization disabled in turn. *)

val stage_table :
  Format.formatter -> ?timeout_s:float -> Dggt_domains.Domain.t -> unit
(** Per-stage latency breakdown (mean, max, share of pipeline time) for the
    DGGT engine over the domain's queries, measured with stage tracing on.
    The caller caps the query set by passing a domain with fewer queries. *)
