(** Counters collected during synthesis — the quantities reported in the
    paper's Table III (paths before/after orphan relocation, combinations
    before/after each pruning stage, …). *)

type t = {
  mutable dep_edges : int;          (** edges in the pruned dependency graph *)
  mutable orig_paths : int;         (** candidate paths before relocation *)
  mutable paths_after_reloc : int;  (** candidate paths after relocation *)
  mutable orphan_count : int;
  mutable reloc_graphs : int;       (** dependency-graph variants explored *)
  mutable combos_total : int;       (** combinations before pruning (sibling levels) *)
  mutable combos_after_gprune : int;
  mutable combos_after_sprune : int;
  mutable combos_merged : int;      (** prefix trees actually built *)
  mutable hisyn_combos_enumerated : int; (** baseline: combinations visited *)
  mutable hisyn_combos_possible : int;   (** baseline: full product (saturated) *)
  mutable dgg_nodes : int;          (** nodes in the dynamic grammar graph *)
  mutable dgg_edges : int;
  mutable dgg_improvements : int;
      (** DGG chart-cell best-candidate improvements (semiring [plus]
          calls that changed a node's best — the PathMerge work the trace
          layer narrates as [min_size] updates) *)
}

val create : unit -> t

val copy : t -> t
(** A detached clone. The incremental session replays a previous
    revision's counters into fresh outcomes; sharing the mutable record
    would let a later stage scribble on history. *)

val equal : t -> t -> bool
(** Field-by-field equality — the equivalence checks of the incremental
    property tests and [bench incremental] compare whole counter sets. *)

val sum : int -> int -> int
(** The sum of two non-negative counts, saturating at [max_int] where
    [+] would wrap negative. *)

val add : t -> t -> t
(** Aggregate across the relocation-graph variants of one query. The
    aggregation differs per field, on purpose:

    - {e query-shaped} fields take the [max] — they re-measure the same
      query in every variant, so summing would double-count: [dep_edges],
      [orig_paths], [paths_after_reloc], [orphan_count],
      [hisyn_combos_possible];
    - {e work-shaped} fields take the sum — each variant's effort really
      happened: [reloc_graphs], [combos_total], [combos_after_gprune],
      [combos_after_sprune], [combos_merged], [hisyn_combos_enumerated],
      [dgg_nodes], [dgg_edges], [dgg_improvements], by {!sum}. *)

val pp : Format.formatter -> t -> unit
val gprune_removed : t -> int
val sprune_removed : t -> int
