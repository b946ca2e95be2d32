(** Pack-pinned evaluation envelopes.

    A domain pack may pin performance expectations in its manifest
    ([expect-accuracy], [expect-p95-ms] — see {!Dggt_domains.Pack});
    [dggt eval --check-envelope] evaluates the pack's query set and fails
    (non-zero exit) when a measurement falls outside the envelope, which
    is how CI catches accuracy or latency regressions against
    [examples/packs/*]. This module is the measurement + comparison, kept
    out of the CLI so the gate is testable. *)

type expectation = {
  min_accuracy : float option;  (** accuracy floor, fraction in [0, 1] *)
  max_p95_ms : float option;    (** p95 latency ceiling, milliseconds *)
}

type verdict = {
  accuracy : float;          (** measured: fraction of correct queries *)
  p95_ms : float;            (** measured: nearest-rank p95, milliseconds *)
  violations : string list;  (** one human-readable line per breach; [[]]
                                 when the run is inside the envelope *)
}

val p95_ms : Runner.run -> float
(** Nearest-rank 95th percentile of the run's per-query wall times, in
    milliseconds; 0 for an empty run. Timed-out queries count at their
    full budget. *)

val check : expectation -> Runner.run -> verdict
(** Compare a finished run against the envelope. [None] bounds never
    violate (an absent key opts that axis out). *)

val ok : verdict -> bool
