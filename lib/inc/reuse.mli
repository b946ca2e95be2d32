(** Per-revision reuse accounting.

    Every {!Session.query} returns one of these next to the outcome: how much
    of the previous revision's work the session was able to keep. The repl
    prints {!summary} after each answer; the server folds the records into
    the [dggt_inc_*] metrics; [bench incremental] compares the [computed]
    sides against a from-scratch run's counters. *)

type stage = {
  reused : int;   (** lookups served from session memory (no compute) *)
  computed : int; (** compute thunks actually invoked this revision *)
}

type t = {
  revision : int;       (** 1-based revision number within the session *)
  splice : bool;
      (** true when the pruned graph was equivalent to the previous
          revision's and stages 3-6 were skipped wholesale *)
  tokens_kept : int;
  tokens_added : int;
  tokens_removed : int;
  edges_kept : int;
  edges_added : int;
  edges_removed : int;
  words : stage;    (** WordToAPI candidate-set lookups *)
  pairs : stage;    (** EdgeToPath per-pair path searches *)
  dgg_rows : stage; (** DGG nodes: replayed on splice, built otherwise *)
}

val total : stage -> int
val overall_ratio : t -> float
(** Reused fraction across words, pairs and DGG rows together. *)

val summary : t -> string
(** One-line human summary, e.g.
    ["rev 3: spliced (14 dgg rows replayed)"] or
    ["rev 2: reused 5/6 words, 7/9 pairs; 2 searches"]. *)
