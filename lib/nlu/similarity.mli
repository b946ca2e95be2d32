(** Word-to-keyword semantic similarity.

    The WordToAPI step scores a query word against the keywords of an API
    document entry. Scoring tiers (highest wins):

    - 1.0  exact lemma match
    - 0.95 equal Porter stems ("matching" vs "matches")
    - 0.85 synonym-ring match ("remove" vs "delete")
    - 0.8  synonym of stem / stem of synonym
    - 0.55–0.7 edit-distance backoff for near-misses (typos), only when the
      normalized similarity is at least 0.65, both words are at
      least 5 characters, and the first letters agree.

    Scores are in [0, 1]; anything below {!min_score} is reported as 0. *)

val min_score : float

val word_score : string -> string -> float
(** [word_score a b] for two lowercase lemmas. *)

val best_against : string -> string list -> float
(** Max {!word_score} of a word against a keyword list; 0 for []. *)
