(** Curated synonym lexicon.

    HISyn consults WordNet-style lexical resources when matching query
    words against API descriptions; this module is the offline substitute:
    synonym rings covering the vocabulary of the text-editing and
    code-analysis domains. Membership is by lemma. *)

val related : string -> string list
(** All words sharing a ring with [w] (excluding [w] itself); empty when the
    word is in no ring. A word may belong to several rings ("type" the verb,
    "type" the noun); [related] unions them. *)

val share_ring : string -> string -> bool
(** True when the two lemmas appear in a common ring. *)
