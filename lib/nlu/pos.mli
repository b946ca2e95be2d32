(** Part-of-speech tags.

    A compact subset of the Penn Treebank tag set — exactly the distinctions
    the downstream pipeline needs: query-graph pruning keeps content words
    (verbs, nouns, adjectives, literals, numbers) and drops function words;
    the dependency parser branches on verb/noun/adjective/preposition
    categories. *)

type t =
  | VB   (** verb, base/imperative: "insert", "find" *)
  | VBZ  (** verb, 3sg present: "starts", "contains" *)
  | VBG  (** verb, gerund/participle: "containing", "starting" *)
  | VBN  (** verb, past participle: "named", "nested" *)
  | NN   (** noun, singular: "line", "string" *)
  | NNS  (** noun, plural: "lines", "expressions" *)
  | JJ   (** adjective: "first", "empty" *)
  | RB   (** adverb: "only", "also" *)
  | IN   (** preposition / subordinating conj: "in", "at", "if", "with" *)
  | DT   (** determiner: "the", "a", "every", "each", "all" *)
  | CC   (** coordinating conjunction: "and", "or" *)
  | CD   (** cardinal number: "14", "third" is JJ *)
  | TO   (** "to" *)
  | PRP  (** pronoun: "it", "them" *)
  | MD   (** modal: "should" *)
  | WDT  (** wh-determiner/pronoun: "which", "that", "whose" *)
  | LIT  (** quoted literal: ":" , "-" *)
  | SYM  (** stray symbol *)
  | PUNCT (** sentence punctuation *)

val to_string : t -> string

val is_verb : t -> bool
(** VB, VBZ, VBG or VBN. *)

val is_noun : t -> bool
(** NN or NNS. *)

