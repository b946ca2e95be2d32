(** Rule-based dependency parser for imperative English queries.

    This substitutes for the external NLU service (Stanford CoreNLP) used by
    HISyn: it produces collapsed dependency graphs for the imperative,
    single-intent queries of NL-programming benchmarks ("append X in every
    line containing numerals", "find call expressions whose argument is a
    float literal").

    The attachment rules cover: imperative root verbs, direct objects, noun
    compounds, adjectival/numeric/determiner modifiers, collapsed
    prepositional attachment with an "of"-special recency heuristic,
    participial and relative clauses, subordinate ("if"/"when") clauses,
    coordination, and quoted-literal attachment.

    The parser is deterministic and total: every token either receives a
    governor or attaches to the root with the unclassified {!Dep.Dep} label.
    Parse errors on unusual phrasings are expected and are exactly the
    input complexity that orphan-node relocation (section V-B of the paper)
    exists to absorb. *)

val parse : string -> Depgraph.t
(** Tokenize, tag, and parse a query. *)
