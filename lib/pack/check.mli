(** Semantic validation of a loaded pack — the [dggt pack check] pass.

    {!Loader.load} guarantees the files parse; this pass checks that the
    pieces agree with each other:

    - every [api.doc] API is a terminal of the grammar {e and} reachable
      from the grammar root (an unreachable API can never appear in a
      codelet, so documenting it is a bug);
    - every grammar terminal has a document entry (WordToAPI only proposes
      documented APIs, so an undocumented terminal is dead grammar);
    - every ground-truth codelet only uses documented APIs;
    - manifest [default] entries name real nonterminals and parse as
      codelets; [unit-apis] name documented APIs; path limits are sane
      ([max-nodes >= 2], [max-steps >= max-paths]).

    All findings are collected (not first-error), each naming its file and
    line. *)

val run : Loader.loaded -> Dggt_domains.Err.t list
(** [[]] means the pack is valid. *)
