(** The ASTMatcher benchmark domain (paper Table I, row 2): the Clang
    LibASTMatchers vocabulary (~505 APIs) with 100 evaluation queries.
    Grammar and document are generated from {!Am_spec}; settings and
    queries come from its pack [examples/packs/astmatcher]. *)

val domain : Domain.t

val aliases : string list
(** Extra lookup names, from the pack's [alias] lines. *)
