(** The ASTMatcher benchmark domain (paper Table I, row 2): the Clang
    LibASTMatchers vocabulary (~505 APIs) with 100 evaluation queries.
    Grammar and document are generated from {!Am_spec}; settings and
    queries come from its pack [examples/packs/astmatcher]. *)

val domain : Domain.t

val aliases : string list
(** Extra lookup names, from the pack's [alias] lines. *)

val make : unit -> Domain.t * string list
(** A fresh copy of {!domain} and {!aliases} whose lazies are its own:
    forcing them never touches {!domain}'s, so another thread or domain
    may force {!domain} at the same time. *)
