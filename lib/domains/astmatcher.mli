(** The ASTMatcher benchmark domain (paper Table I, row 2): the Clang
    LibASTMatchers vocabulary (487 APIs) with 100 evaluation queries,
    built from its pack [examples/packs/astmatcher], embedded at build
    time. *)

val domain : Domain.t

val make : unit -> Domain.t * string list
(** A fresh copy of {!domain}, with the extra lookup names from the
    pack's [alias] lines, whose lazies are its own: forcing them never
    touches {!domain}'s, so another thread or domain may force {!domain}
    at the same time. *)
