(** The TextEditing benchmark domain (paper Table I, row 1): a 52-API
    end-user editing command language with 200 evaluation queries, built
    from its pack [examples/packs/textediting], embedded at build time. *)

val domain : Domain.t

val make : unit -> Domain.t * string list
(** A fresh copy of {!domain}, with the extra lookup names from the
    pack's [alias] lines, whose lazies are its own: forcing them never
    touches {!domain}'s, so another thread or domain may force {!domain}
    at the same time. *)
