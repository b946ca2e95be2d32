(** String helpers shared across the DGGT code base.

    Everything here is pure and allocation-conscious; these functions sit on
    the hot path of tokenization and WordToAPI matching. *)

val lowercase : string -> string
(** ASCII lowercasing (queries and API documents are ASCII). *)

val is_alpha : char -> bool
val is_digit : char -> bool
val is_alnum : char -> bool

val starts_with : prefix:string -> string -> bool
val ends_with : suffix:string -> string -> bool
val contains_sub : sub:string -> string -> bool

val split_on_chars : chars:char list -> string -> string list
(** Split [s] on any of [chars]; empty fields are dropped. *)

val split_ws : string -> string list
(** Split on ASCII whitespace; empty fields are dropped. *)

val split_camel : string -> string list
(** Split an identifier into lowercase subtokens at camelCase boundaries,
    underscores, and digit/letter transitions.
    ["IterationScope"] becomes [["iteration"; "scope"]];
    ["hasOperatorName"] becomes [["has"; "operator"; "name"]];
    ["STARTFROM"] (no case boundary) stays [["startfrom"]]. *)

val strip : string -> string
(** Trim ASCII whitespace from both ends. *)

val drop_suffix : suffix:string -> string -> string option
(** [drop_suffix ~suffix s] is [Some prefix] when [s = prefix ^ suffix]. *)

val common_prefix_len : string -> string -> int
