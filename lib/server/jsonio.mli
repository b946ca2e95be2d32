(** Hand-rolled JSON for the serving layer's request/response payloads.

    A deliberately small implementation over the stdlib (no opam JSON
    dependency): the values the service exchanges are shallow objects of
    strings, numbers and booleans. The parser is a plain recursive-descent
    reader with a depth cap, so hostile request bodies cannot blow the
    stack; the printer always emits valid UTF-8-transparent JSON (non-ASCII
    bytes pass through untouched, control characters are escaped). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Integral numbers print without a
    decimal point; other numbers use a round-trippable shortest form. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing garbage
    is an error). Errors carry a byte offset. Supports the full escape set
    including [\uXXXX] (surrogate pairs are combined and re-encoded as
    UTF-8). *)

(** {2 Accessors} — all total; [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for other constructors or missing fields. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option

val str_field : string -> t -> string option
val num_field : string -> t -> float option
val int_field : string -> t -> int option
val bool_field : string -> t -> bool option

val opt : ('a -> t) -> 'a option -> t
(** [opt inj v] is [Null] for [None]. *)

val list : ('a -> t) -> 'a list -> t
(** [list inj xs] is [Arr (List.map inj xs)]. *)
