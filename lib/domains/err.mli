(** File/line-precise pack errors.

    Every diagnostic the pack parsers, loader and checker produce names
    the file it came from and, when one makes sense, the 1-based line —
    [line = 0] means the error is about the file as a whole (missing,
    unreadable, empty). *)

type t = { file : string; line : int; message : string }

val v : ?line:int -> string -> string -> t
(** [v ?line file message]; [line] defaults to 0 (whole-file). *)

val vf : ?line:int -> string -> ('a, unit, string, t) format4 -> 'a
(** [Printf]-style {!v}. *)

val to_string : t -> string
(** ["file:line: message"], or ["file: message"] when [line = 0]. *)

val ok_exn : ('a, t) result -> 'a
(** The [Ok] value; raises [Failure] with {!to_string} of an [Error]. *)
