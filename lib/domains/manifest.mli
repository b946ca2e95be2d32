(** The hand-rolled key/value format of [domain.pack].

    One binding per line, [key = value]; [#] starts a comment line; blank
    lines are ignored; keys match [[A-Za-z0-9._-]+]; values run to the end
    of the line, surrounding whitespace stripped. Keys may repeat — the
    loader uses repetition for list-valued settings ([default], [alias]).
    The parser keeps every binding's 1-based line so consumers can report
    precise errors. *)

type binding = { key : string; value : string; line : int }
type t = { file : string; bindings : binding list }

val parse : file:string -> string -> (t, Err.t) result
(** [file] is only used in error messages and [t.file]. *)

val load : string -> (t, Err.t) result
(** Read and {!parse} a manifest file. *)

val find : t -> string -> binding option
(** First binding of a key, in file order. *)

val find_all : t -> string -> binding list

val value : t -> string -> string option
val int_value : t -> string -> (int option, Err.t) result
(** [Ok None] when the key is absent; an error naming the binding's line
    when the value is not an integer. *)

val num_value : t -> string -> (float option, Err.t) result
(** Like {!int_value} for finite decimal numbers (the eval-envelope
    keys). *)

val read_file : string -> (string, Err.t) result
(** Whole-file read shared by the pack loaders; the error names the path. *)
