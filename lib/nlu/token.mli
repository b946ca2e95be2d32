(** Tokens produced by the query tokenizer. *)

type kind =
  | Word      (** alphabetic word, possibly hyphenated *)
  | Number    (** integer or decimal numeral *)
  | Quoted    (** quoted literal; [text] is the content without the quotes *)
  | Punct     (** sentence punctuation: . , ; : ! ? *)
  | Symbol    (** anything else, e.g. a bare "*" *)

type t = {
  index : int;     (** position in the token sequence, 0-based *)
  text : string;   (** surface form (quotes stripped for [Quoted]) *)
  kind : kind;
}

val make : int -> string -> kind -> t
val lower : t -> string
(** Lowercased surface form (identity for non-words). *)

