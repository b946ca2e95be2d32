(** The [api.doc] file of a domain pack: the API reference document as
    data.

    One API per line, three tab-separated fields:

    {v
    # comment
    INSERT<TAB>verb<TAB>insert or add a given string at a position
    STRING<TAB>str<TAB>a literal string value given by the user
    WORDTOKEN<TAB>noun<TAB>a word in the text
    ALWAYS<TAB>-<TAB>no condition so the command always applies
    v}

    The flags field is a comma-separated subset of [str,num,verb,noun]
    ([-] for none): [str]/[num] mark the APIs that absorb quoted-string /
    numeric query literals, [verb]/[noun] the part-of-speech preference
    WordToAPI filters candidates with — exactly the four optional
    arguments of {!Dggt_core.Apidoc.make}. *)

type entry = {
  api : string;
  flags : string list;
  description : string;
  line : int;  (** 1-based line in the file, for the checker's diagnostics *)
}

val parse : file:string -> string -> (entry list, Err.t) result
(** Duplicate API names and unknown flags are errors. *)


val to_doc : entry list -> Dggt_core.Apidoc.t
(** Build the document through {!Dggt_core.Apidoc.make}, as ASTMatcher's
    generated document does, so a dumped pack round-trips
    byte-identically. *)

val render : Dggt_core.Apidoc.t -> string
(** Inverse of [load >> to_doc]: serialize a document back to [api.doc]
    text (used by [dggt pack dump]). Tabs/newlines inside descriptions are
    flattened to spaces. *)
