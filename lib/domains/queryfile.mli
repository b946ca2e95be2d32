(** The [queries.tsv] file of a domain pack: the domain's evaluation query
    set (the paper's Table I), one query per line as four tab-separated
    fields — id, flags ([hard] or [-]), natural-language text, and the
    ground-truth codelet.

    Ground truths are parsed eagerly with {!Dggt_core.Tree2expr.parse}: a
    malformed expected codelet fails the load with the file and line, not
    an accuracy surprise at evaluation time. *)

type entry = { query : Domain.query; line : int }

val parse : file:string -> string -> (entry list, Err.t) result
val load : string -> (entry list, Err.t) result

val render : Domain.query list -> string
(** Serialize a query set back to [queries.tsv] text; tabs/newlines inside
    fields are flattened to spaces. *)
