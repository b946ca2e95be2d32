(** Exporting a (typically compiled-in) domain to an on-disk pack — the
    [dggt pack dump] command.

    The export is designed to round-trip: {!Loader.load} on the dumped
    directory rebuilds a structurally identical grammar graph (the BNF is
    reconstructed from the CFG's production array, which preserves rule and
    alternative order), an identical API document, identical engine
    settings and the same eval envelope ([expect-accuracy]/[expect-p95-ms])
    — so synthesis through the pack is byte-identical to the compiled-in
    domain (the golden equivalence suite pins this), and
    [dggt eval --check-envelope] on the dump checks what the source pack
    pinned.

    The only lossy corner is [unit_filter]: the domain holds a predicate,
    the pack stores its extension over the document's APIs ([unit-apis]) —
    equivalent wherever the engine evaluates it, since candidates always
    come from the document. *)

val dump : dir:string -> ?aliases:string list -> Dggt_domains.Domain.t -> unit
(** Creates [dir] (and parents) if needed, then writes [domain.pack],
    [grammar.bnf], [api.doc], and — when the domain has queries —
    [queries.tsv]. Raises [Sys_error] on I/O failure. *)
