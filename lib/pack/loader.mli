(** Loading a domain pack directory (the format is
    {!Dggt_domains.Pack}) into a {!Dggt_domains.Domain.t}.

    Loading reads the pack's files and hands their texts to
    {!Dggt_domains.Pack.of_texts}, eagerly: the grammar graph and document
    are built immediately, so a loaded domain never fails a [Lazy.force]
    later, and every failure is an {!Dggt_domains.Err.t} naming the
    offending file and line. Loading performs the {e syntactic} checks;
    semantic validation (API reachability, limit sanity) is
    {!Check.run}. *)

type loaded = {
  domain : Dggt_domains.Domain.t;
  dir : string;
  settings : Dggt_domains.Pack.settings;
  doc_entries : Dggt_domains.Docfile.entry list;
      (** with line numbers, for {!Check} *)
  query_entries : Dggt_domains.Queryfile.entry list;
      (** with line numbers, for {!Check} *)
}

val load : string -> (loaded, Dggt_domains.Err.t) result
