(** A domain pack assembled into a {!Domain.t}.

    A pack is four text files:

    - [domain.pack] — the {!Manifest}: [name] and [start] (required),
      [description], [source], [alias] (repeatable), [default]
      (repeatable, [default = <nonterminal> <codelet>]), [stop-verbs] and
      [unit-apis] (space-separated), [max-nodes]/[max-paths]/[max-steps]
      (the {!Dggt_grammar.Gpath.limits} overrides), [top-k],
      [expect-accuracy]/[expect-p95-ms] (the eval envelope — performance
      expectations [dggt eval --check-envelope] enforces);
    - [grammar.bnf] — the DSL grammar, parsed by {!Dggt_grammar.Bnf}
      through {!Dggt_grammar.Cfg.of_text};
    - [api.doc] — the API reference document ({!Docfile});
    - [queries.tsv] — the evaluation query set ({!Queryfile}); optional,
      a pack without one simply has no benchmark.

    Both built-in domains are packs under [examples/packs/], embedded in
    the library at build time ({!builtin}); [Dggt_pack.Loader] reads any
    other pack from a directory. Both turn the four texts into a domain
    through {!of_texts}, so every failure is an {!Err.t} naming the file
    and line. *)

val manifest_name : string
(** The pack's file names: ["domain.pack"], ["grammar.bnf"], ["api.doc"],
    ["queries.tsv"]. *)

val grammar_name : string
val doc_name : string
val queries_name : string

type settings = {
  manifest : Manifest.t;
  name : Manifest.binding;
  start : Manifest.binding;  (** the grammar root *)
  aliases : string list;  (** extra lookup names from [alias =] *)
  defaults : (string * string) list;
  path_limits : Dggt_grammar.Gpath.limits option;
  top_k : int option;
  expect_accuracy : float option;
      (** [expect-accuracy]: the accuracy floor the pack's query set is
          expected to hold, as a fraction in [[0, 1]] *)
  expect_p95_ms : float option;
      (** [expect-p95-ms]: the p95 synthesis-latency ceiling in
          milliseconds (positive) *)
}
(** What the manifest says, validated. *)

type texts = {
  manifest : string;
  grammar : string;
  doc : string;
  queries : string option;  (** [None]: the pack has no [queries.tsv] *)
}
(** A pack's files, read. *)

type t = {
  settings : settings;
  doc_entries : Docfile.entry list Lazy.t;
  query_entries : Queryfile.entry list;
  domain : Domain.t;
}

val of_texts : eager:bool -> dir:string -> texts -> (t, Err.t) result
(** The one way from a pack's texts to a domain; [dir] names its files in
    errors. The manifest and queries are parsed here. With [eager], so
    are the grammar graph and the document, whose errors are returned,
    and the domain's [digest] is computed; otherwise each is built when
    first forced, and the graph and document raise [Failure] on
    malformed text. The digest is the pack's version handle: MD5 hex
    over every file's name and MD5 in pack order (manifest, grammar,
    document, then the queries if there are any). *)

val builtin :
  dir:string ->
  manifest:string ->
  grammar:string ->
  doc:string ->
  queries:string ->
  Domain.t * string list
(** A built-in domain and its aliases, from its pack's four embedded
    texts: {!of_texts} without [eager], so a process pays for a domain's
    graph, document and digest only when it uses them. Raises [Failure]
    on malformed text, which the tests rule out for the committed
    packs. *)
