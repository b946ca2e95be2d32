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
    the library at build time; [Dggt_pack.Loader] reads any other pack
    from a directory. Both go through {!settings}, {!grammar} and
    {!domain}, so every failure is an {!Err.t} naming the file and line. *)

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

val settings : Manifest.t -> (settings, Err.t) result
(** Unknown keys, missing [name]/[start] and malformed values are errors
    on the binding's line. *)

val grammar :
  settings -> file:string -> string -> (Dggt_grammar.Cfg.t, Err.t) result
(** Parse [grammar.bnf] text under the manifest's start symbol. *)

val domain :
  settings ->
  graph:Dggt_grammar.Ggraph.t Lazy.t ->
  doc:Dggt_core.Apidoc.t Lazy.t ->
  queries:Queryfile.entry list ->
  Domain.t

val builtin :
  dir:string ->
  manifest:string ->
  queries:string ->
  grammar:string Lazy.t ->
  doc:Dggt_core.Apidoc.t Lazy.t ->
  Domain.t * string list
(** A built-in domain and its aliases, from its embedded manifest and
    query text; [dir] names the pack in error messages. Grammar and
    document stay lazy, so a process pays for a domain's graph only when
    it uses the domain. Raises [Failure] on malformed text, which the
    tests rule out for the committed packs. *)
