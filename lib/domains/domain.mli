(** Benchmark domains: a target DSL (grammar + API document) together with
    its evaluation query set (the paper's Table I). *)

type query = {
  id : int;            (** 1-based, stable — Table III refers to these *)
  text : string;       (** the natural-language query *)
  expected : string;   (** ground-truth codelet, {!Dggt_core.Tree2expr.parse}-able *)
  hard : bool;         (** known-hard case (deep/ambiguous), for case studies *)
}

type t = {
  name : string;
  description : string;
  source : string;         (** provenance note, cited in Table I *)
  graph : Dggt_grammar.Ggraph.t Lazy.t;
  autom : Dggt_autom.Autom.t Lazy.t;
      (** [graph] compiled into the EdgeToPath automaton on first use.
          No two threads or domains may force one of this record's
          lazies at once: OCaml 5 [Lazy] is not safe under concurrent
          forcing. A value forced once is safe to read from anywhere; a
          server builds its registry's own copies
          ({!Text_editing.make}, {!Astmatcher.make}), one build at a
          time, on a pool worker. *)
  doc : Dggt_core.Apidoc.t Lazy.t;
  digest : string Lazy.t;
      (** the digest of the pack texts the domain was built from
          ({!Pack.of_texts}): the version handle that keys its compiled
          automaton and the warm store *)
  queries : query list;
  defaults : (string * string) list;
      (** argument-completion defaults ({!Dggt_core.Tree2expr.of_cgt}) *)
  unit_filter : (string -> bool) option;
      (** scope restriction for conditional-clause subjects *)
  path_limits : Dggt_grammar.Gpath.limits option;
      (** domain-tuned caps for the all-path search (dense grammars need
          tighter ones); [None] = {!Dggt_grammar.Gpath.default_limits} *)
  stop_verbs : string list;
  top_k : int option; (** WordToAPI fan-out override *)
  expect_accuracy : float option;
      (** the eval envelope's accuracy floor ([expect-accuracy]) *)
  expect_p95_ms : float option;
      (** the eval envelope's p95 latency ceiling in ms ([expect-p95-ms]) *)
}

val configure :
  ?caches:Dggt_core.Engine.lookups ->
  ?autom:Dggt_autom.Autom.t ->
  t ->
  Dggt_core.Engine.config ->
  Dggt_core.Engine.session
(** Apply the domain's defaults/unit_filter/path_limits to an engine
    configuration, and build the synthesis target ([caches] installs
    per-stage memoization). The target runs on [autom] when given — a
    server passes its registry's automaton, reused across reloads — and
    on the domain's own [autom] otherwise, forcing it and the
    document. The session feeds {!Dggt_core.Engine.respond} directly. *)

val api_count : t -> int
val query_count : t -> int

val expected_expr : query -> Dggt_core.Tree2expr.expr
(** Parses [expected]; raises [Invalid_argument] with the query id when the
    ground truth is malformed (tests guard against this). *)

val check : t -> Dggt_core.Tree2expr.expr option -> query -> bool
(** The paper's correctness criterion: exact structural match with the
    ground truth. *)
