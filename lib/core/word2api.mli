(** Step 3: WordToAPI — candidate APIs for each query word.

    Each surviving word of the pruned dependency graph is scored against
    every API's keywords ({!Dggt_nlu.Similarity}); the top-[k] APIs above
    the score threshold become the word's candidates. Literal tokens map to
    the domain's literal-bearing APIs (STRING/NUMBER-like).

    The candidate fan-out is the p_l of the paper's complexity analysis:
    raising [top_k] grows the search space of both engines. *)

type candidate = { api : string; score : float }
(** Scores carry a tiny penalty proportional to the API name's length:
    among equally matching candidates the shorter (more canonical) name
    ranks first — "argument" prefers [hasArgument] over
    [hasAnyTemplateArgument]. *)

type t
(** The WordToAPI map for one query. *)

val build :
  ?top_k:int ->
  ?threshold:float ->
  ?lookup:
    (lemma:string ->
    pos:Dggt_nlu.Pos.t ->
    (unit -> candidate list) ->
    candidate list) ->
  Apidoc.t ->
  Dggt_nlu.Depgraph.t ->
  t
(** Defaults: [top_k = 4], [threshold = Dggt_nlu.Similarity.min_score].
    Candidates are ordered by descending score (ties by API name for
    determinism).

    [lookup] is a memoization hook: when given, each word's candidate list
    is obtained as [lookup ~lemma ~pos compute] instead of calling [compute]
    directly. A caller (the serving layer) can satisfy the lookup from a
    cache keyed on [(lemma, pos)] — word scoring depends only on the lemma,
    the POS tag and the document, so results are reusable across queries.
    The cache key must also distinguish anything that changes scoring:
    the document, [top_k] and [threshold] (the server keys per domain and
    uses one fixed configuration per domain). *)

val candidates : t -> int -> candidate list
(** Candidates of a dependency-graph node id ([] if none). *)

val apis : t -> int -> string list

val score : t -> int -> string -> float
(** Score of one (node, api) pair; 0 when absent. *)

val assignment_score : t -> (int * string) list -> float
(** Sum of {!score} over an engine assignment (tie-break criterion). *)

val uncovered : t -> int list
(** Node ids that received no candidate, in token order. *)

val restrict : t -> int -> string -> t
(** [restrict t node api] pins node's candidate list to the single [api]
    (used when orphan relocation fixes an interpretation). *)

val merge_modifier : t -> head:int -> modifier:int -> string list -> t
(** Absorption: restrict [head] to the listed shared APIs, adding the
    modifier word's score to each survivor and re-ranking — so "while
    loops" prefers whileStmt (strong on "while") over doStmt (marginally
    stronger on "loops" alone). *)

val cap : t -> int -> t
(** Truncate every candidate list to its first [k] entries. The engine
    builds the map uncapped, lets modifier absorption and unit filtering
    see the full ranking, then caps to the configured fan-out. *)
