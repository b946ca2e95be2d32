(** API reference documents (input item (ii) of the pipeline).

    WordToAPI matches query words against the {e keywords} of each API:
    the subtokens of the API's name ("hasOperatorName" -> has, operator,
    name) plus the content words of its prose description. Keyword lists
    are precomputed at document construction so the per-query matching
    loop only does string comparisons. *)

type lit_kind = Lit_none | Lit_str | Lit_num

type pos_pref = Any | Verbish | Nounish
(** Some APIs only make sense for verb-form mentions (commands,
    condition predicates) or noun-form mentions (entities, positions);
    WordToAPI filters candidates by the query word's part of speech. *)

type entry = {
  api : string;             (** canonical API name as used in the grammar *)
  description : string;     (** prose, as in the reference manual *)
  name_keywords : string list; (** the API name's subtokens *)
  keywords : string list;   (** description lemmas; deduplicated *)
  lit : lit_kind;           (** which literal payloads the API absorbs *)
  pos_pref : pos_pref;
}

type t

val make :
  ?literal_apis:string list ->
  ?number_apis:string list ->
  ?verb_apis:string list ->
  ?noun_apis:string list ->
  (string * string) list ->
  t
(** [make pairs] builds a document from (api, description) pairs, deriving
    keywords from name subtokens and description content words.
    [literal_apis] marks APIs accepting quoted-string payloads,
    [number_apis] those accepting numeric payloads. *)

val entries : t -> entry list
val find : t -> string -> entry option
val keywords_of : t -> string -> string list
(** [] for unknown APIs. *)

val literal_apis : t -> string list
(** APIs with [lit = Lit_str]. *)

val number_apis : t -> string list
(** APIs with [lit = Lit_num]. *)

val size : t -> int

val derive_keywords : api:string -> description:string -> string list
(** The description-keyword extraction rule, exposed for tests: content
    words minus stopwords/function words, lemmatized, deduplicated, order
    preserved. Name subtokens are kept separately in [name_keywords]. *)
