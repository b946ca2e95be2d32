(** Dependency relation labels (collapsed Stanford style).

    Prepositions are collapsed into the edge label ([Nmod "in"] for
    "append ... in every line"), as HISyn's pipeline does, so the pruned
    dependency graph contains only content words. *)

type t =
  | Root
  | Obj           (** direct object: insert -> string *)
  | Nsubj         (** subject (relative clauses): contain -> line *)
  | Nmod of string (** nominal modifier collapsed over a preposition *)
  | Advcl of string (** adverbial clause collapsed over its marker ("if") *)
  | Acl            (** clausal modifier of a noun: line -> containing *)
  | Amod           (** adjectival modifier: line -> empty *)
  | Det            (** determiner: line -> every *)
  | Nummod         (** numeric modifier: characters -> 14 *)
  | Compound       (** noun compound: "constructor expressions" *)
  | Conj of string (** coordination, label carries the conjunction *)
  | Lit            (** attachment of a quoted literal *)
  | Dep            (** unclassified *)

val to_string : t -> string
