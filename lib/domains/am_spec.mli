(** The Clang AST-matcher vocabulary, as a specification table.

    The real LibASTMatchers reference is itself a large table of
    (name, category, argument type, prose); this module rebuilds that table
    for the matcher names of the public vocabulary. {!Am_grammar} compiles
    it into a BNF grammar, {!Am_doc} into the API reference document. *)

type kind = Decl | Stmt | Expr | Type
(** The node categories the grammar distinguishes. (Clang's hierarchy is
    finer; four kinds suffice to type-check the composition chains the
    query set exercises.) *)

type lit = Lnone | Lstr | Lnum

type spec =
  | Node of { name : string; kind : kind; desc : string }
      (** node matcher: appears in its kind's alternatives; accepts inner
          matchers applicable to that kind *)
  | Narrow of { name : string; kinds : kind list; lit : lit; desc : string }
      (** narrowing matcher: nullary, or carrying one literal *)
  | Traversal of { name : string; kinds : kind list; arg : kind option; desc : string }
      (** traversal matcher applicable to [kinds]; [arg] is the target kind
          ([None] = any kind, via the top [matcher] nonterminal) *)

val all : spec list
val name : spec -> string
