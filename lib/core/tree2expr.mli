(** Step 6: TreeToExpression — linearize the winning CGT into code.

    The CGT's API nodes become nested calls: collapsing the nonterminal and
    derivation nodes, each API node's argument list is the sequence of API
    subtrees hanging under it, in right-hand-side position order. Literal
    payloads from the query (quoted strings, numbers) are attached to the
    literal-bearing APIs in first-come order.

    The module also parses expressions from text — the format ground-truth
    codelets are written in — and compares expressions structurally, which
    is the paper's accuracy criterion ("identical in terms of the set of
    APIs, arguments, and their relative order"). *)

type expr = { api : string; lit : string option; args : expr list }

type error =
  | Empty_cgt
  | Not_a_tree
  | Root_not_api of string (** the tree's top node is a nonterminal *)

val of_cgt :
  ?lits:(string * string) list ->
  ?defaults:(string * string) list ->
  Cgt.scratch ->
  Cgt.t ->
  (expr, error) result
(** Linearizes over the scratch's grammar; the scratch finds the root
    ({!Cgt.root}), so the caller's synthesis owns it. [lits] are (api, literal) bindings, consumed left-to-right per API name
    as the tree is linearized. A CGT whose root is a nonterminal node is
    linearized from its topmost API when unique ([Root_not_api] otherwise);
    this arises for root-anchored orphan paths.

    [defaults] maps nonterminal names to default codelet text: when a
    head-API production has an argument nonterminal the CGT leaves
    uncovered, the default expression is emitted in its place. This is how
    the TextEditing DSL's required arguments materialize ([END()] for an
    unmentioned position, [ALL()] for an unmentioned occurrence — exactly
    the unforced arguments visible in the paper's example codelets).
    Nonterminals without an entry are simply omitted. Malformed default
    text is ignored. *)

val to_string : expr -> string
(** [INSERT(STRING(":"), END(), ...)] — literals render in double quotes;
    numeric literals render bare. *)

val normalize : expr -> expr
(** Fold {e transparent literal carriers} into their parents: grammars that
    model a bare literal argument (Clang's [hasName("PI")]) use a synthetic
    API whose name starts with ["__"]; [normalize] replaces such a child
    with the parent's [lit] payload. Expressions without synthetic APIs are
    returned unchanged. *)

val parse : string -> (expr, string) result
(** Inverse of {!to_string}; accepts omitted parentheses for nullary calls
    ("END" == "END()"). *)

val equal : expr -> expr -> bool
(** Structural equality: API names (case-sensitive), literal payloads, and
    argument order all must match. *)

val api_multiset : expr -> string list
(** All API names in the expression, sorted — used for the softer
    "API-set" comparisons in error analysis. *)

val pp_error : Format.formatter -> error -> unit
