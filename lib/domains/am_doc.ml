(* The ASTMatcher reference document, generated from the same spec table
   that generates the grammar (the real LibASTMatchers reference is
   likewise one table rendered two ways). *)

open Am_spec

let entries =
  List.map (fun s -> (name s, match s with
    | Node n -> n.desc
    | Narrow n -> n.desc
    | Traversal t -> t.desc))
    Am_spec.all
  @ [
      ("__strlit", "a string literal value given in the query");
      ("__intlit", "a numeric literal value given in the query");
    ]

let literal_apis = [ "__strlit" ]
let number_apis = [ "__intlit" ]

(* Node matchers are noun mentions ("constructor expressions"); traversal
   and literal-bearing narrowing matchers are verb-ish mentions ("declares",
   "named", "calls", "returns"). Nullary narrowing matchers ("virtual",
   "const") arrive as adjectives, so they stay unrestricted. *)
let noun_apis =
  List.filter_map (function Node n -> Some n.name | _ -> None) Am_spec.all

let doc () = Dggt_core.Apidoc.make ~literal_apis ~number_apis ~noun_apis entries
