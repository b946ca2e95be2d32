(** Context-free grammars of target DSLs.

    A CFG is the semantic form of a parsed {!Bnf} document: terminals are
    the domain's API names, nonterminals structure how APIs compose. *)

type symbol = T of string  (** terminal: an API name *)
            | N of string  (** nonterminal *)

type production = {
  id : int;            (** dense, 0-based; stable across the CFG's lifetime *)
  lhs : string;
  rhs : symbol list;   (** non-empty *)
}

type t = private {
  start : string;
  productions : production array; (** indexed by production id *)
  nonterminals : string list;     (** in order of first definition *)
  terminals : string list;        (** API names, in order of first use *)
}

type error =
  | Parse_error of Bnf.error
  | Undefined_start of string
  | Empty_grammar

val of_bnf : start:string -> Bnf.t -> (t, error) result
(** Symbols that appear on some left-hand side become nonterminals;
    everything else becomes a terminal. *)

val of_text : start:string -> string -> (t, error) result
(** [Bnf.parse] followed by {!of_bnf}. *)

val productions_of : t -> string -> production list
(** Productions of a nonterminal, in definition order. *)

val is_terminal : t -> string -> bool
val is_nonterminal : t -> string -> bool
val api_count : t -> int
val symbol_name : symbol -> string
val pp_error : Format.formatter -> error -> unit
