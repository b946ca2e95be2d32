type symbol = T of string | N of string

type production = { id : int; lhs : string; rhs : symbol list }

type t = {
  start : string;
  productions : production array;
  nonterminals : string list;
  terminals : string list;
}

type error =
  | Parse_error of Bnf.error
  | Undefined_start of string
  | Empty_grammar

let pp_error fmt = function
  | Parse_error e -> Bnf.pp_error fmt e
  | Undefined_start s -> Format.fprintf fmt "start symbol %s has no rule" s
  | Empty_grammar -> Format.fprintf fmt "grammar has no rules"

let symbol_name = function T s -> s | N s -> s

let of_bnf ~start rules =
  if rules = [] then Error Empty_grammar
  else begin
    (* hashed sets beside the ordered lists: membership is O(1), so the
       build is linear in the grammar's size *)
    let nt_set = Hashtbl.create 64 and nts = ref [] in
    List.iter
      (fun (r : Bnf.rule) ->
        if not (Hashtbl.mem nt_set r.lhs) then begin
          Hashtbl.add nt_set r.lhs ();
          nts := r.lhs :: !nts
        end)
      rules;
    if not (Hashtbl.mem nt_set start) then Error (Undefined_start start)
    else begin
      let t_set = Hashtbl.create 64 and terminals = ref [] in
      let symbol s =
        if Hashtbl.mem nt_set s then N s
        else begin
          if not (Hashtbl.mem t_set s) then begin
            Hashtbl.add t_set s ();
            terminals := s :: !terminals
          end;
          T s
        end
      in
      let productions = ref [] in
      let next_id = ref 0 in
      List.iter
        (fun (r : Bnf.rule) ->
          List.iter
            (fun alt ->
              let rhs = List.map symbol alt in
              productions := { id = !next_id; lhs = r.lhs; rhs } :: !productions;
              incr next_id)
            r.alternatives)
        rules;
      Ok
        {
          start;
          productions = Array.of_list (List.rev !productions);
          nonterminals = List.rev !nts;
          terminals = List.rev !terminals;
        }
    end
  end

let of_text ~start text =
  match Bnf.parse text with
  | Error e -> Error (Parse_error e)
  | Ok rules -> of_bnf ~start rules

let productions_of t lhs =
  Array.to_list t.productions |> List.filter (fun p -> p.lhs = lhs)

let is_nonterminal t s = List.mem s t.nonterminals
let is_terminal t s = List.mem s t.terminals
let api_count t = List.length t.terminals
