type t =
  | VB
  | VBZ
  | VBG
  | VBN
  | NN
  | NNS
  | JJ
  | RB
  | IN
  | DT
  | CC
  | CD
  | TO
  | PRP
  | MD
  | WDT
  | LIT
  | SYM
  | PUNCT

let to_string = function
  | VB -> "VB"
  | VBZ -> "VBZ"
  | VBG -> "VBG"
  | VBN -> "VBN"
  | NN -> "NN"
  | NNS -> "NNS"
  | JJ -> "JJ"
  | RB -> "RB"
  | IN -> "IN"
  | DT -> "DT"
  | CC -> "CC"
  | CD -> "CD"
  | TO -> "TO"
  | PRP -> "PRP"
  | MD -> "MD"
  | WDT -> "WDT"
  | LIT -> "LIT"
  | SYM -> "SYM"
  | PUNCT -> "PUNCT"

let is_verb = function VB | VBZ | VBG | VBN -> true | _ -> false
let is_noun = function NN | NNS -> true | _ -> false
