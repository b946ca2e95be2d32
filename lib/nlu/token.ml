type kind = Word | Number | Quoted | Punct | Symbol

type t = { index : int; text : string; kind : kind }

let make index text kind = { index; text; kind }
let lower t = if t.kind = Word then Dggt_util.Strutil.lowercase t.text else t.text

let kind_to_string = function
  | Word -> "word"
  | Number -> "number"
  | Quoted -> "quoted"
  | Punct -> "punct"
  | Symbol -> "symbol"

let pp fmt t =
  Format.fprintf fmt "%d:%s[%s]" t.index t.text (kind_to_string t.kind)

let equal (a : t) b = a = b
