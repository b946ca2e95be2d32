type kind = Word | Number | Quoted | Punct | Symbol

type t = { index : int; text : string; kind : kind }

let make index text kind = { index; text; kind }
let lower t = if t.kind = Word then Dggt_util.Strutil.lowercase t.text else t.text
