type t =
  | Root
  | Obj
  | Nsubj
  | Nmod of string
  | Advcl of string
  | Acl
  | Amod
  | Det
  | Nummod
  | Compound
  | Conj of string
  | Lit
  | Dep

let to_string = function
  | Root -> "root"
  | Obj -> "obj"
  | Nsubj -> "nsubj"
  | Nmod p -> "nmod:" ^ p
  | Advcl m -> "advcl:" ^ m
  | Acl -> "acl"
  | Amod -> "amod"
  | Det -> "det"
  | Nummod -> "nummod"
  | Compound -> "compound"
  | Conj c -> "conj:" ^ c
  | Lit -> "lit"
  | Dep -> "dep"
