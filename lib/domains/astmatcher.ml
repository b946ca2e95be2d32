(* ASTMatcher is its pack: dune embeds examples/packs/astmatcher as
   [Am_pack] *)
let make () =
  Pack.builtin ~dir:"examples/packs/astmatcher"
    ~manifest:Am_pack.domain_pack ~grammar:Am_pack.grammar_bnf
    ~doc:Am_pack.api_doc ~queries:Am_pack.queries_tsv

let domain = fst (make ())
