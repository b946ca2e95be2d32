(* Settings and queries come from examples/packs/astmatcher, embedded by
   dune as [Am_pack]; grammar and document are generated from [Am_spec] *)
let make () =
  Pack.builtin ~dir:"examples/packs/astmatcher" ~manifest:Am_pack.domain_pack
    ~queries:Am_pack.queries_tsv
    ~grammar:(lazy (Am_grammar.bnf ()))
    ~doc:(lazy (Am_doc.doc ()))

let domain, aliases = make ()
