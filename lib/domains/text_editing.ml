(* TextEditing is its pack: dune embeds examples/packs/textediting as
   [Te_pack] *)
let make () =
  Pack.builtin ~dir:"examples/packs/textediting"
    ~manifest:Te_pack.domain_pack ~grammar:Te_pack.grammar_bnf
    ~doc:Te_pack.api_doc ~queries:Te_pack.queries_tsv

let domain = fst (make ())
