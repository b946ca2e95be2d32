(* TextEditing is its pack: dune embeds examples/packs/textediting as
   [Te_pack] *)
let dir = "examples/packs/textediting"

let make () =
  Pack.builtin ~dir ~manifest:Te_pack.domain_pack ~queries:Te_pack.queries_tsv
    ~grammar:(lazy Te_pack.grammar_bnf)
    ~doc:
      (lazy
        (Docfile.to_doc
           (Err.ok_exn
              (Docfile.parse ~file:(Filename.concat dir Pack.doc_name)
                 Te_pack.api_doc))))

let domain, aliases = make ()
