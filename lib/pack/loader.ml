open Dggt_domains

type loaded = {
  domain : Domain.t;
  dir : string;
  settings : Pack.settings;
  doc_entries : Docfile.entry list;
  query_entries : Queryfile.entry list;
}

let ( let* ) = Result.bind

let load dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Err.v dir "no such pack directory")
  else
    let read name =
      let p = Filename.concat dir name in
      if Sys.file_exists p && not (Sys.is_directory p) then Manifest.read_file p
      else Error (Err.v p "no such file")
    in
    let* manifest = read Pack.manifest_name in
    let* grammar = read Pack.grammar_name in
    let* doc = read Pack.doc_name in
    let* queries =
      if Sys.file_exists (Filename.concat dir Pack.queries_name) then
        Result.map Option.some (read Pack.queries_name)
      else Ok None
    in
    let* p =
      Pack.of_texts ~eager:true ~dir { Pack.manifest; grammar; doc; queries }
    in
    Ok
      {
        domain = p.Pack.domain;
        dir;
        settings = p.Pack.settings;
        doc_entries = Lazy.force p.Pack.doc_entries;
        query_entries = p.Pack.query_entries;
      }
