open Dggt_domains

type loaded = {
  domain : Domain.t;
  dir : string;
  settings : Pack.settings;
  digest : string;
  doc_entries : Docfile.entry list;
  query_entries : Queryfile.entry list;
}

let ( let* ) = Result.bind

(* the version handle: every file's name and bytes, in pack order *)
let digest files =
  List.map (fun (path, text) -> Filename.basename path ^ "\n" ^ text) files
  |> String.concat "" |> Digest.string |> Digest.to_hex

let load dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Err.v dir "no such pack directory")
  else
    let path = Filename.concat dir in
    let read name =
      let p = path name in
      if Sys.file_exists p && not (Sys.is_directory p) then
        Result.map (fun text -> (p, text)) (Manifest.read_file p)
      else Error (Err.v p "no such file")
    in
    let* ((mpath, mtext) as manifest) = read Pack.manifest_name in
    let* settings =
      Result.bind (Manifest.parse ~file:mpath mtext) Pack.settings
    in
    let* ((gpath, gtext) as grammar) = read Pack.grammar_name in
    let* cfg = Pack.grammar settings ~file:gpath gtext in
    let* ((dpath, dtext) as doc) = read Pack.doc_name in
    let* doc_entries = Docfile.parse ~file:dpath dtext in
    let* queries =
      if Sys.file_exists (path Pack.queries_name) then
        Result.map Option.some (read Pack.queries_name)
      else Ok None
    in
    let* query_entries =
      match queries with
      | None -> Ok []
      | Some (qpath, qtext) -> Queryfile.parse ~file:qpath qtext
    in
    Ok
      {
        domain =
          Pack.domain settings
            ~graph:(Lazy.from_val (Dggt_grammar.Ggraph.build cfg))
            ~doc:(Lazy.from_val (Docfile.to_doc doc_entries))
            ~queries:query_entries;
        dir;
        settings;
        digest = digest (manifest :: grammar :: doc :: Option.to_list queries);
        doc_entries;
        query_entries;
      }
