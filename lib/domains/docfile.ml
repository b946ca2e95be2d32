type entry = {
  api : string;
  flags : string list;
  description : string;
  line : int;
}

let known_flags = [ "str"; "num"; "verb"; "noun" ]

let split_tabs s =
  (* String.split_on_char keeps empty fields, which we want to diagnose *)
  String.split_on_char '\t' s

let parse ~file text =
  let lines = String.split_on_char '\n' text in
  let seen = Hashtbl.create 256 in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
        let s = Dggt_util.Strutil.strip raw in
        if s = "" || s.[0] = '#' then go (lineno + 1) acc rest
        else
          match split_tabs raw with
          | [ api; flags; description ] -> (
              let api = Dggt_util.Strutil.strip api in
              let description = Dggt_util.Strutil.strip description in
              if api = "" then
                Error (Err.v ~line:lineno file "empty API name")
              else if Hashtbl.mem seen api then
                Error (Err.vf ~line:lineno file "duplicate API %s" api)
              else
                let flags = Dggt_util.Strutil.strip flags in
                let flags =
                  if flags = "-" || flags = "" then []
                  else
                    Dggt_util.Strutil.split_on_chars ~chars:[ ','; ' ' ] flags
                in
                match
                  List.find_opt (fun f -> not (List.mem f known_flags)) flags
                with
                | Some f ->
                    Error
                      (Err.vf ~line:lineno file
                         "unknown flag %S (str|num|verb|noun)" f)
                | None ->
                    Hashtbl.replace seen api ();
                    go (lineno + 1)
                      ({ api; flags; description; line = lineno } :: acc)
                      rest)
          | fields ->
              Error
                (Err.vf ~line:lineno file
                   "expected 3 tab-separated fields (API, flags, \
                    description), got %d"
                   (List.length fields)))
  in
  go 1 [] lines

let to_doc entries =
  let with_flag f =
    List.filter_map
      (fun e -> if List.mem f e.flags then Some e.api else None)
      entries
  in
  Dggt_core.Apidoc.make
    ~literal_apis:(with_flag "str")
    ~number_apis:(with_flag "num")
    ~verb_apis:(with_flag "verb")
    ~noun_apis:(with_flag "noun")
    (List.map (fun e -> (e.api, e.description)) entries)

let flags_of_entry (e : Dggt_core.Apidoc.entry) =
  let lit =
    match e.Dggt_core.Apidoc.lit with
    | Dggt_core.Apidoc.Lit_none -> []
    | Dggt_core.Apidoc.Lit_str -> [ "str" ]
    | Dggt_core.Apidoc.Lit_num -> [ "num" ]
  in
  let pos =
    match e.Dggt_core.Apidoc.pos_pref with
    | Dggt_core.Apidoc.Any -> []
    | Dggt_core.Apidoc.Verbish -> [ "verb" ]
    | Dggt_core.Apidoc.Nounish -> [ "noun" ]
  in
  lit @ pos

let single_line s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let render doc =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# api.doc — one API per line: NAME <TAB> FLAGS <TAB> DESCRIPTION\n\
     # FLAGS is a comma-separated subset of str,num,verb,noun, or `-`.\n";
  List.iter
    (fun (e : Dggt_core.Apidoc.entry) ->
      let flags =
        match flags_of_entry e with
        | [] -> "-"
        | fs -> String.concat "," fs
      in
      Buffer.add_string buf
        (Printf.sprintf "%s\t%s\t%s\n" e.Dggt_core.Apidoc.api flags
           (single_line e.Dggt_core.Apidoc.description)))
    (Dggt_core.Apidoc.entries doc);
  Buffer.contents buf
