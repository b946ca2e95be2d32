type entry = { query : Domain.query; line : int }

let parse ~file text =
  let lines = String.split_on_char '\n' text in
  let seen = Hashtbl.create 256 in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
        let s = Dggt_util.Strutil.strip raw in
        if s = "" || s.[0] = '#' then go (lineno + 1) acc rest
        else
          match String.split_on_char '\t' raw with
          | [ id; flag; text; expected ] -> (
              let text = Dggt_util.Strutil.strip text in
              let expected = Dggt_util.Strutil.strip expected in
              match int_of_string_opt (Dggt_util.Strutil.strip id) with
              | None ->
                  Error
                    (Err.vf ~line:lineno file "expected an integer id, got %S"
                       id)
              | Some id when Hashtbl.mem seen id ->
                  Error (Err.vf ~line:lineno file "duplicate query id %d" id)
              | Some id -> (
                  let hard =
                    match Dggt_util.Strutil.strip flag with
                    | "-" | "" -> Ok false
                    | "hard" -> Ok true
                    | f -> Error f
                  in
                  match hard with
                  | Error f ->
                      Error
                        (Err.vf ~line:lineno file "unknown flag %S (hard|-)" f)
                  | Ok _ when text = "" ->
                      Error (Err.v ~line:lineno file "empty query text")
                  | Ok hard -> (
                      (* ground truths must be well-formed codelets: a
                         mistyped expected answer would silently count every
                         run against this query as wrong *)
                      match Dggt_core.Tree2expr.parse expected with
                      | Error m ->
                          Error
                            (Err.vf ~line:lineno file
                               "query %d: unparseable ground-truth codelet \
                                (%s): %s"
                               id m expected)
                      | Ok _ ->
                          Hashtbl.replace seen id ();
                          go (lineno + 1)
                            ({
                               query = { Domain.id; text; expected; hard };
                               line = lineno;
                             }
                            :: acc)
                            rest)))
          | fields ->
              Error
                (Err.vf ~line:lineno file
                   "expected 4 tab-separated fields (id, flags, text, \
                    expected), got %d"
                   (List.length fields)))
  in
  go 1 [] lines

let load path =
  match Manifest.read_file path with
  | Error e -> Error e
  | Ok text -> parse ~file:path text

let render queries =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    "# queries.tsv — one evaluation query per line:\n\
     # ID <TAB> FLAGS <TAB> TEXT <TAB> EXPECTED  (FLAGS: `hard` or `-`)\n";
  List.iter
    (fun (q : Domain.query) ->
      let clean s =
        String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s
      in
      Buffer.add_string buf
        (Printf.sprintf "%d\t%s\t%s\t%s\n" q.Domain.id
           (if q.Domain.hard then "hard" else "-")
           (clean q.Domain.text)
           (clean q.Domain.expected)))
    queries;
  Buffer.contents buf
