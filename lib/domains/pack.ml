module Bnf = Dggt_grammar.Bnf
module Cfg = Dggt_grammar.Cfg
module Gpath = Dggt_grammar.Gpath

let manifest_name = "domain.pack"
let grammar_name = "grammar.bnf"
let doc_name = "api.doc"
let queries_name = "queries.tsv"

let known_keys =
  [
    "name"; "description"; "source"; "start"; "alias"; "default";
    "stop-verbs"; "unit-apis"; "max-nodes"; "max-paths"; "max-steps"; "top-k";
    "expect-accuracy"; "expect-p95-ms";
  ]

type settings = {
  manifest : Manifest.t;
  name : Manifest.binding;
  start : Manifest.binding;
  aliases : string list;
  defaults : (string * string) list;
  path_limits : Gpath.limits option;
  top_k : int option;
  expect_accuracy : float option;
  expect_p95_ms : float option;
}

let ( let* ) = Result.bind

let required m key hint =
  match Manifest.find m key with
  | Some b when b.Manifest.value <> "" -> Ok b
  | _ -> Error (Err.vf m.Manifest.file "missing required key `%s`%s" key hint)

(* positive integer manifest field *)
let pos_int m key =
  let* v = Manifest.int_value m key in
  match v with
  | Some n when n <= 0 ->
      let b = Option.get (Manifest.find m key) in
      Error
        (Err.vf ~line:b.Manifest.line m.Manifest.file "%s must be positive"
           key)
  | v -> Ok v

let parse_defaults m =
  List.fold_left
    (fun acc (b : Manifest.binding) ->
      let* acc = acc in
      match Dggt_util.Strutil.split_ws b.Manifest.value with
      | nt :: (_ :: _ as rest) ->
          Ok ((nt, String.concat " " rest) :: acc)
      | _ ->
          Error
            (Err.v ~line:b.Manifest.line m.Manifest.file
               "default takes a nonterminal and a codelet, e.g. `default = \
                pos END()`"))
    (Ok [])
    (Manifest.find_all m "default")
  |> Result.map List.rev

let parse_limits m =
  let* max_nodes = pos_int m "max-nodes" in
  let* max_paths = pos_int m "max-paths" in
  let* max_steps = pos_int m "max-steps" in
  match (max_nodes, max_paths, max_steps) with
  | None, None, None -> Ok None
  | _ ->
      let d = Gpath.default_limits in
      Ok
        (Some
           {
             Gpath.max_nodes =
               Option.value max_nodes ~default:d.Gpath.max_nodes;
             max_paths = Option.value max_paths ~default:d.Gpath.max_paths;
             max_steps = Option.value max_steps ~default:d.Gpath.max_steps;
           })

let words m key =
  match Manifest.value m key with
  | None -> []
  | Some v -> Dggt_util.Strutil.split_ws v

(* the eval envelope: expected-floor accuracy (a fraction) and
   expected-ceiling p95 latency (milliseconds). Only [dggt eval
   --check-envelope] consumes them; loading just validates the ranges. *)
let parse_envelope m =
  let* acc = Manifest.num_value m "expect-accuracy" in
  let* () =
    match acc with
    | Some v when v < 0.0 || v > 1.0 ->
        let b = Option.get (Manifest.find m "expect-accuracy") in
        Error
          (Err.vf ~line:b.Manifest.line m.Manifest.file
             "expect-accuracy must be a fraction in [0, 1], got %g" v)
    | _ -> Ok ()
  in
  let* p95 = Manifest.num_value m "expect-p95-ms" in
  let* () =
    match p95 with
    | Some v when v <= 0.0 ->
        let b = Option.get (Manifest.find m "expect-p95-ms") in
        Error
          (Err.vf ~line:b.Manifest.line m.Manifest.file
             "expect-p95-ms must be positive, got %g" v)
    | _ -> Ok ()
  in
  Ok (acc, p95)

let settings m =
  (* typos in keys must not silently drop a setting *)
  let* () =
    List.fold_left
      (fun acc (b : Manifest.binding) ->
        let* () = acc in
        if List.mem b.Manifest.key known_keys then Ok ()
        else
          Error
            (Err.vf ~line:b.Manifest.line m.Manifest.file
               "unknown key %S (one of: %s)" b.Manifest.key
               (String.concat ", " known_keys)))
      (Ok ()) m.Manifest.bindings
  in
  let* name = required m "name" "" in
  let* start = required m "start" " (grammar root)" in
  let* defaults = parse_defaults m in
  let* path_limits = parse_limits m in
  let* top_k = pos_int m "top-k" in
  let* expect_accuracy, expect_p95_ms = parse_envelope m in
  Ok
    {
      manifest = m;
      name;
      start;
      aliases =
        List.map (fun (b : Manifest.binding) -> b.Manifest.value)
          (Manifest.find_all m "alias");
      defaults;
      path_limits;
      top_k;
      expect_accuracy;
      expect_p95_ms;
    }

let grammar s ~file text =
  match Cfg.of_text ~start:s.start.Manifest.value text with
  | Ok cfg -> Ok cfg
  | Error (Cfg.Parse_error e) ->
      Error (Err.v ~line:e.Bnf.line file e.Bnf.message)
  | Error (Cfg.Undefined_start sym) ->
      Error
        (Err.vf ~line:s.start.Manifest.line s.manifest.Manifest.file
           "start symbol %s has no rule in %s" sym grammar_name)
  | Error Cfg.Empty_grammar -> Error (Err.v file "grammar has no rules")

let domain s ~graph ~doc ~digest ~queries =
  let m = s.manifest in
  let unit_filter =
    match words m "unit-apis" with
    | [] -> None
    | apis ->
        let set = Hashtbl.create (List.length apis) in
        List.iter (fun a -> Hashtbl.replace set a ()) apis;
        Some (fun api -> Hashtbl.mem set api)
  in
  {
    Domain.name = s.name.Manifest.value;
    description = Option.value (Manifest.value m "description") ~default:"";
    source =
      Option.value (Manifest.value m "source")
        ~default:("domain pack " ^ Filename.dirname m.Manifest.file);
    graph;
    autom = lazy (Dggt_autom.Autom.compile (Lazy.force graph));
    doc;
    digest;
    queries = List.map (fun (e : Queryfile.entry) -> e.query) queries;
    defaults = s.defaults;
    unit_filter;
    path_limits = s.path_limits;
    stop_verbs = words m "stop-verbs";
    top_k = s.top_k;
    expect_accuracy = s.expect_accuracy;
    expect_p95_ms = s.expect_p95_ms;
  }

(* the version handle: every file's name and MD5, in pack order. Hashing
   each text where it lies copies none of them: ASTMatcher's are 450 KB. *)
let digest files =
  List.map
    (fun (name, text) -> name ^ "\n" ^ Digest.to_hex (Digest.string text))
    files
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

type texts = {
  manifest : string;
  grammar : string;
  doc : string;
  queries : string option;
}

type t = {
  settings : settings;
  doc_entries : Docfile.entry list Lazy.t;
  query_entries : Queryfile.entry list;
  domain : Domain.t;
}

let of_texts ~eager ~dir texts =
  let file = Filename.concat dir in
  (* built now, errors returned, when [eager]; else built when forced *)
  let later f =
    if eager then Result.map Lazy.from_val (f ())
    else Ok (lazy (Err.ok_exn (f ())))
  in
  let* s =
    Result.bind
      (Manifest.parse ~file:(file manifest_name) texts.manifest)
      settings
  in
  let* graph =
    later (fun () ->
        Result.map Dggt_grammar.Ggraph.build
          (grammar s ~file:(file grammar_name) texts.grammar))
  in
  let* doc_entries =
    later (fun () -> Docfile.parse ~file:(file doc_name) texts.doc)
  in
  let* query_entries =
    match texts.queries with
    | None -> Ok []
    | Some q -> Queryfile.parse ~file:(file queries_name) q
  in
  let files =
    (manifest_name, texts.manifest)
    :: (grammar_name, texts.grammar)
    :: (doc_name, texts.doc)
    :: Option.to_list (Option.map (fun q -> (queries_name, q)) texts.queries)
  in
  let* digest = later (fun () -> Ok (digest files)) in
  Ok
    {
      settings = s;
      doc_entries;
      query_entries;
      domain =
        domain s ~graph
          ~doc:(Lazy.map_val Docfile.to_doc doc_entries)
          ~digest
          ~queries:query_entries;
    }

let builtin ~dir ~manifest ~grammar ~doc ~queries =
  let p =
    Err.ok_exn
      (of_texts ~eager:false ~dir
         { manifest; grammar; doc; queries = Some queries })
  in
  (p.domain, p.settings.aliases)
