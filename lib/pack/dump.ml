open Dggt_domains
module Cfg = Dggt_grammar.Cfg
module Bnf = Dggt_grammar.Bnf

let bnf_of_cfg (cfg : Cfg.t) =
  (* productions are stored grouped by lhs in definition order, so stable
     grouping reconstructs the (merged) rule list [Cfg.of_bnf] came from —
     re-parsing the rendered text yields a structurally identical CFG *)
  Array.to_list cfg.Cfg.productions
  |> Dggt_util.Listutil.group_by ~key:(fun (p : Cfg.production) -> p.Cfg.lhs)
  |> List.map (fun (lhs, ps) ->
         {
           Bnf.lhs;
           alternatives =
             List.map
               (fun (p : Cfg.production) -> List.map Cfg.symbol_name p.Cfg.rhs)
               ps;
         })

let single_line s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let render_manifest ?(aliases = []) (d : Domain.t) (cfg : Cfg.t) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# domain.pack — exported by `dggt pack dump`";
  line "name = %s" d.Domain.name;
  if d.Domain.description <> "" then
    line "description = %s" (single_line d.Domain.description);
  if d.Domain.source <> "" then line "source = %s" (single_line d.Domain.source);
  line "start = %s" cfg.Cfg.start;
  List.iter (fun a -> line "alias = %s" a) aliases;
  List.iter (fun (nt, code) -> line "default = %s %s" nt code) d.Domain.defaults;
  if d.Domain.stop_verbs <> [] then
    line "stop-verbs = %s" (String.concat " " d.Domain.stop_verbs);
  (match d.Domain.unit_filter with
  | None -> ()
  | Some f ->
      (* the predicate itself is code; its extension over the document's
         APIs — the only values the engine ever applies it to — is data *)
      let apis =
        Dggt_core.Apidoc.entries (Lazy.force d.Domain.doc)
        |> List.filter_map (fun (e : Dggt_core.Apidoc.entry) ->
               if f e.Dggt_core.Apidoc.api then Some e.Dggt_core.Apidoc.api
               else None)
      in
      if apis <> [] then line "unit-apis = %s" (String.concat " " apis));
  (match d.Domain.path_limits with
  | None -> ()
  | Some l ->
      line "max-nodes = %d" l.Dggt_grammar.Gpath.max_nodes;
      line "max-paths = %d" l.Dggt_grammar.Gpath.max_paths;
      line "max-steps = %d" l.Dggt_grammar.Gpath.max_steps);
  (match d.Domain.top_k with None -> () | Some k -> line "top-k = %d" k);
  (* shortest text that reads back as the same float *)
  let num v =
    let s = Printf.sprintf "%g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  in
  Option.iter (fun v -> line "expect-accuracy = %s" (num v)) d.Domain.expect_accuracy;
  Option.iter (fun v -> line "expect-p95-ms = %s" (num v)) d.Domain.expect_p95_ms;
  Buffer.contents buf

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())
  end

let dump ~dir ?aliases (d : Domain.t) =
  let g = Lazy.force d.Domain.graph in
  let cfg = g.Dggt_grammar.Ggraph.cfg in
  mkdir_p dir;
  let out name text = write_file (Filename.concat dir name) text in
  out Pack.manifest_name (render_manifest ?aliases d cfg);
  out Pack.grammar_name
    ("# grammar.bnf — exported by `dggt pack dump`\n"
    ^ Bnf.to_text (bnf_of_cfg cfg));
  out Pack.doc_name (Docfile.render (Lazy.force d.Domain.doc));
  if d.Domain.queries <> [] then
    out Pack.queries_name (Queryfile.render d.Domain.queries)
