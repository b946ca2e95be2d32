open Dggt_domains
module Ggraph = Dggt_grammar.Ggraph

let doc_api_findings (l : Loader.loaded) g =
  let dpath = Filename.concat l.Loader.dir Pack.doc_name in
  List.concat_map
    (fun (e : Docfile.entry) ->
      match Ggraph.api_node g e.Docfile.api with
      | None ->
          [
            Err.vf ~line:e.Docfile.line dpath
              "API %s is not a terminal of the grammar" e.Docfile.api;
          ]
      | Some node ->
          if Ggraph.reachable g g.Ggraph.root node then []
          else
            [
              Err.vf ~line:e.Docfile.line dpath
                "API %s is unreachable from the grammar root %s (no codelet \
                 can ever contain it)"
                e.Docfile.api g.Ggraph.cfg.Dggt_grammar.Cfg.start;
            ])
    l.Loader.doc_entries

let grammar_api_findings (l : Loader.loaded) g doc =
  let gpath = Filename.concat l.Loader.dir Pack.grammar_name in
  List.filter_map
    (fun (api, _) ->
      if Dggt_core.Apidoc.find doc api <> None then None
      else
        Some
          (Err.vf gpath
             "grammar terminal %s has no %s entry (WordToAPI can never \
              reach it)"
             api Pack.doc_name))
    (Ggraph.api_nodes g)

let query_findings (l : Loader.loaded) doc =
  let qpath = Filename.concat l.Loader.dir Pack.queries_name in
  List.concat_map
    (fun (e : Queryfile.entry) ->
      let q = e.Queryfile.query in
      match Dggt_core.Tree2expr.parse q.Domain.expected with
      | Error m ->
          (* unreachable after a successful load, but pin it anyway *)
          [
            Err.vf ~line:e.Queryfile.line qpath
              "query %d: unparseable ground truth: %s" q.Domain.id m;
          ]
      | Ok expr ->
          Dggt_core.Tree2expr.api_multiset expr
          |> Dggt_util.Listutil.uniq
          |> List.filter_map (fun api ->
                 if Dggt_core.Apidoc.find doc api <> None then None
                 else
                   Some
                     (Err.vf ~line:e.Queryfile.line qpath
                        "query %d: ground truth uses unknown API %s"
                        q.Domain.id api)))
    l.Loader.query_entries

let manifest_findings (l : Loader.loaded) g doc =
  let m = l.Loader.settings.Pack.manifest in
  let mpath = m.Manifest.file in
  let at key f =
    match Manifest.find m key with
    | None -> []
    | Some b -> f b
  in
  let defaults =
    List.concat_map
      (fun (b : Manifest.binding) ->
        match Dggt_util.Strutil.split_ws b.Manifest.value with
        | nt :: rest ->
            let findings = ref [] in
            if Ggraph.nt_node g nt = None then
              findings :=
                Err.vf ~line:b.Manifest.line mpath
                  "default for %s: no such nonterminal in the grammar" nt
                :: !findings;
            (match Dggt_core.Tree2expr.parse (String.concat " " rest) with
            | Error msg ->
                findings :=
                  Err.vf ~line:b.Manifest.line mpath
                    "default for %s is not a codelet: %s" nt msg
                  :: !findings
            | Ok _ -> ());
            List.rev !findings
        | [] -> [])
      (Manifest.find_all m "default")
  in
  let unit_apis =
    at "unit-apis" (fun b ->
        Dggt_util.Strutil.split_ws b.Manifest.value
        |> List.filter_map (fun api ->
               if Dggt_core.Apidoc.find doc api <> None then None
               else
                 Some
                   (Err.vf ~line:b.Manifest.line mpath
                      "unit-apis names unknown API %s" api)))
  in
  let limits =
    match l.Loader.domain.Domain.path_limits with
    | None -> []
    | Some lim ->
        let bad key cond msg =
          if cond then
            let line =
              match Manifest.find m key with
              | Some b -> b.Manifest.line
              | None -> 0
            in
            [ Err.v ~line mpath msg ]
          else []
        in
        bad "max-nodes"
          (lim.Dggt_grammar.Gpath.max_nodes < 2)
          "max-nodes must be at least 2 (a path has two endpoints)"
        @ bad "max-steps"
            (lim.Dggt_grammar.Gpath.max_steps
            < lim.Dggt_grammar.Gpath.max_paths)
            "max-steps must be at least max-paths (each kept path costs a \
             step)"
  in
  defaults @ unit_apis @ limits

let run (l : Loader.loaded) =
  let g = Lazy.force l.Loader.domain.Domain.graph in
  let doc = Lazy.force l.Loader.domain.Domain.doc in
  doc_api_findings l g
  @ grammar_api_findings l g doc
  @ query_findings l doc
  @ manifest_findings l g doc
