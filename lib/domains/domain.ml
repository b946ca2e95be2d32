type query = { id : int; text : string; expected : string; hard : bool }

type t = {
  name : string;
  description : string;
  source : string;
  graph : Dggt_grammar.Ggraph.t Lazy.t;
  autom : Dggt_autom.Autom.t Lazy.t;
  doc : Dggt_core.Apidoc.t Lazy.t;
  digest : string Lazy.t;
  queries : query list;
  defaults : (string * string) list;
  unit_filter : (string -> bool) option;
  path_limits : Dggt_grammar.Gpath.limits option;
  stop_verbs : string list;
  top_k : int option;
  expect_accuracy : float option;
  expect_p95_ms : float option;
}

let configure ?caches ?autom t (cfg : Dggt_core.Engine.config) =
  (* a match, not [Option.value ~default]: the default would force (and
     compile) the domain's own automaton even when the caller passes one *)
  let autom = match autom with Some a -> a | None -> Lazy.force t.autom in
  {
    Dggt_core.Engine.cfg =
      {
        cfg with
        Dggt_core.Engine.defaults = t.defaults;
        unit_filter = t.unit_filter;
        path_limits =
          Option.value t.path_limits ~default:cfg.Dggt_core.Engine.path_limits;
        stop_verbs = t.stop_verbs;
        top_k = Option.value t.top_k ~default:cfg.Dggt_core.Engine.top_k;
      };
    target = Dggt_core.Engine.target ?caches autom (Lazy.force t.doc);
  }

let api_count t = Dggt_core.Apidoc.size (Lazy.force t.doc)
let query_count t = List.length t.queries

let expected_expr q =
  match Dggt_core.Tree2expr.parse q.expected with
  | Ok e -> Dggt_core.Tree2expr.normalize e
  | Error m ->
      invalid_arg (Printf.sprintf "query %d: bad ground truth (%s): %s" q.id m q.expected)

let check _t produced q =
  match produced with
  | None -> false
  | Some e -> Dggt_core.Tree2expr.equal e (expected_expr q)
