open Dggt_util
open Dggt_nlu
module Trace = Dggt_obs.Trace

type algorithm = Hisyn_alg | Dggt_alg

type lookups = {
  word2api :
    (lemma:string ->
    pos:Pos.t ->
    (unit -> Word2api.candidate list) ->
    Word2api.candidate list)
    option;
  edge2path :
    (src:string ->
    dst:string ->
    (unit -> Dggt_grammar.Gpath.t list) ->
    Dggt_grammar.Gpath.t list)
    option;
}

let no_lookups = { word2api = None; edge2path = None }

type target = { autom : Dggt_autom.Autom.t; doc : Apidoc.t; caches : lookups }

let target ?(caches = no_lookups) autom doc = { autom; doc; caches }
let graph tgt = Dggt_autom.Autom.graph tgt.autom

type config = {
  algorithm : algorithm;
  timeout_s : float option;
  max_steps : int option;
  top_k : int;
  path_limits : Dggt_grammar.Gpath.limits;
  gprune : bool;
  sprune : bool;
  orphan_reloc : bool;
  defaults : (string * string) list;
  unit_filter : (string -> bool) option;
  stop_verbs : string list;
  trace : Trace.sink option;
}

let default algorithm =
  {
    algorithm;
    timeout_s = Some 20.0;
    max_steps = None;
    top_k = 4;
    path_limits = Dggt_grammar.Gpath.default_limits;
    gprune = true;
    sprune = true;
    orphan_reloc = true;
    defaults = [];
    unit_filter = None;
    stop_verbs = [];
    trace = None;
  }

type ranked = {
  expr : Tree2expr.expr;
  code : string;
  size : int;
  coverage : int;
  score : float;
}

type outcome = {
  expr : Tree2expr.expr option;
  code : string option;
  cgt_size : int option;
  ranked : ranked list;
  time_s : float;
  timed_out : bool;
  failure : string option;
  stats : Stats.t;
}

let stage_names =
  [
    "DependencyParse"; "QueryPrune"; "WordToAPI"; "EdgeToPath"; "PathMerge";
    "TreeToExpr";
  ]

(* An adjectival or compound modifier that shares candidate APIs with its
   head noun refines the head rather than naming a second entity:
   "capitalized words" is one CAPSTOKEN mention, "constructor expressions"
   one cxxConstructExpr. Restrict the head to the shared APIs and drop the
   modifier word. *)
let absorb_modifiers doc (dg : Depgraph.t) w2a =
  (* Only noun-marked (entity) APIs may swallow a modifier: "copy
     constructors" must stay cxxConstructorDecl + isCopyConstructor, not
     collapse into the narrowing matcher. When the document declares no
     noun APIs at all, every shared API qualifies. *)
  let nounish api =
    match Apidoc.find doc api with
    | Some e -> e.Apidoc.pos_pref = Apidoc.Nounish
    | None -> false
  in
  let has_noun_marks =
    List.exists (fun (e : Apidoc.entry) -> e.Apidoc.pos_pref = Apidoc.Nounish)
      (Apidoc.entries doc)
  in
  List.fold_left
    (fun (dg, w2a) (e : Depgraph.edge) ->
      match e.Depgraph.label with
      | Dggt_nlu.Dep.Amod | Dggt_nlu.Dep.Compound ->
          let head = Word2api.apis w2a e.Depgraph.gov in
          let modif = Word2api.apis w2a e.Depgraph.dep in
          (* Entity (noun-marked) APIs absorb preferentially; when the head
             has no entity reading at all ("right hand side" only matches
             traversal matchers), any shared API may absorb. *)
          let head_has_noun = has_noun_marks && List.exists nounish head in
          let shared =
            List.filter
              (fun a -> List.mem a modif && ((not head_has_noun) || nounish a))
              head
          in
          if shared = [] then (dg, w2a)
          else
            ( Queryprune.drop_nodes dg [ e.Depgraph.dep ],
              Word2api.merge_modifier w2a ~head:e.Depgraph.gov
                ~modifier:e.Depgraph.dep shared )
      | _ -> (dg, w2a))
    (dg, w2a) dg.Depgraph.edges

(* The subject of a conditional clause names the iterated unit ("if a
   *sentence* starts with ..."); when the domain distinguishes unit/scope
   APIs, restrict such words to them. *)
let apply_unit_filter cfg (dg : Depgraph.t) w2a =
  match cfg.unit_filter with
  | None -> w2a
  | Some f ->
      List.fold_left
        (fun w2a (e : Depgraph.edge) ->
          match e.Depgraph.label with
          | Dggt_nlu.Dep.Nsubj -> (
              let cands = Word2api.apis w2a e.Depgraph.dep in
              match List.filter f cands with
              | [] -> w2a
              | api :: _ -> Word2api.restrict w2a e.Depgraph.dep api)
          | _ -> w2a)
        w2a dg.Depgraph.edges

let make_budget cfg =
  match (cfg.timeout_s, cfg.max_steps) with
  | Some s, Some n -> Budget.of_seconds_and_steps s n
  | Some s, None -> Budget.of_seconds s
  | None, Some n -> Budget.of_steps n
  | None, None -> Budget.unlimited ()

(* ------------------------------------------------------------------ *)
(* trace note helpers (all guarded: no work when tracing is off)      *)
(* ------------------------------------------------------------------ *)

let lemma_of (dg : Depgraph.t) id =
  match Depgraph.node_opt dg id with
  | Some n -> n.Depgraph.lemma
  | None -> string_of_int id

let trace_word_candidates sp (dg : Depgraph.t) w2a =
  if Trace.on sp then
    List.iter
      (fun (n : Depgraph.node) ->
        let rendered =
          match Word2api.candidates w2a n.Depgraph.id with
          | [] -> "(none)"
          | cs ->
              String.concat " "
                (List.map
                   (fun (c : Word2api.candidate) ->
                     Printf.sprintf "%s:%.2f" c.Word2api.api c.Word2api.score)
                   cs)
        in
        Trace.str sp
          (Printf.sprintf "word[%d] %s" n.Depgraph.id n.Depgraph.lemma)
          rendered)
      dg.Depgraph.nodes

let trace_edge_paths sp (dg : Depgraph.t) e2p =
  if Trace.on sp then
    List.iter
      (fun (e : Depgraph.edge) ->
        Trace.int sp
          (Printf.sprintf "edge %s->%s(%s)" (lemma_of dg e.Depgraph.gov)
             (lemma_of dg e.Depgraph.dep)
             (Dggt_nlu.Dep.to_string e.Depgraph.label))
          (List.length (Edge2path.paths_of_edge e2p e)))
      dg.Depgraph.edges

let trace_dropped sp key (before : Depgraph.t) (after : Depgraph.t) =
  if Trace.on sp then
    match
      List.filter
        (fun (n : Depgraph.node) -> not (Depgraph.mem after n.Depgraph.id))
        before.Depgraph.nodes
    with
    | [] -> ()
    | dropped ->
        Trace.str sp key
          (String.concat " "
             (List.map (fun (n : Depgraph.node) -> n.Depgraph.lemma) dropped))

(* ------------------------------------------------------------------ *)
(* pipeline stages                                                    *)
(* ------------------------------------------------------------------ *)

(* Step 2: POS-based pruning plus the domain's stop-verb drop. *)
let prune cfg (dg : Depgraph.t) =
  Trace.span cfg.trace "QueryPrune" (fun sp ->
      let pruned = Queryprune.prune dg in
      (* command verbs without API meaning ("find", "list" in code-search
         domains) would otherwise soak up spurious keyword matches *)
      let pruned =
        match Depgraph.node_opt pruned pruned.Depgraph.root with
        | Some rn
          when Pos.is_verb rn.Depgraph.pos
               && List.mem rn.Depgraph.lemma cfg.stop_verbs ->
            Trace.str sp "stop_verb" rn.Depgraph.lemma;
            Queryprune.drop_nodes pruned [ pruned.Depgraph.root ]
        | _ -> pruned
      in
      Trace.int sp "nodes_before" (List.length dg.Depgraph.nodes);
      Trace.int sp "nodes_after" (List.length pruned.Depgraph.nodes);
      trace_dropped sp "dropped" dg pruned;
      pruned)

(* Steps 3 and 4, shared by both engines and the ranked mode. *)
let front cfg tgt stats (pruned : Depgraph.t) =
  let tr = cfg.trace in
  let pruned, w2a =
    Trace.span tr "WordToAPI" (fun sp ->
        let w2a =
          Word2api.build ~top_k:max_int ?lookup:tgt.caches.word2api tgt.doc
            pruned
        in
        let absorbed, w2a = absorb_modifiers tgt.doc pruned w2a in
        trace_dropped sp "absorbed_modifiers" pruned absorbed;
        let w2a = apply_unit_filter cfg absorbed w2a in
        let w2a = Word2api.cap w2a cfg.top_k in
        let covered = Queryprune.drop_nodes absorbed (Word2api.uncovered w2a) in
        trace_dropped sp "uncovered_words" absorbed covered;
        trace_word_candidates sp covered w2a;
        (covered, w2a))
  in
  stats.Stats.dep_edges <- List.length pruned.Depgraph.edges;
  let e2p =
    Trace.span tr "EdgeToPath" (fun sp ->
        let e2p =
          Edge2path.build ~limits:cfg.path_limits
            ?pair_lookup:tgt.caches.edge2path tgt.autom pruned w2a
        in
        trace_edge_paths sp pruned e2p;
        Trace.int sp "total_paths" (Edge2path.total_path_count e2p);
        (if Trace.on sp then
           match Edge2path.orphans e2p with
           | [] -> ()
           | orphans ->
               Trace.str sp "orphans"
                 (String.concat " " (List.map (lemma_of pruned) orphans)));
        e2p)
  in
  stats.Stats.orig_paths <- Edge2path.total_path_count e2p;
  let orphans = Edge2path.orphans e2p in
  stats.Stats.orphan_count <- List.length orphans;
  (pruned, w2a, e2p, orphans)

(* literal bindings: (api, literal) pairs in token order, for the nodes the
   winning assignment actually interpreted *)
let literal_bindings (dg : Depgraph.t) (assignment : (int * string) list) =
  dg.Depgraph.nodes
  |> List.filter_map (fun (n : Depgraph.node) ->
         match (n.Depgraph.lit, List.assoc_opt n.Depgraph.id assignment) with
         | Some v, Some api -> Some (api, v)
         | _ -> None)

(* Step 6. *)
let finish cfg tgt dg (res : Synres.t option) ~time_s ~timed_out ~stats =
  Trace.span cfg.trace "TreeToExpr" (fun sp ->
      match res with
      | None ->
          Trace.str sp "skipped"
            (if timed_out then "budget exhausted" else "no CGT to linearize");
          {
            expr = None;
            code = None;
            cgt_size = None;
            ranked = [];
            time_s;
            timed_out;
            failure =
              Some (if timed_out then "timeout" else "no well-formed CGT found");
            stats;
          }
      | Some r -> (
          let lits = literal_bindings dg r.Synres.assignment in
          Trace.int sp "cgt_size" r.Synres.size;
          Trace.int sp "words_covered" (List.length r.Synres.assignment);
          match
            Result.map Tree2expr.normalize
              (Tree2expr.of_cgt ~lits ~defaults:cfg.defaults
                 (Cgt.scratch (graph tgt)) r.Synres.cgt)
          with
          | Ok expr ->
              let code = Tree2expr.to_string expr in
              Trace.str sp "code" code;
              {
                expr = Some expr;
                code = Some code;
                cgt_size = Some r.Synres.size;
                ranked = [];
                time_s;
                timed_out;
                failure = None;
                stats;
              }
          | Error e ->
              let msg = Format.asprintf "linearization: %a" Tree2expr.pp_error e in
              Trace.str sp "failure" msg;
              {
                expr = None;
                code = None;
                cgt_size = Some r.Synres.size;
                ranked = [];
                time_s;
                timed_out;
                failure = Some msg;
                stats;
              }))

(* Orphan handling without relocation: HISyn's, and DGGT's ablation.
   Each orphan word is anchored under the root, in one dependency graph. *)
let anchor_orphans cfg tgt stats (pruned : Depgraph.t) w2a e2p orphans =
  let dg, e2p =
    if orphans = [] then (pruned, e2p)
    else
      Trace.span cfg.trace "OrphanAnchor" (fun asp ->
          let dg, e2p =
            Edge2path.anchor_orphans ~limits:cfg.path_limits tgt.autom
              pruned w2a e2p
          in
          Trace.int asp "paths_after_anchor" (Edge2path.total_path_count e2p);
          (dg, e2p))
  in
  stats.Stats.paths_after_reloc <- Edge2path.total_path_count e2p;
  stats.Stats.reloc_graphs <- 1;
  (dg, e2p)

(* Step 5, DGGT: orphan relocation + dynamic-grammar-graph merging.
   Generic over the PathMerge implementation: [merge] gets each candidate
   dependency graph and returns the synthesis result plus (for the real
   DGGT walk) the dynamic grammar graph it built — the ranked mode reads
   its n-best list off the winning variant's graph. *)
let run_dggt_with cfg tgt stats (pruned : Depgraph.t)
    ~(merge :
       trace:Trace.span option ->
       Depgraph.t ->
       Word2api.t ->
       Edge2path.t ->
       Synres.t option * Dgg.t option) =
  let pruned, w2a, e2p, orphans = front cfg tgt stats pruned in
  Trace.span cfg.trace "PathMerge" (fun sp ->
      Trace.str sp "engine" "dggt";
      if orphans = [] || not cfg.orphan_reloc then begin
        (* ablation: fall back to the baseline's root anchoring *)
        let dg, e2p = anchor_orphans cfg tgt stats pruned w2a e2p orphans in
        let res, dyng = merge ~trace:sp dg w2a e2p in
        (dg, res, dyng)
      end
      else begin
        let variants =
          Trace.span cfg.trace "OrphanRelocation" (fun osp ->
              let variants =
                Orphan.relocate (graph tgt) pruned w2a ~orphans
              in
              Trace.int osp "orphan_count" (List.length orphans);
              Trace.int osp "variants" (List.length variants);
              if Trace.on osp then
                List.iteri
                  (fun i v ->
                    Trace.str osp
                      (Printf.sprintf "variant[%d]" i)
                      (String.concat " "
                         (List.map
                            (fun o ->
                              match Depgraph.parent v o with
                              | Some e ->
                                  Printf.sprintf "%s under %s" (lemma_of v o)
                                    (lemma_of v e.Depgraph.gov)
                              | None ->
                                  Printf.sprintf "%s unattached" (lemma_of v o))
                            orphans)))
                  variants;
              variants)
        in
        stats.Stats.reloc_graphs <- List.length variants;
        let best =
          List.fold_left
            (fun (i, acc) dg ->
              let e2p =
                Edge2path.build ~limits:cfg.path_limits
                  ?pair_lookup:tgt.caches.edge2path tgt.autom dg w2a
              in
              if Trace.on sp then
                Trace.int sp
                  (Printf.sprintf "variant[%d] paths" i)
                  (Edge2path.total_path_count e2p);
              stats.Stats.paths_after_reloc <-
                max stats.Stats.paths_after_reloc
                  (Edge2path.total_path_count e2p);
              let res, dyng = merge ~trace:sp dg w2a e2p in
              let acc =
                match (acc, res) with
                | None, Some r -> Some (dg, r, dyng)
                | Some (_, b, _), Some r
                (* the paper's minimality is among CGTs covering the query's
                   semantics: a variant interpreting more of the words beats
                   a smaller CGT that dropped a subtree *)
                  when let cov x = List.length x.Synres.assignment in
                       cov r > cov b
                       || (cov r = cov b && r.Synres.size < b.Synres.size) ->
                    Some (dg, r, dyng)
                | _ -> acc
              in
              (i + 1, acc))
            (0, None) variants
          |> snd
        in
        match best with
        | Some (dg, r, dyng) -> (dg, Some r, dyng)
        | None -> (pruned, None, None)
      end)

(* The real DGGT PathMerge as [run_dggt_with]'s merge, under the
   request's objective. [on_cand] is the streaming seam: it receives the
   relocation variant's dependency graph (needed to bind query literals
   at linearization time) together with each root-cell improvement the
   chart walk emits. *)
let run_dggt ?(on_cand : (Depgraph.t -> Semiring.cand -> unit) option)
    ~objective cfg tgt budget stats (pruned : Depgraph.t) =
  run_dggt_with cfg tgt stats pruned ~merge:(fun ~trace dg w2a e2p ->
      let on_improve = Option.map (fun f c -> f dg c) on_cand in
      let res, dyng =
        Dggt.synthesize_with_graph ~objective ~budget ~stats
          ~gprune:cfg.gprune ~sprune:cfg.sprune ?trace ?on_improve (graph tgt)
          dg w2a e2p
      in
      (res, Some dyng))

(* Step 5, HISyn baseline: root anchoring + exhaustive enumeration. *)
let run_hisyn cfg tgt budget stats (pruned : Depgraph.t) =
  let pruned, w2a, e2p, orphans = front cfg tgt stats pruned in
  Trace.span cfg.trace "PathMerge" (fun sp ->
      Trace.str sp "engine" "hisyn";
      let dg, e2p = anchor_orphans cfg tgt stats pruned w2a e2p orphans in
      let res =
        match Hisyn.synthesize ~budget ~stats ?trace:sp (graph tgt) dg w2a e2p with
        | Some r -> Some r
        | None
          when dg.Depgraph.edges = []
               || List.for_all
                    (fun e -> Edge2path.paths_of_edge e2p e = [])
                    dg.Depgraph.edges -> (
            (* single-word query (or nothing connected): the best lone API *)
            match Word2api.candidates w2a dg.Depgraph.root with
            | { Word2api.api; _ } :: _ -> (
                match Dggt_grammar.Ggraph.api_node (graph tgt) api with
                | Some nid ->
                    Trace.str sp "fallback" ("single word -> " ^ api);
                    Some
                      {
                        Synres.cgt = Cgt.node nid;
                        size = 1;
                        assignment = [ (dg.Depgraph.root, api) ];
                      }
                | None -> None)
            | [] -> None)
        | None -> None
      in
      (dg, res, None))

(* Step 5 under the config's budget, then step 6. [step5] returns the
   dependency graph it settled on, its result and (from the chart walk)
   the dynamic grammar graph, which comes back with that dependency graph
   for a ranked read-off. An exhausted budget is a timeout: no codelet,
   time capped at the limit. *)
let budgeted cfg tgt (pruned : Depgraph.t) step5 =
  let stats = Stats.create () in
  let budget = make_budget cfg in
  let t0 = Unix.gettimeofday () in
  match step5 budget stats with
  | dg, res, dyng ->
      let time_s = Unix.gettimeofday () -. t0 in
      ( finish cfg tgt dg res ~time_s ~timed_out:false ~stats,
        Option.map (fun g -> (dg, g)) dyng )
  | exception Budget.Exhausted ->
      let time_s =
        match cfg.timeout_s with
        | Some limit -> limit
        | None -> Unix.gettimeofday () -. t0
      in
      (finish cfg tgt pruned None ~time_s ~timed_out:true ~stats, None)

(* Stages 3-6 over an already-pruned graph. Exposed so the incremental
   layer can parse and prune first, decide from the pruned graph whether
   the previous revision's result still applies, and only then pay for
   the expensive suffix of the pipeline. *)
let synthesize_pruned cfg tgt (pruned : Depgraph.t) =
  fst
    (budgeted cfg tgt pruned (fun budget stats ->
         match cfg.algorithm with
         | Dggt_alg ->
             run_dggt ~objective:Semiring.Min_size cfg tgt budget stats pruned
         | Hisyn_alg -> run_hisyn cfg tgt budget stats pruned))

let parse cfg query =
  Trace.span cfg.trace "DependencyParse" (fun sp ->
      let dg = Depparser.parse query in
      Trace.int sp "nodes" (List.length dg.Depgraph.nodes);
      Trace.int sp "edges" (List.length dg.Depgraph.edges);
      if Trace.on sp then Trace.str sp "parse" (Depgraph.to_string dg);
      dg)

type session = { cfg : config; target : target }

let with_cfg f s = { s with cfg = f s.cfg }

(* ------------------------------------------------------------------ *)
(* PathMerge seam + ranked mode                                       *)
(* ------------------------------------------------------------------ *)

type merge_fn =
  budget:Budget.t ->
  stats:Stats.t ->
  gprune:bool ->
  sprune:bool ->
  ?trace:Trace.span ->
  Dggt_grammar.Ggraph.t ->
  Depgraph.t ->
  Word2api.t ->
  Edge2path.t ->
  Synres.t option

let synthesize_with_merge ~(merge : merge_fn) cfg tgt query =
  let cfg = { cfg with algorithm = Dggt_alg } in
  let pruned = prune cfg (parse cfg query) in
  fst
    (budgeted cfg tgt pruned (fun budget stats ->
         run_dggt_with cfg tgt stats pruned ~merge:(fun ~trace dg w2a e2p ->
             ( merge ~budget ~stats ~gprune:cfg.gprune ~sprune:cfg.sprune
                 ?trace (graph tgt) dg w2a e2p,
               None ))))

(* ------------------------------------------------------------------ *)
(* consolidated request API: plain / ranked as one shape, streaming   *)
(* as a delivery mode of the same request                             *)
(* ------------------------------------------------------------------ *)

type input = Text of string
type mode = Plain | Ranked of int
type request = { input : input; mode : mode }

type candidate = {
  rank : int;
  code : string;
  size : int;
  coverage : int;
  score : float;
  revision : int;
}

(* Live n-best bookkeeping for streaming: every root-cell improvement is
   linearized and slotted into a running best list ordered like
   [Dggt.root_compare]'s observable part (coverage desc, size asc, score
   desc, code); entries that land in the top [k] are emitted with their
   current rank and a monotone revision number. The interim list is a
   best-effort view — orphan-relocation variants each stream their own
   improvements — and only the terminal ranked list, read off the winning
   variant's finished chart, is authoritative. *)
let make_emitter ~k ~scratch cfg (emit : candidate -> unit) =
  let order (a : ranked) (b : ranked) =
    match compare b.coverage a.coverage with
    | 0 -> (
        match compare a.size b.size with
        | 0 -> (
            match compare b.score a.score with
            | 0 -> compare a.code b.code
            | c -> c)
        | c -> c)
    | c -> c
  in
  let entries : ranked list ref = ref [] in
  let revision = ref 0 in
  fun (dg : Depgraph.t) (c : Semiring.cand) ->
    let lits = literal_bindings dg c.Semiring.assignment in
    match
      Result.map Tree2expr.normalize
        (Tree2expr.of_cgt ~lits ~defaults:cfg.defaults scratch c.Semiring.cgt)
    with
    | Error _ -> ()
    | Ok expr ->
        let entry =
          {
            expr;
            code = Tree2expr.to_string expr;
            size = c.Semiring.size;
            coverage = Semiring.coverage c;
            score = c.Semiring.score;
          }
        in
        let improves =
          match
            List.find_opt (fun (e : ranked) -> e.code = entry.code) !entries
          with
          | Some old -> order entry old < 0
          | None -> true
        in
        if improves then begin
          entries :=
            List.sort order
              (entry
              :: List.filter (fun (e : ranked) -> e.code <> entry.code) !entries
              );
          let rec index i = function
            | [] -> None
            | (e : ranked) :: tl ->
                if e.code == entry.code then Some i else index (i + 1) tl
          in
          match index 0 !entries with
          | Some i when i < k ->
              incr revision;
              emit
                {
                  rank = i + 1;
                  code = entry.code;
                  size = entry.size;
                  coverage = entry.coverage;
                  score = entry.score;
                  revision = !revision;
                }
          | _ -> ()
        end

(* Ranked mode is the full DGGT pipeline — same orphan relocation, same
   variant selection — run under the Top_k objective; the n-best is then
   a read off the winning variant's finished chart. k = 1 degenerates to
   the Min_size cells, so the head is the plain run's codelet by
   construction. *)
let respond_ranked ?on_candidate ~k cfg tgt (pruned : Depgraph.t) =
  let k = max 1 k in
  let cfg = { cfg with algorithm = Dggt_alg } in
  (* one CGT scratch for linearizing the streamed candidates and the
     n-best read-off *)
  let scratch = Cgt.scratch (graph tgt) in
  let on_cand = Option.map (fun f -> make_emitter ~k ~scratch cfg f) on_candidate in
  match
    budgeted cfg tgt pruned (fun budget stats ->
        run_dggt ?on_cand ~objective:(Semiring.Top_k k) cfg tgt budget stats
          pruned)
  with
  | outcome, None -> outcome
  | outcome, Some (dg, dyng) ->
      (* the head is pinned to the plain run's codelet (already
         linearized by [finish]): [Dgg.best]'s root selection compares
         scores exactly while cell order uses the 1e-9 epsilon, so a
         pure re-sort of the chart can put an epsilon-tied sibling
         first — an invariant, not a sorting accident (DESIGN.md) *)
      let seen = Hashtbl.create 8 in
      let ranked =
        Dggt.ranked_of_graph dyng ~root:dg.Depgraph.root
        |> List.filter_map (fun (c : Semiring.cand) ->
               let lits = literal_bindings dg c.Semiring.assignment in
               match
                 Result.map Tree2expr.normalize
                   (Tree2expr.of_cgt ~lits ~defaults:cfg.defaults scratch
                      c.Semiring.cgt)
               with
               | Ok expr ->
                   let code = Tree2expr.to_string expr in
                   if Hashtbl.mem seen code then None
                   else begin
                     Hashtbl.add seen code ();
                     Some
                       {
                         expr;
                         code;
                         size = c.Semiring.size;
                         coverage = Semiring.coverage c;
                         score = c.Semiring.score;
                       }
                   end
               | Error _ -> None)
      in
      let ranked =
        match outcome.code with
        | Some rc -> (
            match List.partition (fun (r : ranked) -> r.code = rc) ranked with
            | [ hd ], rest -> hd :: rest
            | _ -> ranked)
        | None -> ranked
      in
      { outcome with ranked = Listutil.take k ranked }

let respond ?on_candidate (s : session) (req : request) =
  let (Text q) = req.input in
  let pruned = prune s.cfg (parse s.cfg q) in
  match req.mode with
  | Plain ->
      (* the streaming seam only exists on the DGGT chart walk; a Plain
         request has no n-best to improve, so the callback never fires *)
      synthesize_pruned s.cfg s.target pruned
  | Ranked k -> respond_ranked ?on_candidate ~k s.cfg s.target pruned
