open Dggt_grammar

(* The interpreted reversed DFS that was EdgeToPath's search before the
   compiled automaton (Dggt_autom.Autom) replaced it, kept verbatim as
   the oracle the automaton is held to: the equivalence tests and
   [bench automaton] compare against it. Like the automaton it builds
   each path with [Gpath.make], which needs an API at the path's end, so
   a destination that is not an API node has no path. *)

let of_rev_chain g rev_nodes rev_edges =
  Gpath.make g ~nodes:(Array.of_list rev_nodes) ~edges:(Array.of_list rev_edges)

let search ?(limits = Gpath.default_limits) g ~src ~dst =
  if not (Ggraph.is_api g dst) then []
  else if src = dst then [ of_rev_chain g [ src ] [] ]
  else begin
    let found = ref [] in
    let count = ref 0 in
    let steps = ref 0 in
    (* Iterative-deepening reversed DFS: walk parent edges from [dst]; the
       chain accumulates the downward order, so paths come out top-first.
       Each round collects only the paths of length in (prev_cap, cap], so
       shorter grammar paths are always delivered before any cap bites —
       on dense recursive grammars (the 505-API matcher grammar has
       hundreds of parents on shared nodes) exhaustive simple-path search
       is intractable, and the step budget truncates the long tail. A
       branch is entered only when the shortest src ~> branch distance
       still fits the round's remaining length budget.

       Two per-step structures are hoisted out of the DFS: the src
       distance row (one memo/mutex acquisition per search, not one per
       step — under domain-parallel EdgeToPath the per-step lock would
       serialize every worker on the shared memo) and an on-path bit per
       node replacing the O(length) List.mem membership scan. [on_path]
       marks the current node and every chain ancestor plus [dst], which
       is exactly the set the old [e.src <> node && e.src <> dst &&
       not (List.mem e.src chain_nodes)] test excluded; [src] is never
       marked (recursion stops there), so re-entering it to emit a path
       stays possible. *)
    let exception Done in
    let dist_src = Ggraph.dist_from g src in
    let on_path = Array.make (Ggraph.node_count g) false in
    let rec go node chain_nodes chain_edges depth ~lo ~cap =
      incr steps;
      if !steps > limits.Gpath.max_steps || !count >= limits.Gpath.max_paths then raise Done;
      if depth <= cap then begin
        if node = src then begin
          if depth > lo then begin
            found := of_rev_chain g (node :: chain_nodes) chain_edges :: !found;
            incr count
          end
        end
        else begin
          on_path.(node) <- true;
          List.iter
            (fun eid ->
              let e = g.Ggraph.edges.(eid) in
              if (not on_path.(e.Ggraph.src))
                 && dist_src.(e.Ggraph.src) <= cap - depth - 1
              then
                go e.Ggraph.src (node :: chain_nodes) (e.Ggraph.id :: chain_edges)
                  (depth + 1) ~lo ~cap)
            g.Ggraph.parents.(node);
          on_path.(node) <- false
        end
      end
    in
    (try
       if dist_src.(dst) < max_int then begin
         let lo = ref 0 in
         let cap = ref (min 4 limits.Gpath.max_nodes) in
         let continue = ref true in
         while !continue do
           go dst [] [] 1 ~lo:!lo ~cap:!cap;
           if !cap >= limits.Gpath.max_nodes then continue := false
           else begin
             lo := !cap;
             cap := min (!cap + 3) limits.Gpath.max_nodes
           end
         done
       end
     with Done -> ());
    List.rev !found
  end

let search_between_apis ?limits g ~src_api ~dst_api =
  match (Ggraph.api_node g src_api, Ggraph.api_node g dst_api) with
  | Some src, Some dst -> search ?limits g ~src ~dst
  | _ -> []

let search_from_root ?limits g ~dst = search ?limits g ~src:g.Ggraph.root ~dst

let lookups (dom : Dggt_domains.Domain.t) =
  let g = Lazy.force dom.Dggt_domains.Domain.graph in
  let limits =
    Option.value dom.Dggt_domains.Domain.path_limits
      ~default:Gpath.default_limits
  in
  {
    Dggt_core.Engine.word2api = None;
    edge2path =
      Some
        (fun ~src ~dst _ ->
          search_between_apis ~limits g ~src_api:src ~dst_api:dst);
  }
