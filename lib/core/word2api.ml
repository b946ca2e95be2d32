open Dggt_nlu

type candidate = { api : string; score : float }

type t = {
  by_node : (int * candidate list) list; (* in token order *)
}

let name_len_penalty api = 0.001 *. float_of_int (String.length api)

(* A hit on the API's own name subtokens is stronger evidence than a hit
   on its description prose ("operator" names binaryOperator; it merely
   appears in hasLHS's description). *)
let desc_factor = 0.92

let score_word_against_entry ?(desc_only = false) lemma (e : Apidoc.entry) =
  let name_s =
    if desc_only then 0.0
    else Similarity.best_against lemma e.Apidoc.name_keywords
  in
  let desc_s = desc_factor *. Similarity.best_against lemma e.Apidoc.keywords in
  let s = Float.max name_s desc_s in
  if s > 0.0 then s -. name_len_penalty e.Apidoc.api else 0.0

let build ?(top_k = 4) ?(threshold = Similarity.min_score) ?lookup doc
    (g : Depgraph.t) =
  let lit_apis = Apidoc.literal_apis doc in
  let num_apis = Apidoc.number_apis doc in
  let compute (n : Depgraph.node) =
    match n.pos with
    | Pos.LIT | Pos.CD ->
        (* literal tokens map to the literal-bearing APIs; numerals
           prefer number APIs when the document distinguishes them *)
        let pool =
          match n.pos with
          | Pos.CD when num_apis <> [] -> num_apis
          | _ -> lit_apis
        in
        List.map (fun api -> { api; score = 1.0 -. name_len_penalty api }) pool
    | _ ->
        let admissible (e : Apidoc.entry) =
          match e.Apidoc.pos_pref with
          | Apidoc.Any -> true
          | Apidoc.Verbish -> not (Pos.is_noun n.pos)
          | Apidoc.Nounish -> not (Pos.is_verb n.pos)
        in
        let scored =
          List.filter_map
            (fun (e : Apidoc.entry) ->
              if not (admissible e) then None
              else
                (* a quantifying determiner matching a fragment of a
                   camelCase name ("all" in isCatchAll) is coincidence;
                   determiners carry meaning only through descriptions *)
                let desc_only = n.pos = Pos.DT in
                let s = score_word_against_entry ~desc_only n.lemma e in
                if s >= threshold then Some { api = e.Apidoc.api; score = s }
                else None)
            (Apidoc.entries doc)
        in
        let sorted =
          List.sort
            (fun a b ->
              match compare b.score a.score with
              | 0 -> compare a.api b.api
              | c -> c)
            scored
        in
        Dggt_util.Listutil.take top_k sorted
  in
  let cands_of (n : Depgraph.node) =
    match lookup with
    | None -> compute n
    | Some f -> f ~lemma:n.Depgraph.lemma ~pos:n.Depgraph.pos (fun () -> compute n)
  in
  let by_node = List.map (fun (n : Depgraph.node) -> (n.Depgraph.id, cands_of n)) g.Depgraph.nodes in
  { by_node }

let candidates t id =
  match List.assoc_opt id t.by_node with Some cs -> cs | None -> []

let rec score_in api = function
  | [] -> 0.0
  | c :: rest -> if String.equal c.api api then c.score else score_in api rest

let score t id api = score_in api (candidates t id)

(* Summed in assignment order, which the tie-break's floats depend on.
   The chart walk scores every well-formed combination, and this loop
   keeps the running sum an unboxed local, where a fold boxes it at
   every step. *)
let assignment_score t asg =
  let sum = ref 0.0 and rest = ref asg and more = ref true in
  while !more do
    match !rest with
    | [] -> more := false
    | (id, api) :: tl ->
        sum := !sum +. score t id api;
        rest := tl
  done;
  !sum

let apis t id = List.map (fun c -> c.api) (candidates t id)

let uncovered t =
  List.filter_map (fun (id, cs) -> if cs = [] then Some id else None) t.by_node

let merge_modifier t ~head ~modifier apis =
  let mod_score api =
    match List.find_opt (fun c -> c.api = api) (candidates t modifier) with
    | Some c -> c.score
    | None -> 0.0
  in
  {
    by_node =
      List.map
        (fun (id, cs) ->
          if id = head then
            ( id,
              List.filter_map
                (fun c ->
                  if List.mem c.api apis then
                    Some { c with score = c.score +. mod_score c.api }
                  else None)
                cs
              |> List.sort (fun a b ->
                     match compare b.score a.score with
                     | 0 -> compare a.api b.api
                     | c -> c) )
          else (id, cs))
        t.by_node;
  }

let cap t k =
  { by_node = List.map (fun (id, cs) -> (id, Dggt_util.Listutil.take k cs)) t.by_node }

let restrict t node api =
  {
    by_node =
      List.map
        (fun (id, cs) ->
          if id = node then
            (id, List.filter (fun c -> c.api = api) cs)
          else (id, cs))
        t.by_node;
  }
