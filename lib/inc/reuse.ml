type stage = { reused : int; computed : int }

type t = {
  revision : int;
  splice : bool;
  tokens_kept : int;
  tokens_added : int;
  tokens_removed : int;
  edges_kept : int;
  edges_added : int;
  edges_removed : int;
  words : stage;
  pairs : stage;
  dgg_rows : stage;
}

let total s = s.reused + s.computed

let overall_ratio t =
  let r = t.words.reused + t.pairs.reused + t.dgg_rows.reused in
  let c = t.words.computed + t.pairs.computed + t.dgg_rows.computed in
  if r + c = 0 then 0. else float_of_int r /. float_of_int (r + c)

let summary t =
  if t.splice then
    Printf.sprintf "rev %d: spliced (%d dgg rows replayed)" t.revision
      t.dgg_rows.reused
  else
    Printf.sprintf "rev %d: reused %d/%d words, %d/%d pairs; %d searches"
      t.revision t.words.reused (total t.words) t.pairs.reused (total t.pairs)
      t.pairs.computed
