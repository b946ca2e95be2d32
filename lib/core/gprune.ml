open Dggt_util
open Dggt_grammar

(* Per-walk state. [uses], [stamp] and [held] are indexed by grammar
   node id and allocated once; [extras] by epath id, [unread] until the
   path's first size-pruned enumeration, and [masks] is the flat bitset
   storage of one enumeration; both grow on demand and serve every
   enumeration. A path's claims, APIs and size are on its [Gpath.t]. *)
type t = {
  extra : Edge2path.epath -> int;
  mutable extras : int array;
  uses : int array;  (* per API node: how many chosen paths contain it *)
  stamp : int array;  (* per node: the conflict pass that set [held] *)
  held : int array;  (* per node: the stamped path's claim on it *)
  mutable pass : int;
  mutable masks : int array;
}

type result = { kept : Edge2path.epath list list; total : int; conflict_free : int }

let unread = min_int

let prepare ?(extra = fun _ -> 0) g =
  let n = Ggraph.node_count g in
  {
    extra;
    extras = [||];
    uses = Array.make n 0;
    stamp = Array.make n 0;
    held = Array.make n 0;
    pass = 0;
    masks = [||];
  }

(* read a path's extra weight on its first size-pruned enumeration, and
   clear its APIs' use counts *)
let ready t (p : Edge2path.epath) =
  let id = p.Edge2path.id in
  if id >= Array.length t.extras then begin
    let grown = Array.make (max (id + 1) (2 * Array.length t.extras)) unread in
    Array.blit t.extras 0 grown 0 (Array.length t.extras);
    t.extras <- grown
  end;
  if t.extras.(id) = unread then t.extras.(id) <- t.extra p;
  let apis = p.Edge2path.path.Gpath.apis in
  for j = 0 to Array.length apis - 1 do
    t.uses.(apis.(j)) <- 0
  done

(* bits per mask word *)
let word = Sys.int_size

(* the index of a byte's lowest set bit *)
let low_bit = Array.init 256 (fun b ->
  let rec go i = if i >= 8 || (b lsr i) land 1 = 1 then i else go (i + 1) in
  go 0)

(* the index of the one set bit of [x] *)
let rec bit_index x k =
  if x land 255 <> 0 then k + low_bit.(x land 255) else bit_index (x lsr 8) (k + 8)

let combos ?budget t ~gprune ~sprune groups =
  let total = Listutil.cartesian_count groups in
  let levels = Array.of_list (List.map Array.of_list groups) in
  let n = Array.length levels in
  (* Mask layout, in words. A row holds one bit per path of some levels,
     each level starting a new word; level [e] sits at [off.(e) - off.(d)]
     in a row that starts at level [d]. The compatibility block of depth
     [d], at [cbase.(d)], is a row from level [d]: the paths of each level
     from [d] on that conflict with no path chosen at levels [< d]. Path
     [i] of level [d < n - 1] owns [1 + width d] words at [rbase.(d) + i *
     (1 + width d)]: 1 once its conflict row is computed, then that row, a
     row from level [d + 1] of the paths that conflict with it. *)
  let off = Array.make (n + 1) 0 in
  for e = 0 to n - 1 do
    off.(e + 1) <- off.(e) + ((Array.length levels.(e) + word - 1) / word)
  done;
  let width d = off.(n) - off.(d + 1) in
  let cbase = Array.make (n + 1) 0 in
  for d = 0 to n - 1 do
    cbase.(d + 1) <- cbase.(d) + off.(n) - off.(d)
  done;
  let rbase = Array.make (n + 1) cbase.(n) in
  for d = 0 to n - 2 do
    rbase.(d + 1) <- rbase.(d) + (Array.length levels.(d) * (1 + width d))
  done;
  let m =
    if not gprune then [||]
    else begin
      let need = rbase.(max 0 (n - 1)) in
      if Array.length t.masks < need then
        t.masks <- Array.make (max need (2 * Array.length t.masks)) 0;
      Array.fill t.masks 0 off.(n) (-1);
      for d = 0 to n - 2 do
        for i = 0 to Array.length levels.(d) - 1 do
          t.masks.(rbase.(d) + (i * (1 + width d))) <- 0
        done
      done;
      t.masks
    end
  in
  (* the conflict row of path [i] of level [d], computed on its first
     push: stamp its claims, then test every later path against them *)
  let row d i =
    let r = rbase.(d) + (i * (1 + width d)) + 1 in
    if m.(r - 1) = 0 then begin
      m.(r - 1) <- 1;
      t.pass <- t.pass + 1;
      Gpath.hold ~stamp:t.stamp ~held:t.held ~pass:t.pass levels.(d).(i).Edge2path.path;
      Array.fill m r (width d) 0;
      for e = d + 1 to n - 1 do
        (* path [j]'s bit: word [w], mask [bit], advanced per path *)
        let level = levels.(e) and w = ref (r + off.(e) - off.(d + 1)) and bit = ref 1 in
        for j = 0 to Array.length level - 1 do
          if Gpath.clashes ~stamp:t.stamp ~held:t.held ~pass:t.pass level.(j).Edge2path.path
          then m.(!w) <- m.(!w) lor !bit;
          if !bit = 1 lsl (word - 1) then begin
            incr w;
            bit := 1
          end
          else bit := !bit lsl 1
        done
      done
    end;
    r
  in
  (* choosing path [i] at level [d]: the next depth's block is this
     depth's, less the path's conflicts *)
  let push d i =
    let r = row d i and src = cbase.(d) + off.(d + 1) - off.(d) and dst = cbase.(d + 1) in
    for w = 0 to width d - 1 do
      m.(dst + w) <- m.(src + w) land lnot m.(r + w)
    done
  in
  if sprune then Array.iter (Array.iter (ready t)) levels;
  let chosen = Array.make n 0 in
  let union = ref 0 and min_hi = ref max_int and conflict_free = ref 0 in
  let kept = ref [] in
  let rec combo d acc =
    if d < 0 then acc else combo (d - 1) (levels.(d).(chosen.(d)) :: acc)
  in
  let rec go d sum_size sum_extra =
    if d = n then begin
      incr conflict_free;
      let lo =
        if sprune then begin
          let hi = sum_size - (n - 1) in
          if hi < !min_hi then min_hi := hi;
          !union + sum_extra
        end
        else 0
      in
      if lo <= !min_hi then kept := (lo, combo (n - 1) []) :: !kept
    end
    else begin
      (* entering a level charges every path of it, conflicting or not *)
      let len = Array.length levels.(d) in
      (match budget with Some b -> Budget.spend b len | None -> ());
      if not gprune then
        for i = 0 to len - 1 do
          visit d i sum_size sum_extra
        done
      else
        (* the set bits of the block, lowest first; a block starts as
           all-ones words, so the last word is cut at [len] *)
        for w = 0 to ((len + word - 1) / word) - 1 do
          let base = w * word in
          let x = ref m.(cbase.(d) + w) in
          if len - base < word then x := !x land ((1 lsl (len - base)) - 1);
          while !x <> 0 do
            let low = !x land - !x in
            x := !x lxor low;
            visit d (base + bit_index low 0) sum_size sum_extra
          done
        done
    end
  and visit d i sum_size sum_extra =
    chosen.(d) <- i;
    if gprune && d < n - 1 then push d i;
    if not sprune then go (d + 1) sum_size sum_extra
    else begin
      let p = levels.(d).(i) in
      let apis = p.Edge2path.path.Gpath.apis and extra = t.extras.(p.Edge2path.id) in
      for j = 0 to Array.length apis - 1 do
        let a = apis.(j) in
        if t.uses.(a) = 0 then incr union;
        t.uses.(a) <- t.uses.(a) + 1
      done;
      go (d + 1) (sum_size + Array.length apis + extra) (sum_extra + extra);
      for j = 0 to Array.length apis - 1 do
        let a = apis.(j) in
        t.uses.(a) <- t.uses.(a) - 1;
        if t.uses.(a) = 0 then decr union
      done
    end
  in
  go 0 0 0;
  let kept =
    List.fold_left
      (fun acc (lo, c) -> if lo <= !min_hi then c :: acc else acc)
      [] !kept
  in
  { kept; total; conflict_free = !conflict_free }
