let cartesian lls =
  let rec go = function
    | [] -> [ [] ]
    | l :: rest ->
        let tails = go rest in
        List.concat_map (fun x -> List.map (fun t -> x :: t) tails) l
  in
  go lls

let cartesian_count lls =
  List.fold_left
    (fun acc l ->
      let n = List.length l in
      if acc = 0 || n = 0 then 0
      else if acc > max_int / n then max_int
      else acc * n)
    1 lls

let iter_cartesian f lls =
  let rec go acc = function
    | [] -> f (List.rev acc)
    | l :: rest -> List.iter (fun x -> go (x :: acc) rest) l
  in
  go [] lls

let cartesian_take n lls =
  let acc = ref [] and k = ref 0 in
  (try
     if n > 0 then
       iter_cartesian
         (fun c ->
           acc := c :: !acc;
           incr k;
           if !k >= n then raise_notrace Exit)
         lls
   with Exit -> ());
  List.rev !acc

let group_by ~key xs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some cell -> cell := x :: !cell
      | None ->
          Hashtbl.add tbl k (ref [ x ]);
          order := k :: !order)
    xs;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let take n xs =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] xs

let uniq xs =
  let rec go seen = function
    | [] -> List.rev seen
    | x :: rest -> if List.mem x seen then go seen rest else go (x :: seen) rest
  in
  go [] xs

let max_by cmp = function
  | [] -> None
  | x :: rest ->
      Some (List.fold_left (fun best y -> if cmp y best > 0 then y else best) x rest)

let min_by cmp = function
  | [] -> None
  | x :: rest ->
      Some (List.fold_left (fun best y -> if cmp y best < 0 then y else best) x rest)

let sum_by f = List.fold_left (fun acc x -> acc + f x) 0
