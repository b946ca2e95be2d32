module Hist = struct
  type t = {
    bounds : float array; (* ascending upper bounds; overflow bucket implicit *)
    counts : int array;   (* length = Array.length bounds + 1 *)
    mutable total : int;
    mutable sum : float;
    mutable max_v : float;
  }

  let default_bounds =
    [|
      0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0;
      2.5; 5.0; 10.0; 30.0;
    |]

  let create ?(bounds = default_bounds) () =
    {
      bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      total = 0;
      sum = 0.0;
      max_v = 0.0;
    }

  let bucket_of t v =
    let n = Array.length t.bounds in
    let rec go i = if i >= n then n else if v <= t.bounds.(i) then i else go (i + 1) in
    go 0

  let observe t v =
    let i = bucket_of t v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. v;
    if v > t.max_v then t.max_v <- v

  let count t = t.total
  let sum t = t.sum
  let max_value t = t.max_v

  let quantile t q =
    if t.total = 0 then 0.0
    else begin
      let rank = q *. float_of_int t.total in
      let n = Array.length t.bounds in
      let rec go i cum =
        if i > n then t.max_v
        else
          let cum' = cum + t.counts.(i) in
          if float_of_int cum' >= rank then
            if i = n then t.max_v
            else
              (* interpolate within [lower, upper] assuming uniform spread *)
              let lower = if i = 0 then 0.0 else t.bounds.(i - 1) in
              let upper = t.bounds.(i) in
              let in_bucket = t.counts.(i) in
              if in_bucket = 0 then upper
              else
                let frac = (rank -. float_of_int cum) /. float_of_int in_bucket in
                Float.min t.max_v (lower +. (frac *. (upper -. lower)))
          else go (i + 1) cum'
      in
      go 0 0
    end

  let buckets t =
    let n = Array.length t.bounds in
    let cum = ref 0 in
    let out = ref [] in
    for i = 0 to n do
      cum := !cum + t.counts.(i);
      let le = if i = n then Float.infinity else t.bounds.(i) in
      out := (le, !cum) :: !out
    done;
    List.rev !out
end

type kind = Counter | Gauge | Histogram

type cells =
  | Values of (string list, float ref) Hashtbl.t  (* counters, gauges *)
  | Hists of (string list, Hist.t) Hashtbl.t
  | Sampled of (unit -> (string list * float) list)

type family = {
  name : string;
  help : string;
  kind : kind;
  labels : string list;
  cells : cells;
}

type counter = family
type gauge = family
type histogram = family
type t = { mu : Mutex.t; mutable families : family list }

let create () = { mu = Mutex.create (); families = [] }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

(* a family without labels has its one sample from the start *)
let declare t labels kind cells name help =
  (match (labels, cells) with
  | [], Values tbl -> Hashtbl.replace tbl [] (ref 0.0)
  | [], Hists tbl -> Hashtbl.replace tbl [] (Hist.create ())
  | _ -> ());
  let f = { name; help; kind; labels; cells } in
  locked t (fun () ->
      if List.exists (fun g -> g.name = name) t.families then
        invalid_arg ("Smetrics: " ^ name ^ " is declared twice");
      t.families <- f :: t.families);
  f

let counter t ?(labels = []) name ~help =
  declare t labels Counter (Values (Hashtbl.create 8)) name help

let gauge t ?(labels = []) name ~help =
  declare t labels Gauge (Values (Hashtbl.create 8)) name help

let histogram t ?(labels = []) name ~help =
  declare t labels Histogram (Hists (Hashtbl.create 8)) name help

let sampled t ?(labels = []) kind name ~help rows =
  let kind = match kind with `Counter -> Counter | `Gauge -> Gauge in
  ignore (declare t labels kind (Sampled rows) name help)

type op = family * string list * float

let op f values v =
  if List.compare_lengths values f.labels <> 0 then
    invalid_arg
      (Printf.sprintf "Smetrics: %s takes %d label values" f.name
         (List.length f.labels));
  (f, values, v)

let inc ?(by = 1.0) c values = op c values by
let set g values v = op g values v
let observe h values v = op h values v

let cell tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = make () in
      Hashtbl.replace tbl key c;
      c

let apply ((f, values, v) : op) =
  match f.cells with
  | Values tbl ->
      let r = cell tbl values (fun () -> ref 0.0) in
      r := if f.kind = Counter then !r +. v else v
  | Hists tbl -> Hist.observe (cell tbl values Hist.create) v
  | Sampled _ -> ()

let record t ops = locked t (fun () -> List.iter apply ops)

let fmt_float v =
  if Float.abs v = Float.infinity then "+Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* "{k=\"v\",...}", or nothing when there are no labels *)
let label_text pairs =
  if pairs = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) pairs)
    ^ "}"

(* a family's stored samples, by label values *)
let sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let quantiles = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

(* [name_p50] for a histogram [name_seconds] *)
let quantile_name name q =
  let base =
    if String.ends_with ~suffix:"_seconds" name then
      String.sub name 0 (String.length name - 8)
    else name
  in
  base ^ "_" ^ q

(* the sampled families' closures run before the lock is taken *)
let render t =
  let families =
    List.sort
      (fun a b -> compare a.name b.name)
      (locked t (fun () -> t.families))
  in
  let rows =
    List.map
      (fun f ->
        match f.cells with
        | Sampled rows -> ( try rows () with _ -> [])
        | Values _ | Hists _ -> [])
      families
  in
  let b = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let header name help kind =
    line "# HELP %s %s" name help;
    line "# TYPE %s %s" name (kind_name kind)
  in
  let sample f ?(extra = []) name values v =
    line "%s%s %s" name
      (label_text (List.combine f.labels values @ extra))
      (fmt_float v)
  in
  locked t (fun () ->
      List.iter2
        (fun f rows ->
          header f.name f.help f.kind;
          match f.cells with
          | Sampled _ ->
              List.iter (fun (values, v) -> sample f f.name values v) rows
          | Values tbl ->
              List.iter
                (fun (values, r) -> sample f f.name values !r)
                (sorted tbl)
          | Hists tbl ->
              let hists = sorted tbl in
              List.iter
                (fun (values, h) ->
                  List.iter
                    (fun (le, cum) ->
                      sample f ~extra:[ ("le", fmt_float le) ]
                        (f.name ^ "_bucket") values (float_of_int cum))
                    (Hist.buckets h);
                  sample f (f.name ^ "_sum") values (Hist.sum h);
                  sample f (f.name ^ "_count") values
                    (float_of_int (Hist.count h)))
                hists;
              List.iter
                (fun (q, p) ->
                  let name = quantile_name f.name q in
                  header name
                    (Printf.sprintf "%g quantile of %s." p f.name)
                    Gauge;
                  List.iter
                    (fun (values, h) ->
                      sample f name values (Hist.quantile h p))
                    hists)
                quantiles)
        families rows);
  Buffer.contents b
