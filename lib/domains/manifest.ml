type binding = { key : string; value : string; line : int }
type t = { file : string; bindings : binding list }

let is_key_char c =
  Dggt_util.Strutil.is_alnum c || c = '-' || c = '_' || c = '.'

let valid_key k = k <> "" && String.for_all is_key_char k

let parse ~file text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok { file; bindings = List.rev acc }
    | raw :: rest -> (
        let s = Dggt_util.Strutil.strip raw in
        if s = "" || s.[0] = '#' then go (lineno + 1) acc rest
        else
          match String.index_opt s '=' with
          | None ->
              Error
                (Err.v ~line:lineno file
                   "expected `key = value` (or a # comment)")
          | Some i ->
              let key = Dggt_util.Strutil.strip (String.sub s 0 i) in
              let value =
                Dggt_util.Strutil.strip
                  (String.sub s (i + 1) (String.length s - i - 1))
              in
              if not (valid_key key) then
                Error (Err.vf ~line:lineno file "malformed key %S" key)
              else go (lineno + 1) ({ key; value; line = lineno } :: acc) rest)
  in
  go 1 [] lines

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error (Err.v path m)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let load path =
  match read_file path with
  | Error e -> Error e
  | Ok text -> parse ~file:path text

let find t key = List.find_opt (fun b -> b.key = key) t.bindings
let find_all t key = List.filter (fun b -> b.key = key) t.bindings

let value t key = Option.map (fun b -> b.value) (find t key)

let int_value t key =
  match find t key with
  | None -> Ok None
  | Some b -> (
      match int_of_string_opt b.value with
      | Some n -> Ok (Some n)
      | None ->
          Error
            (Err.vf ~line:b.line t.file "%s: expected an integer, got %S"
               key b.value))

let num_value t key =
  match find t key with
  | None -> Ok None
  | Some b -> (
      match float_of_string_opt b.value with
      | Some v when Float.is_finite v -> Ok (Some v)
      | _ ->
          Error
            (Err.vf ~line:b.line t.file "%s: expected a number, got %S" key
               b.value))
