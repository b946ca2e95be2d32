let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = c >= 'a' && c <= 'z'
let is_alpha c = is_upper c || is_lower c
let is_digit c = c >= '0' && c <= '9'
let is_alnum c = is_alpha c || is_digit c

let lowercase s =
  String.map (fun c -> if is_upper c then Char.chr (Char.code c + 32) else c) s

let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let contains_sub ~sub s =
  let ls = String.length s and lx = String.length sub in
  if lx = 0 then true
  else if lx > ls then false
  else
    let rec go i = i + lx <= ls && (String.sub s i lx = sub || go (i + 1)) in
    go 0

let split_on_chars ~chars s =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter
    (fun c -> if List.mem c chars then flush () else Buffer.add_char buf c)
    s;
  flush ();
  List.rev !out

let split_ws s = split_on_chars ~chars:[ ' '; '\t'; '\n'; '\r' ] s

let split_camel s =
  let n = String.length s in
  let parts = ref [] in
  let buf = Buffer.create 8 in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := lowercase (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  for i = 0 to n - 1 do
    let c = s.[i] in
    if c = '_' || c = '-' then flush ()
    else begin
      (* Boundary: lower->Upper, or Upper followed by Upper+lower (acronym
         end, e.g. "ASTNode" -> ast, node), or letter<->digit transition. *)
      let boundary =
        i > 0
        &&
        let p = s.[i - 1] in
        (is_lower p && is_upper c)
        || (is_upper p && is_upper c && i + 1 < n && is_lower s.[i + 1])
        || (is_alpha p && is_digit c)
        || (is_digit p && is_alpha c)
      in
      if boundary then flush ();
      Buffer.add_char buf c
    end
  done;
  flush ();
  List.rev !parts

let strip s =
  let n = String.length s in
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_ws s.[!i] do
    incr i
  done;
  while !j >= !i && is_ws s.[!j] do
    decr j
  done;
  if !j < !i then "" else String.sub s !i (!j - !i + 1)

let drop_suffix ~suffix s =
  if ends_with ~suffix s then
    Some (String.sub s 0 (String.length s - String.length suffix))
  else None

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0
