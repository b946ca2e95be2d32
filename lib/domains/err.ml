type t = { file : string; line : int; message : string }

let v ?(line = 0) file message = { file; line; message }
let vf ?line file fmt = Printf.ksprintf (v ?line file) fmt

let to_string e =
  if e.line > 0 then Printf.sprintf "%s:%d: %s" e.file e.line e.message
  else Printf.sprintf "%s: %s" e.file e.message

let ok_exn = function Ok v -> v | Error e -> failwith (to_string e)
