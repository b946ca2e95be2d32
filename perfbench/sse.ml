(* Incremental decoding of a streamed response: HTTP/1.1 chunked transfer
   coding, then server-sent-event frames. Both decoders take bytes as the
   socket delivers them, so a frame split across reads (or across chunks,
   when the shard router re-chunks a worker's stream) is reassembled, and
   the reader can timestamp each frame as the read that completes it. *)

(* --- chunked transfer coding ------------------------------------------ *)

type dechunk = {
  pending : Buffer.t;       (* raw bytes not yet decoded *)
  mutable finished : bool;  (* the zero-length last chunk was seen *)
}

let dechunk () = { pending = Buffer.create 1024; finished = false }
let finished d = d.finished

let find_crlf s from =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' then Some i
    else go (i + 1)
  in
  go from

(* Feed raw bytes; returns the chunk payload bytes completed so far.
   Raises [Failure] on a malformed chunk header or trailing bytes after
   the last chunk. *)
let feed_chunked d bytes =
  Buffer.add_string d.pending bytes;
  let s = Buffer.contents d.pending in
  let out = Buffer.create (String.length s) in
  let rec go pos =
    if d.finished then begin
      if pos < String.length s then failwith "bytes after the last chunk";
      pos
    end
    else
      match find_crlf s pos with
      | None -> pos
      | Some eol -> (
          let size_field = String.sub s pos (eol - pos) in
          let size_field =
            match String.index_opt size_field ';' with
            | Some i -> String.sub size_field 0 i
            | None -> size_field
          in
          match int_of_string_opt ("0x" ^ String.trim size_field) with
          | None -> failwith ("bad chunk size " ^ String.escaped size_field)
          | Some 0 ->
              (* last chunk: no trailers expected, just the final CRLF *)
              if String.length s >= eol + 4 then begin
                if String.sub s (eol + 2) 2 <> "\r\n" then
                  failwith "trailers after the last chunk";
                d.finished <- true;
                go (eol + 4)
              end
              else pos
          | Some n ->
              let data = eol + 2 in
              if String.length s >= data + n + 2 then begin
                if String.sub s (data + n) 2 <> "\r\n" then
                  failwith "chunk not terminated by CRLF";
                Buffer.add_string out (String.sub s data n);
                go (data + n + 2)
              end
              else pos)
  in
  let consumed = go 0 in
  Buffer.clear d.pending;
  Buffer.add_string d.pending
    (String.sub s consumed (String.length s - consumed));
  Buffer.contents out

(* --- SSE frames --------------------------------------------------------- *)

type frame = { event : string; data : string }

type frames = { buf : Buffer.t }

let frames () = { buf = Buffer.create 1024 }

let parse_frame text =
  let event = ref "message" and data = ref [] in
  List.iter
    (fun line ->
      let field, value =
        match String.index_opt line ':' with
        | Some i ->
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            let v =
              if String.length v > 0 && v.[0] = ' ' then
                String.sub v 1 (String.length v - 1)
              else v
            in
            (String.sub line 0 i, v)
        | None -> (line, "")
      in
      match field with
      | "event" -> event := value
      | "data" -> data := value :: !data
      | _ -> ())
    (String.split_on_char '\n' text);
  { event = !event; data = String.concat "\n" (List.rev !data) }

(* Feed decoded body bytes; returns the frames completed by them, in
   order. A frame ends at a blank line. *)
let feed_frames f bytes =
  Buffer.add_string f.buf bytes;
  let s = Buffer.contents f.buf in
  let rec go pos acc =
    let rec blank i =
      if i + 1 >= String.length s then None
      else if s.[i] = '\n' && s.[i + 1] = '\n' then Some i
      else blank (i + 1)
    in
    match blank pos with
    | None -> (pos, List.rev acc)
    | Some i -> go (i + 2) (parse_frame (String.sub s pos (i - pos)) :: acc)
  in
  let consumed, out = go 0 [] in
  Buffer.clear f.buf;
  Buffer.add_string f.buf (String.sub s consumed (String.length s - consumed));
  out

let leftover f = Buffer.length f.buf

(* --- the streaming protocol ------------------------------------------- *)

(* The checks a stream must pass: interim [candidate] frames with strictly
   increasing [revision]s, then exactly one terminal [done] frame and
   nothing after it. An [error] frame, a missing terminal frame or a frame
   of any other kind fails the stream. Returns the [done] payload and the
   number of candidate frames. *)
let check_stream frames =
  let rec go last_rev n = function
    | [] -> Error "stream ended without a terminal done frame"
    | { event = "candidate"; data } :: rest -> (
        match Dggt_server.Jsonio.of_string data with
        | Error m -> Error ("unparseable candidate frame: " ^ m)
        | Ok j -> (
            match Dggt_server.Jsonio.int_field "revision" j with
            | None -> Error "candidate frame without a revision"
            | Some r when r <= last_rev ->
                Error
                  (Printf.sprintf "revision %d after revision %d" r last_rev)
            | Some r -> go r (n + 1) rest))
    | [ { event = "done"; data } ] -> Ok (data, n)
    | { event = "done"; _ } :: _ -> Error "frames after the done frame"
    | { event = "error"; data } :: _ -> Error ("error frame: " ^ data)
    | { event; _ } :: _ -> Error ("unexpected frame kind " ^ event)
  in
  go 0 0 frames
