(* A minimal HTTP/1.1 client over loopback TCP: keep-alive request /
   response for the plain endpoints, and an incremental reader for SSE
   streams that timestamps every frame as the read completing it returns.
   Latency runs from just before the first request byte is written to
   the last response byte (the done frame, for streams). *)

let now = Unix.gettimeofday

type conn = { fd : Unix.file_descr; chunk : Bytes.t; pending : Buffer.t }

(* a stalled server fails the request instead of hanging the benchmark *)
let read_timeout_s = 60.0

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  with
  | () -> { fd; chunk = Bytes.create 65536; pending = Buffer.create 4096 }
  | exception e ->
      Unix.close fd;
      raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let request_text ~meth ~path body =
  match body with
  | None -> Printf.sprintf "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\n\r\n" meth path
  | Some b ->
      Printf.sprintf
        "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\n\
         content-length: %d\r\n\r\n%s"
        meth path (String.length b) b

(* one read from the socket, appended to [pending] *)
let recv c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "connection closed mid-response";
  Buffer.add_subbytes c.pending c.chunk 0 n

let take_pending c =
  let s = Buffer.contents c.pending in
  Buffer.clear c.pending;
  s

type head = {
  status : int;
  headers : (string * string) list;  (* names lowercased *)
}

let header h name = List.assoc_opt name h.headers

let read_head c =
  let rec find () =
    let s = Buffer.contents c.pending in
    let rec go i =
      if i + 3 >= String.length s then None
      else if String.sub s i 4 = "\r\n\r\n" then Some i
      else go (i + 1)
    in
    match go 0 with
    | Some i -> (s, i)
    | None ->
        recv c;
        find ()
  in
  let s, i = find () in
  Buffer.clear c.pending;
  Buffer.add_string c.pending (String.sub s (i + 4) (String.length s - i - 4));
  match String.split_on_char '\n' (String.sub s 0 i) with
  | [] -> failwith "empty response head"
  | status_line :: lines ->
      let status =
        match String.split_on_char ' ' status_line with
        | _ :: code :: _ -> (
            match int_of_string_opt code with
            | Some c -> c
            | None -> failwith "bad status line")
        | _ -> failwith "bad status line"
      in
      let headers =
        List.filter_map
          (fun l ->
            match String.index_opt l ':' with
            | Some j ->
                Some
                  ( String.lowercase_ascii (String.trim (String.sub l 0 j)),
                    String.trim (String.sub l (j + 1) (String.length l - j - 1))
                  )
            | None -> None)
          lines
      in
      { status; headers }

let chunked h =
  match header h "transfer-encoding" with
  | Some v -> String.lowercase_ascii v = "chunked"
  | None -> false

(* the rest of a non-streamed body *)
let read_body c h =
  if chunked h then begin
    let d = Sse.dechunk () in
    let out = Buffer.create 4096 in
    Buffer.add_string out (Sse.feed_chunked d (take_pending c));
    while not (Sse.finished d) do
      recv c;
      Buffer.add_string out (Sse.feed_chunked d (take_pending c))
    done;
    Buffer.contents out
  end
  else
    let len =
      match header h "content-length" with
      | Some v -> (
          match int_of_string_opt v with
          | Some n -> n
          | None -> failwith "bad content-length")
      | None -> failwith "response without content-length"
    in
    while Buffer.length c.pending < len do
      recv c
    done;
    let s = take_pending c in
    Buffer.add_string c.pending (String.sub s len (String.length s - len));
    String.sub s 0 len

type reply = {
  status : int;
  body : string;
  t_start : float;  (* before the first request byte was written *)
  t_end : float;    (* after the last response byte was read *)
  reusable : bool;  (* the server kept the connection open *)
}

(* One request on a keep-alive connection. *)
let call c ~meth ~path ?body () =
  let req = request_text ~meth ~path body in
  let t_start = now () in
  write_all c.fd req;
  let h = read_head c in
  let body = read_body c h in
  let t_end = now () in
  let reusable =
    match header h "connection" with
    | Some v -> String.lowercase_ascii v <> "close"
    | None -> true
  in
  { status = h.status; body; t_start; t_end; reusable }

(* One request on a fresh connection, closed afterwards. *)
let call_once port ~meth ~path ?body () =
  let c = connect port in
  Fun.protect ~finally:(fun () -> close c) (fun () -> call c ~meth ~path ?body ())

type stream = {
  s_status : int;
  frames : (Sse.frame * float) list;  (* each with its completion time *)
  s_start : float;
  s_done : float;    (* completion of the terminal frame (or last byte) *)
  s_body : string;   (* the body, for a non-streamed (error) reply *)
  clean_end : bool;  (* the chunked body ended with its last chunk *)
}

(* A streamed request ([?stream=1]) on a fresh connection: the server
   closes a stream's connection after its last chunk. *)
let stream port ~path ~body =
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      let req = request_text ~meth:"POST" ~path (Some body) in
      let s_start = now () in
      write_all c.fd req;
      let h = read_head c in
      if h.status <> 200 || not (chunked h) then
        let b = read_body c h in
        {
          s_status = h.status;
          frames = [];
          s_start;
          s_done = now ();
          s_body = b;
          clean_end = false;
        }
      else
        let d = Sse.dechunk () and f = Sse.frames () in
        let frames = ref [] and s_done = ref 0.0 in
        let absorb () =
          let got = Sse.feed_frames f (Sse.feed_chunked d (take_pending c)) in
          if got <> [] then begin
            let t = now () in
            List.iter
              (fun fr ->
                frames := (fr, t) :: !frames;
                if fr.Sse.event <> "candidate" then s_done := t)
              got
          end
        in
        absorb ();
        let eof = ref false in
        while not (Sse.finished d || !eof) do
          (match recv c with
          | () -> ()
          | exception Failure _ -> eof := true);
          absorb ()
        done;
        let t_last = now () in
        {
          s_status = h.status;
          frames = List.rev !frames;
          s_start;
          s_done = (if !s_done > 0.0 then !s_done else t_last);
          s_body = "";
          clean_end = Sse.finished d && Sse.leftover f = 0;
        })
