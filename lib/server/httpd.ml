type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
  stream : ((string -> unit) -> unit) option;
      (* when set, [body] is ignored and the producer is run on the
         connection thread with a chunk writer: the response goes out as
         [transfer-encoding: chunked] and the connection closes after
         the terminal chunk *)
}

let reason_phrase = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 422 -> "Unprocessable Entity"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | c when c >= 200 && c < 300 -> "OK"
  | c when c >= 400 && c < 500 -> "Client Error"
  | _ -> "Server Error"

let response ?(content_type = "application/json") ?(headers = []) status body =
  { status; headers = ("content-type", content_type) :: headers; body;
    stream = None }

let stream_response ?(content_type = "text/event-stream") ?(headers = [])
    status producer =
  {
    status;
    headers = ("content-type", content_type) :: headers;
    body = "";
    stream = Some producer;
  }

(* ------------------------------------------------------------------ *)
(* url decoding                                                       *)
(* ------------------------------------------------------------------ *)

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '+' ->
          Buffer.add_char buf ' ';
          go (i + 1)
      | '%' when i + 2 < n -> (
          match (hex s.[i + 1], hex s.[i + 2]) with
          | Some h, Some l ->
              Buffer.add_char buf (Char.chr ((h * 16) + l));
              go (i + 3)
          | _ ->
              Buffer.add_char buf '%';
              go (i + 1))
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0;
  Buffer.contents buf

let parse_query s =
  if s = "" then []
  else
    String.split_on_char '&' s
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | Some i ->
                 Some
                   ( percent_decode (String.sub kv 0 i),
                     percent_decode
                       (String.sub kv (i + 1) (String.length kv - i - 1)) )
             | None -> Some (percent_decode kv, ""))

(* ------------------------------------------------------------------ *)
(* server                                                             *)
(* ------------------------------------------------------------------ *)

(* A thread whose connection ends goes back to accept() only while fewer
   than this many threads wait there, and exits otherwise: the bound on
   idle threads. A count, not an idle timeout, because OCaml 5.1's
   Condition has no timed wait. *)
let max_idle_acceptors = 2

type t = {
  listener : Unix.file_descr;
  bound_port : int;
  unix_path : string option;
      (* when set, the listener is a Unix-domain socket at this path; the
         path is unlinked once every server thread has exited *)
  handler : request -> response;
  max_header : int;
  max_body : int;
  idle_timeout : float;
  stopped : bool Atomic.t;
  mu : Mutex.t;
  all_exited : Condition.t; (* broadcast when [threads] drops to 0 *)
  conns : (Unix.file_descr, unit) Hashtbl.t;
  mutable accepting : int; (* threads in, or on their way into, accept() *)
  mutable threads : int; (* live server threads *)
  mutable closed : bool; (* [wait] has closed the listener *)
}

exception Http_error of int * string

let read_more fd buf chunk =
  let n = Unix.read fd chunk 0 (Bytes.length chunk) in
  if n = 0 then false
  else begin
    Buffer.add_subbytes buf chunk 0 n;
    true
  end

(* index of the first "\r\n\r\n" in the buffer at or after [from],
   or None *)
let find_header_end buf from =
  let n = Buffer.length buf in
  let rec go i =
    if i + 3 >= n then None
    else if
      Buffer.nth buf i = '\r'
      && Buffer.nth buf (i + 1) = '\n'
      && Buffer.nth buf (i + 2) = '\r'
      && Buffer.nth buf (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go from

let parse_head head =
  match String.split_on_char '\n' head |> List.map (fun l -> String.trim l) with
  | [] | [ "" ] -> raise (Http_error (400, "empty request"))
  | reqline :: header_lines ->
      let meth, target, version =
        match String.split_on_char ' ' reqline with
        | [ m; t; v ] -> (String.uppercase_ascii m, t, v)
        | _ -> raise (Http_error (400, "malformed request line"))
      in
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        raise (Http_error (501, "unsupported HTTP version"));
      let headers =
        List.filter_map
          (fun l ->
            if l = "" then None
            else
              match String.index_opt l ':' with
              | None -> raise (Http_error (400, "malformed header"))
              | Some i ->
                  Some
                    ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
                      String.trim
                        (String.sub l (i + 1) (String.length l - i - 1)) ))
          header_lines
      in
      let path, query =
        match String.index_opt target '?' with
        | Some i ->
            ( String.sub target 0 i,
              parse_query (String.sub target (i + 1) (String.length target - i - 1))
            )
        | None -> (target, [])
      in
      (meth, percent_decode path, query, headers, version)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let write_response fd ~keep_alive (r : response) =
  match r.stream with
  | None ->
      let buf = Buffer.create (String.length r.body + 256) in
      Buffer.add_string buf
        (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status (reason_phrase r.status));
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
        r.headers;
      Buffer.add_string buf
        (Printf.sprintf "content-length: %d\r\n" (String.length r.body));
      Buffer.add_string buf
        (if keep_alive then "connection: keep-alive\r\n"
         else "connection: close\r\n");
      Buffer.add_string buf "\r\n";
      Buffer.add_string buf r.body;
      write_all fd (Buffer.contents buf)
  | Some producer ->
      (* chunked transfer: headers first, then one chunk frame per
         producer emission, then the terminal zero chunk. The connection
         never outlives a streamed response (connection: close): the
         producer runs arbitrary work between chunks, so request
         pipelining behind it would sit on an unbounded delay. A write
         failure mid-stream (client went away — SIGPIPE is ignored, so
         it surfaces as EPIPE) aborts the producer; the caller treats it
         like any connection error. *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status (reason_phrase r.status));
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
        r.headers;
      Buffer.add_string buf "transfer-encoding: chunked\r\n";
      Buffer.add_string buf "connection: close\r\n";
      Buffer.add_string buf "\r\n";
      write_all fd (Buffer.contents buf);
      let chunk data =
        if String.length data > 0 then
          write_all fd
            (Printf.sprintf "%x\r\n%s\r\n" (String.length data) data)
      in
      producer chunk;
      write_all fd "0\r\n\r\n"

(* One request: returns (request, keep_alive) or raises. [pending] holds
   bytes already read past the previous request's end; [chunk] is the
   serving thread's read buffer. *)
let read_request t fd pending chunk =
  (* each read's bytes are scanned once: a terminator may only start in
     the last three bytes already scanned or after them *)
  let rec fill from =
    match find_header_end pending from with
    | Some i -> i
    | None ->
        if Buffer.length pending > t.max_header then
          raise (Http_error (431, "headers too large"));
        let from = max 0 (Buffer.length pending - 3) in
        if not (read_more fd pending chunk) then raise Exit (* peer closed *);
        fill from
  in
  let hdr_end = fill 0 in
  let all = Buffer.contents pending in
  let head = String.sub all 0 hdr_end in
  let rest = String.sub all (hdr_end + 4) (String.length all - hdr_end - 4) in
  let meth, path, query, headers, version = parse_head head in
  if List.assoc_opt "transfer-encoding" headers <> None then
    raise (Http_error (501, "chunked bodies not supported"));
  let clen =
    match List.assoc_opt "content-length" headers with
    | None -> 0
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some n when n >= 0 -> n
        | _ -> raise (Http_error (400, "bad content-length")))
  in
  if clen > t.max_body then raise (Http_error (413, "body too large"));
  Buffer.clear pending;
  Buffer.add_string pending rest;
  while Buffer.length pending < clen do
    if not (read_more fd pending chunk) then
      raise (Http_error (400, "truncated body"))
  done;
  let all = Buffer.contents pending in
  let body = String.sub all 0 clen in
  Buffer.clear pending;
  Buffer.add_string pending (String.sub all clen (String.length all - clen));
  let keep_alive =
    match (version, List.assoc_opt "connection" headers) with
    | _, Some c when String.lowercase_ascii c = "close" -> false
    | "HTTP/1.0", Some c -> String.lowercase_ascii c = "keep-alive"
    | "HTTP/1.0", None -> false
    | _ -> true
  in
  ({ meth; path; query; headers; body }, keep_alive)

(* Serve one accepted connection until the peer closes it, it idles
   out, a request fails to parse or a streamed response ends it. *)
let serve_conn t ~chunk ~pending fd =
  Buffer.reset pending;
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.idle_timeout
   with Unix.Unix_error _ -> ());
  let rec loop () =
    if not (Atomic.get t.stopped) then begin
      match read_request t fd pending chunk with
      | req, keep_alive ->
          let resp =
            try t.handler req
            with _ ->
              response 500 {|{"error":"internal server error"}|}
          in
          (* a streamed response always closes the connection (its
             headers said so); don't read another request off it *)
          let keep_alive = keep_alive && Option.is_none resp.stream in
          write_response fd ~keep_alive resp;
          if keep_alive then loop ()
      | exception Http_error (status, msg) ->
          (* parse errors: best-effort report, then drop the connection *)
          (try
             write_response fd ~keep_alive:false
               (response status
                  (Printf.sprintf {|{"error":%S}|} msg))
           with _ -> ())
      | exception Exit -> () (* peer closed between requests *)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          () (* idle timeout *)
    end
  in
  try loop () with _ -> ()

(* under [mu]: the calling server thread is about to return *)
let exit_locked t =
  t.threads <- t.threads - 1;
  if t.threads = 0 then Condition.broadcast t.all_exited

(* a thread counted in [accepting] returns without a connection *)
let quit_accepting t =
  Mutex.lock t.mu;
  t.accepting <- t.accepting - 1;
  exit_locked t;
  Mutex.unlock t.mu

(* Leader/followers: every server thread blocks in accept() and serves
   the connection it accepted itself, so a fresh connection costs no
   thread creation. Before serving, a thread starts one more acceptor if
   no other thread waits in accept(), so a long stream or a held
   keep-alive connection never leaves the listener unattended. After
   the connection it goes back to accept() unless [max_idle_acceptors]
   threads already wait there. Whoever starts a thread has counted it
   in [threads] and [accepting]; the read buffer lives as long as the
   thread. *)
let rec server_thread t =
  let chunk = Bytes.create 8192 and pending = Buffer.create 1024 in
  let rec accept_next () =
    match Unix.accept ~cloexec:true t.listener with
    | fd, _ ->
        Mutex.lock t.mu;
        t.accepting <- t.accepting - 1;
        if Atomic.get t.stopped then begin
          (try Unix.close fd with Unix.Unix_error _ -> ());
          exit_locked t;
          Mutex.unlock t.mu
        end
        else begin
          Hashtbl.replace t.conns fd ();
          let lead = t.accepting = 0 in
          if lead then begin
            t.accepting <- 1;
            t.threads <- t.threads + 1
          end;
          Mutex.unlock t.mu;
          if lead then spawn t;
          serve_conn t ~chunk ~pending fd;
          (* closed under [mu], so [stop] never shuts down a recycled
             fd number *)
          Mutex.lock t.mu;
          Hashtbl.remove t.conns fd;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          let again =
            (not (Atomic.get t.stopped)) && t.accepting < max_idle_acceptors
          in
          if again then t.accepting <- t.accepting + 1 else exit_locked t;
          Mutex.unlock t.mu;
          if again then accept_next ()
        end
    | exception Unix.Unix_error ((EBADF | EINVAL), _, _) ->
        quit_accepting t (* listener shut down by [stop] *)
    | exception _ ->
        if Atomic.get t.stopped then quit_accepting t else accept_next ()
  in
  accept_next ()

and spawn t =
  try ignore (Thread.create server_thread t)
  with _ ->
    (* no new thread: the listener waits until this one is back in
       accept() *)
    quit_accepting t

let create ?(addr = "127.0.0.1") ?(backlog = 128) ?(max_header_bytes = 16384)
    ?(max_body_bytes = 1 lsl 20) ?(idle_timeout_s = 30.0) ?unix_path ~port
    handler =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* cloexec everywhere: the sharding supervisor forks workers from this
     process, and an inherited listener or connection fd would keep the
     peer's EOF from ever arriving after we close our copy *)
  let listener =
    match unix_path with
    | None -> Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0
    | Some _ -> Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  (try Unix.setsockopt listener Unix.SO_REUSEADDR true
   with Unix.Unix_error _ -> ());
  (try
     match unix_path with
     | None ->
         Unix.bind listener
           (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port))
     | Some path ->
         (* a stale socket file from a crashed predecessor would make the
            bind fail; binding over it is what restarts want *)
         (try Unix.unlink path with Unix.Unix_error _ -> ());
         Unix.bind listener (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listener backlog;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      listener;
      bound_port;
      unix_path;
      handler;
      max_header = max_header_bytes;
      max_body = max_body_bytes;
      idle_timeout = idle_timeout_s;
      stopped = Atomic.make false;
      mu = Mutex.create ();
      all_exited = Condition.create ();
      conns = Hashtbl.create 16;
      accepting = 1;
      threads = 1;
      closed = false;
    }
  in
  ignore (Thread.create server_thread t);
  t

let port t = t.bound_port

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* shutdown, not close: on Linux a blocked accept() is not woken by
       close() from another thread, but shutdown(SHUT_RD) makes every
       accept() on the listener, blocked or later, return EINVAL. The fd
       itself is closed in [wait] once every server thread has exited,
       so its number cannot be recycled under accept(). *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_RECEIVE
     with Unix.Unix_error _ -> ());
    (* wake connections blocked waiting for the next request; they finish
       the response they are writing, see EOF, and exit *)
    Mutex.lock t.mu;
    Hashtbl.iter
      (fun fd () ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      t.conns;
    Mutex.unlock t.mu
  end

let wait t =
  Mutex.lock t.mu;
  while t.threads > 0 do
    Condition.wait t.all_exited t.mu
  done;
  let close = not t.closed in
  t.closed <- true;
  Mutex.unlock t.mu;
  if close then begin
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    match t.unix_path with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ()
  end

let handle_signals t =
  (* OCaml signal handlers only run at poll points of domain 0, and once
     [wait] is reached every domain-0 thread sits in a blocking section
     (Condition.wait, accept(2), read(2)) — a handler that called [stop]
     directly would never execute. So the handler just sets a flag, and a
     watcher thread whose Thread.delay wake-ups provide the poll points
     notices it and performs the actual stop. *)
  let requested = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set requested true) in
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
  ignore
    (Thread.create
       (fun () ->
         while not (Atomic.get requested || Atomic.get t.stopped) do
           Thread.delay 0.1
         done;
         if Atomic.get requested then stop t)
       ())
