(** Minimal HTTP/1.1 server over stdlib [Unix] sockets.

    Exactly what the service needs and nothing more: request-line + header
    parsing with size caps, [Content-Length] bodies, keep-alive, and clean
    shutdown. Each connection is served on the systhread that accepted it
    (leader/followers): before serving, that thread starts another
    acceptor only if no other thread waits in [accept], and when the
    connection ends it goes back to [accept] unless two threads already
    wait there. So fresh connections arriving one at a time reuse the
    parked threads instead of creating one each, and idle threads stay
    bounded. The handler runs on the
    connection's thread; blocking there (e.g. waiting for a worker-pool
    result) is fine and does not stall other connections.

    Chunked transfer encoding is supported on the {e response} side only
    ({!stream_response}: the handler returns a producer and the
    connection thread writes one chunk frame per emission — how the SSE
    endpoints stream candidates). Not implemented (requests using them
    get a [400]/[501]): chunked {e request} bodies, pipelining beyond
    read-one-write-one, TLS. *)

type request = {
  meth : string;                     (** uppercased: "GET", "POST", … *)
  path : string;                     (** request-target without the query string *)
  query : (string * string) list;    (** decoded query parameters *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
  stream : ((string -> unit) -> unit) option;
      (** [None] (every fixed response): [body] is sent with a
          [Content-Length]. [Some producer]: [body] is ignored and the
          response is chunked — see {!stream_response}. *)
}

val response :
  ?content_type:string -> ?headers:(string * string) list -> int -> string ->
  response
(** [content_type] defaults to ["application/json"]. [Content-Length] and
    [Connection] are added at write time; don't set them. *)

val stream_response :
  ?content_type:string ->
  ?headers:(string * string) list ->
  int ->
  ((string -> unit) -> unit) ->
  response
(** A chunked response ([content_type] defaults to
    ["text/event-stream"]). After the status line and headers
    ([transfer-encoding: chunked], [connection: close]) go out, the
    producer runs {e on the connection thread} with a chunk writer: each
    call emits one chunk frame immediately (empty strings are skipped —
    an empty chunk would terminate the stream); when the producer
    returns, the terminal zero chunk is written and the connection
    closes (streamed responses are never kept alive). If the peer
    disconnects mid-stream, the next write raises ([SIGPIPE] is
    ignored, so it surfaces as [EPIPE]) and aborts the producer — a
    producer holding locks or counters must release them with
    [Fun.protect]. Producer exceptions propagate: the connection is
    dropped without the terminal chunk, which clients see as a
    truncated (invalid) chunked body, not a complete response. *)

type t

val create :
  ?addr:string ->
  ?backlog:int ->
  ?max_header_bytes:int ->
  ?max_body_bytes:int ->
  ?idle_timeout_s:float ->
  ?unix_path:string ->
  port:int ->
  (request -> response) ->
  t
(** Binds, listens and starts the first accepting thread immediately. [port 0]
    binds an ephemeral port — read it back with {!port}. [addr] defaults to
    "127.0.0.1". With [unix_path] the listener is a {e Unix-domain} socket
    at that path instead of TCP ([addr]/[port] are ignored, {!port}
    reports [port] as given): the seam the sharded router's workers listen
    on. A stale socket file is unlinked before binding, and the path is
    removed again by {!wait} once every server thread has exited. Everything
    else — request parsing, keep-alive, chunked streaming — behaves
    identically over both transports. Oversized headers/bodies get
    [431]/[413]; a connection idle longer than [idle_timeout_s] (default
    30 s) is closed. [SIGPIPE] is ignored process-wide so writes to dead
    peers fail as exceptions. *)

val port : t -> int

val stop : t -> unit
(** Clean shutdown: stop accepting, let every connection finish the
    request it is serving, then close. Idempotent, signal-safe enough to be
    called from a signal handler. *)

val wait : t -> unit
(** Block until every server thread has left [accept] and every
    connection is done, then close the listener (and unlink a
    [unix_path]). ({!stop} from another thread — or a signal — unblocks
    it.) *)

val handle_signals : t -> unit
(** Install SIGINT/SIGTERM handlers that {!stop} this server. *)
