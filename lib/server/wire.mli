(** The serving layer's wire formats, in one place.

    Every JSON payload the service emits — fixed v1 response bodies and
    the SSE frames of the streaming endpoints — is rendered here, so the
    two delivery modes share one renderer per shape and cannot drift: a
    stream's terminal [event: done] frame carries byte-for-byte the JSON
    a non-streaming caller would have received as the response body.

    Conventions: integers are emitted as JSON numbers, optional values
    as [null], and object field order is fixed (tests and the bench
    byte-identity gates compare rendered strings). *)

val api_version : int
(** The [v] field of every JSON payload and response; currently [1]. *)

val stats_json : Dggt_core.Stats.t -> Jsonio.t
(** The per-request pipeline statistics object ([stats] field). *)

val ranked_json : Dggt_core.Engine.ranked list -> Jsonio.t
(** The n-best array: rank plus the tie-break quantities (size,
    coverage, score) the client would otherwise have to re-derive. *)

val outcome_json :
  domain:string ->
  engine:string ->
  query:string ->
  cached:bool ->
  alternatives:Dggt_core.Engine.ranked list ->
  Dggt_core.Engine.outcome ->
  Jsonio.t
(** The [/synthesize] response body. Protocol v1 compatibility:
    [alternatives] keeps its historical shape (a bare code-string array)
    and the richer [ranked] field appears only when an n-best was
    computed ([alternatives <> []]) — a k=1 payload is byte-identical to
    the pre-semiring one. *)

val rank_json :
  ?timed_out:bool ->
  domain:string ->
  query:string ->
  k:int ->
  cached:bool ->
  Dggt_core.Engine.ranked list ->
  Jsonio.t
(** The [/rank] response body. A run that ran out of budget
    ([timed_out], default [false]) adds ["timed_out": true] after ["ok"];
    every other body leaves the field out. *)

val reuse_json : Dggt_inc.Reuse.t -> Jsonio.t
(** The incremental-session [reuse] object (revision, splice flag,
    token/edge diff, per-stage reuse counters, overall ratio). *)

val with_fields : Jsonio.t -> (string * Jsonio.t) list -> Jsonio.t
(** Append fields to an object payload (how the session response extends
    {!outcome_json} with [session] and [reuse]); a non-object payload is
    wrapped as [{"outcome": payload, ...}]. *)

val event_json : Dggt_obs.Trace.event -> Jsonio.t
(** One trace span event ([GET /debug/trace]). *)

val error_json : string -> string
(** A rendered [{"error": msg}] body (error responses skip {!Jsonio.t}
    round-tripping at call sites). *)

(** {2 SSE framing}

    Streamed responses are [text/event-stream] over chunked transfer:
    one frame per chunk, [event: candidate] for interim revisions, then
    exactly one terminal frame — [event: done] (the full non-streaming
    payload) or [event: error] (e.g. deadline expiry mid-stream). *)

val sse_frame : event:string -> Jsonio.t -> string
(** ["event: <event>\ndata: <compact json>\n\n"]. The data is a single
    line (compact rendering), so no [data:] continuation lines are ever
    needed. *)

val candidate_json : Dggt_core.Engine.candidate -> Jsonio.t
(** One [event: candidate] payload: rank, revision, code, size,
    coverage, score. *)

val stream_error_json : status:int -> string -> Jsonio.t
(** A mid-stream failure frame. The HTTP status already went out as 200
    when the stream opened, so the real status (e.g. 504 on deadline
    expiry) travels in the frame body. *)
