(** The serving layer: engine + domains behind an HTTP API.

    Wires together {!Httpd} (connection handling), {!Deadline_pool}
    (bounded queue, worker domains), {!Cache} (whole-query and per-stage
    LRUs) and {!Smetrics} (observability). Every JSON response carries
    [{"v": 1}], the API version; it is bumped on incompatible shape
    changes.

    The query routes ([/synthesize], [/rank], [/session/<id>/query],
    plain or [?stream=1]) are one pipeline: one field reader builds the
    request, then one path does the cache probe or stream replay, the
    dispatch, the run, the trace record, the cache write and the outcome
    label. They differ only in the request they build and the body they
    render. Every run of a request is bounded by the request's
    [timeout] ([params.default_timeout_s] when absent). An absent [k]
    is 5 on [/rank] and on streams and 1 elsewhere; [k] is clamped to
    1..20. Endpoints:

    - [GET/POST /synthesize] — parameters
      [{"query": s, "domain": s?, "engine": "dggt"|"hisyn"?, "timeout": f?,
        "k": n?}] (a [GET] carries them in the URL query string, a [POST]
      in the JSON body); responds with the codelet, timing, per-stage
      statistics and (for [k > 1]) up to [k] ranked alternatives: DGGT
      answers with one ranked run, HISyn with its own run plus a DGGT
      ranked run for the alternatives. Repeat queries are served from
      the whole-query cache without touching the pool. The cache is
      keyed by the engine call (generation, domain, engine, query,
      mode), so a DGGT [/synthesize] with [k > 1] and a [/rank] of the
      same query and [k] share one entry.
    - [GET/POST /rank] — same parameter carriage,
      [{"query": s, "domain": s?, "timeout": f?, "k": n?}]; ranked
      candidate codelets (paper §VII-B.4). With [?stream=1] in the URL
      the response switches to streamed delivery: a chunked
      [text/event-stream] of [event: candidate] frames — one per
      improvement of the live n-best during the chart walk, with a
      monotone [revision] counter — terminated by exactly one
      [event: done] frame whose payload is byte-for-byte the
      non-streaming [/rank] body, or one [event: error] frame carrying
      the real status ([504] on deadline expiry mid-stream) since the
      HTTP status already went out as [200]. Streamed requests run on
      the connection thread (not the worker pool); interim frames are
      best-effort previews, only the [done] payload is authoritative.
      Streams never {e write} the response cache, but they do read it:
      when a prior non-streaming request cached the same engine call,
      the stream replays the cached outcome — one [event: candidate]
      frame (rank 1, revision 1; none for an empty list) then [event:
      done] byte-for-byte the cached body — counted by
      [dggt_stream_cache_replays_total]. [GET /version] advertises
      ["streaming"] under [capabilities].
    - [GET /domains] — the available domains with aliases, description,
      API/query counts and origin ([builtin], or [pack] with its
      directory and digest). A domain still building at boot is listed
      by name, aliases and origin only.
    - [GET /version] — the binary's build ([git describe], asked at the
      first [GET /version], or ["unknown"]), the registry generation, the
      aggregate pack digest and an [automata] array (per domain: the
      compiled automaton's digest and compile wall time; a domain still
      building shows its name only); clients poll it to observe hot
      reloads.
    - [POST /reload] — re-scan [params.packs_dir] and atomically swap the
      pack-backed domains ({!Dggt_pack.Domain_registry.load_dir}), build
      their states on the worker pool (after the boot's build, one reload
      at a time) and swap them in when that build completes, then drop
      every cache. The response reports [automata_compiled] versus
      [automata_reused]: grammar automata are cached by pack digest
      ({!Dggt_pack.Domain_registry.automaton}), so a hot reload compiles
      exactly once per pack whose bytes changed and reuses the rest
      pointer-equal. All-or-nothing: a broken pack leaves the registry,
      the domain states and the caches untouched ([500] with the
      file:line diagnostic). In-flight requests finish against the domain
      snapshot they already resolved — the swap only changes what later
      requests see — and their late cache writes are keyed under the old
      registry generation, so they can never be served against a reloaded
      domain of the same name. [400] when the server was started without
      [--packs].
    - [POST /session] — body [{"domain": s?, "engine": "dggt"|"hisyn"?,
      "id": s?}]; opens an incremental synthesis session
      ({!Dggt_inc.Session}) against the domain's current generation and
      answers [201] with its id — freshly minted, or ["id"] verbatim when
      the caller supplies one (the shard router mints ids that encode
      worker placement).
      Sessions live in a TTL + LRU store ({!Sessions}, sized by
      [params.session_ttl_s] / [params.session_cap]).
    - [POST /session/<id>/query] — [{"query": s, "timeout": f?,
      "k": n?}]; one revision of the session's query. With [?stream=1]
      the response is the same SSE stream as [/rank?stream=1] (served
      through the session's memo tables, holding the session's lock for
      the duration of the stream; the [done] frame gains a [session]
      field) — it does not advance the session's revision history. The
      response is the [/synthesize] shape plus [session] and a [reuse]
      object (revision number, splice flag, token/edge diff,
      reused-vs-computed counts per stage and the overall
      [reuse_ratio]). Revisions of one session are serialized;
      revisions run on the worker pool with the same backpressure and
      deadline handling as [/synthesize]. [410 Gone] when the session
      expired (idle past the TTL) {e or} was stranded by a [POST /reload]
      (its domain generation no longer exists — re-create the session);
      [404] for ids that were LRU-evicted, deleted or never existed.
    - [DELETE /session/<id>] — drop the session; [404] if unknown.
    - [GET /metrics] — Prometheus text format ({!Smetrics.render}) of
      the families {!create} declares in one block: request counts and
      latency, per-pipeline-stage latency (each histogram with
      p50/p90/p99 gauges), automaton compiles, the warm store's load and
      spills (only with a store), streams, incremental reuse, and,
      sampled at render time, the worker pool, the process's minor and
      major collections, in-flight requests, the caches and the session
      store.
    - [GET /healthz] — liveness plus worker/queue numbers.
    - [GET /debug/trace] — the stage-level traces of the most recent
      requests that reached the engine (a {!Dggt_obs.Ring} of
      [params.trace_buffer] entries, newest first), as JSON: one record per
      request with its span events and decision notes. Cache hits don't
      re-run the pipeline, so they don't add traces. A stream's trace
      ends with a [Stream] span noting its [candidates] and when its
      first candidate and terminal frames were written, in seconds from
      request start ([ttfc_s], absent when it sent none, and [done_s]).

    Readiness is per domain: the server listens before it builds, and a
    request waits only for the domain it names (see {!create}). The wait
    counts toward the request's deadline; a request whose deadline passes
    while it waits gets the [504] of a request that expired in the queue.

    Backpressure: when the bounded queue is full, [POST] requests get [503]
    with [Retry-After] instead of queueing unboundedly; a job whose
    deadline (arrival + timeout) passes while queued is dropped with [504]
    before it ever reaches the engine.

    Caching policy: timed-out outcomes are {e not} cached, so a repeat
    under a larger budget gets a fresh run; every other answer is (an
    empty rank list and a failed synthesis are deterministic); streams
    and session queries never write a cache. The
    WordToAPI candidate cache is installed as the [caches] field of each
    domain's {!Dggt_core.Engine.target} and shared across all requests of
    that domain; every cache key includes the registry generation, so a
    reload invalidates it wholesale. EdgeToPath path sets are no longer
    LRU-cached per pair: each domain's compiled automaton
    ({!Dggt_autom.Autom}) memoizes its table-walk searches internally,
    exposed as the [autom_memo] cache in [GET /metrics]. *)

type params = {
  addr : string;
  port : int;                (** 0 = ephemeral, read back with {!port} *)
  unix_socket : string option;
      (** listen on a Unix-domain socket at this path instead of TCP
          ([addr]/[port] are then ignored) — how sharded workers sit
          behind the {!Dggt_shard} router; [None] (the default) keeps the
          TCP listener *)
  workers : int;             (** <= 0 = one per recommended domain count *)
  queue_capacity : int;
  cache_size : int;          (** whole-query LRU entries; per-stage caches
                                 get 4x this; <= 0 disables caching *)
  default_timeout_s : float; (** per-request engine budget when the request
                                 doesn't carry one *)
  trace_buffer : int;        (** retained traces for [GET /debug/trace];
                                 <= 0 disables trace retention (stage
                                 metrics still accumulate) *)
  packs_dir : string option; (** domain-pack directory served alongside the
                                 built-ins and re-scanned by
                                 [POST /reload]; [None] = built-ins only *)
  session_ttl_s : float;     (** idle lifetime of an incremental session;
                                 accesses slide the window *)
  session_cap : int;         (** max live sessions (LRU beyond); <= 0
                                 disables the session endpoints' storage *)
  store_dir : string option;
      (** warm-start store directory, created if missing: its one
          snapshot file ({!Warmstore}) is replayed into the two caches
          before the server listens, every entry re-keyed under the new
          generation, and rewritten every [store_interval_s] and on
          graceful shutdown. [None] = no persistence. A snapshot that is
          damaged, of another schema or spilled under another pack
          digest is refused whole and the server boots cold; it never
          serves an entry that failed a check. *)
  store_interval_s : float;
      (** periodic spill interval; [<= 0] spills only on shutdown *)
}

val default_params : params
(** 127.0.0.1:8080, auto workers, queue 64, cache 512, timeout 10 s, trace
    buffer 32, no packs, sessions 64 × 300 s, no store (60 s spill
    interval once one is given). *)

type t

val create : params -> t
(** Loads [packs_dir] if given (raising [Failure] with the file:line
    diagnostic when a pack is broken — at startup, unlike [POST /reload],
    a bad pack is fatal) and the store's cached answers, spawns the pool
    and starts listening, then submits one pool job that builds every
    registry entry's state in registry order: grammar graph, document and
    compiled automaton. Each
    domain answers as soon as its own state is built. The registry's
    built-ins are private copies, so the job never forces a lazy another
    thread may be forcing. A build that raises is logged to stderr and
    ends the process with exit code 2. *)

val port : t -> int

val registry : t -> Dggt_pack.Domain_registry.t
(** The live domain registry (built-ins plus loaded packs). *)

val stop : t -> unit
(** Orderly shutdown: stop accepting, let in-flight connections finish,
    let the boot's build finish, drain the queue, join the workers.
    Blocks; idempotent. *)

val run : params -> unit
(** CLI entry point: {!create}, install SIGINT/SIGTERM handlers, print the
    listening address, serve until a signal arrives, shut down cleanly. *)
