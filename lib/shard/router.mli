(** The front router: one client-facing HTTP port, N worker processes.

    [dggt serve --shards N] runs this instead of a single in-process
    server. The router owns a {!Supervisor} (spawn / heartbeat / respawn
    / drain of N [dggt serve --unix-socket] children) and proxies every
    client request over the worker's Unix socket, choosing the worker by
    a hash of the request's key modulo N ({!slot_of}; N is fixed for the
    router's life, so there is nothing for a consistent-hash ring to
    keep in place):

    - {e stateless} requests ([/synthesize], [/rank]) hash the request's
      {e query text} ({!query_text}), so a query keeps its worker, and
      its whole-query cache entry, under any spelling of its domain, and
      one domain's load spreads over the workers;
      [/domains] and [/debug/trace] go to the first healthy worker (all
      workers answer identically). A transport failure {e before any
      response byte} is retried against the (re)spawned worker for up to
      the retry window — a worker crash under load costs latency, never
      a failed stateless request;
    - {e sticky} requests ([/session/...]) ride the placement baked into
      the session id. The router mints every session id as
      [<uid>.w<slot>e<epoch>]: the hash places the fresh [uid], and the
      suffix pins the slot and the worker epoch it was created under
      ({!Supervisor} increments the epoch on every respawn). Sticky
      requests are never retried across a replacement — the session's
      in-memory state died with the worker — and an epoch mismatch
      answers [410 Gone] so typing clients re-create, exactly like the
      single-process server's reload-stranded sessions;
    - [POST /reload] fans out to every worker and reports per-shard
      results; [GET /metrics] scrapes every worker and merges the
      expositions ({!Promerge}: [shard="<n>"] on every sample, HELP/TYPE
      deduped) plus the router's own [dggt_shard_*] families, declared
      in one {!Dggt_server.Smetrics} registry (per-worker request counts
      by status class, respawns, heartbeat failures, retries, sticky
      410s, proxy latency histogram); [GET /version]
      reports the shard topology — worker count, pids, epochs, states,
      per-worker pack digests — and flags digest mismatches between
      workers; [GET /healthz] is the router's own liveness.

    Streamed responses ([?stream=1] SSE) pass through chunk-by-chunk:
    the worker writes one SSE frame per chunk and the router re-emits
    each chunk as it arrives ({!Proxy.Stream}), so frame boundaries and
    pacing survive and nothing is buffered. *)

type params = {
  addr : string;
  port : int;                  (** 0 = ephemeral, read back with {!port} *)
  shards : int;
  exe : string;                (** worker executable (the dggt binary);
                                   workers run
                                   [exe serve --unix-socket <sock> <worker_args>] *)
  worker_args : string list;   (** extra argv for every worker (pool size,
                                   cache size, --packs, ...) *)
  store_dir : string option;   (** warm-start root: worker [i] gets
                                   [--store <dir>/shard-<i>], so each
                                   worker's spills stay its own and
                                   warm boots compose with sharding *)
  proxy_timeout_s : float;     (** per-read timeout on proxied requests *)
}

val default_params : params
(** 127.0.0.1:8080, 2 shards, [exe] unset (callers pass the dggt
    binary, usually [Sys.executable_name]), no store, proxy timeout
    30 s. *)

type t

val create : params -> t
(** Spawn the workers ({!Supervisor.start}: their sockets live in a fresh
    directory under the system temp dir, removed by {!stop}), bind the
    client port, and wait up to 60 s for the fleet's first heartbeats.
    A stateless request whose worker is down is retried for up to 20 s
    before it answers 502. Raises [Invalid_argument] on [shards <= 0]
    or an empty [exe]; when the client port cannot be bound, stops the
    workers and removes their directory, then re-raises. *)

val port : t -> int
val supervisor : t -> Supervisor.t

val slot_of : shards:int -> string -> int
(** The worker slot a placement key lands on: its hash modulo [shards].
    Deterministic across processes and runs. *)

val query_text : Dggt_server.Httpd.request -> string
(** A stateless request's placement key: its query text, read where the
    worker reads it (the URL's [query] parameter, else the JSON body's
    [query] field; [""] when there is none). *)

val stop : t -> unit
(** Drain: stop accepting, finish in-flight proxied requests, then
    {!Supervisor.stop} the workers (SIGTERM, grace, SIGKILL) and remove
    their sockets' directory. Blocks; idempotent. *)

val run : params -> unit
(** CLI entry point: install SIGINT/SIGTERM handlers (SIGTERM drains
    gracefully), spawn the workers and bind the client port as
    {!create} does, print the topology once the fleet is healthy (or
    after 60 s), serve until a signal arrives, shut the fleet down
    cleanly. A signal before the startup line also stops the fleet,
    and no startup line is printed. *)
