(** Serving observability: latency histograms, request counters, gauges,
    cache statistics — rendered in Prometheus text exposition format at
    [GET /metrics].

    All mutation goes through an internal mutex, so any worker or
    connection thread may record observations. *)

(** Fixed-bucket latency histograms (seconds). Not synchronized by itself —
    {!t} guards its histograms with its own mutex; other users (the load
    generator) bring their own locking. *)
module Hist : sig
  type t

  val create : ?bounds:float array -> unit -> t
  (** [bounds] are the inclusive bucket upper bounds, ascending; an
      implicit +Inf overflow bucket is appended. The default spans 0.5 ms
      to 30 s logarithmically — the range between an interactive cache hit
      and the paper's 20 s synthesis timeout. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val quantile : t -> float -> float
  (** [quantile t 0.99]: linear interpolation inside the target bucket;
      the overflow bucket reports the maximum observed value. 0 when
      empty. *)

  val max_value : t -> float

  val buckets : t -> (float * int) list
  (** (upper bound, cumulative count) pairs, ending with (+Inf, total). *)
end

type t

val create : unit -> t

val observe : t -> domain:string -> outcome:string -> float -> unit
(** Record one finished request: bumps the per-[(domain, outcome)] counter
    and feeds the latency histogram. Outcomes used by the server: [ok],
    [failed], [timeout], [cached], [rejected], [expired], [bad_request]. *)

val observe_stage : t -> stage:string -> float -> unit
(** Record one pipeline stage's latency for a traced request. Histograms
    are created lazily per stage name, so only stages that actually ran
    appear in the exposition. *)

val incr_inflight : t -> unit
val decr_inflight : t -> unit
val inflight : t -> int

type pool_gauges = {
  queue_depth : int;
  workers_live : int;
  worker_spawns : int;
  worker_retirements : int;
}

val set_pool_probe : t -> (unit -> pool_gauges) -> unit
(** The worker pool's gauges and counters, sampled at render time. *)

val register_cache : t -> string -> (unit -> Cache.counters) -> unit
(** Expose a cache's hit/miss/eviction counters under the given label. *)

val observe_reuse : t -> reused:int -> computed:int -> splice:bool -> unit
(** Record one incremental session revision: how many stage lookups (words +
    pairs + DGG rows) were served from session memory versus computed, and
    whether the whole pipeline suffix was spliced. *)

val set_sessions_probe : t -> (unit -> Sessions.counters) -> unit
(** The session-store gauges are sampled at render time. *)

val observe_stream : t -> candidates:int -> ttfc_s:float option -> unit
(** Record one finished streamed (SSE) request: how many candidate frames
    it wrote and the time from request start to the first one ([None]
    when the stream ended without emitting a candidate — the TTFC
    histogram only sees streams that produced one). *)

val observe_stream_replay : t -> unit
(** Record one streamed request answered from the response cache — a
    replay of the cached outcome as a single candidate frame plus the
    terminal frame, never a live chart walk. Bumps
    [dggt_stream_cache_replays_total]; replays are also ordinary streams,
    so callers pair this with {!observe_stream}. *)

val observe_autom_compile : t -> domain:string -> float -> unit
(** Record one grammar-automaton compilation for [domain]: bumps
    [dggt_autom_compiles_total{domain}] and sets
    [dggt_autom_compile_seconds{domain}] to the compile's wall time.
    Registry cache hits are {e not} recorded — the counter measures
    compilations actually paid, so a hot reload of unchanged packs leaves
    it flat. *)

val observe_store_load : t -> loaded:int -> skipped:int -> rejected:int -> unit
(** Accumulate a warm-start load's verdict (the snapshot replayed,
    skipped or rejected; all zero when there was none), fed at boot.
    Observing one is also what turns the [dggt_store_*] section on — a
    server running without [--store] exports none of it. *)

val observe_store_spill : t -> float -> unit
(** Record one spill: bumps [dggt_store_spills_total] and sets
    [dggt_store_spill_seconds] to the spill's wall time. *)

val render : t -> string
(** Prometheus text format: [dggt_requests_total{domain,outcome}],
    [dggt_request_latency_seconds] histogram (+ p50/p90/p99 convenience
    gauges), [dggt_stage_latency_seconds{stage}] per-pipeline-stage
    histograms (+ per-stage p50/p90/p99 gauges, sorted by stage name),
    [dggt_queue_depth], the pool's [dggt_pool_workers_live] and
    [dggt_pool_worker_{spawns,retirements}_total], the process's
    [dggt_gc_{minor,major}_collections_total], [dggt_inflight_requests],
    per-cache
    [dggt_cache_{hits,misses,evictions}_total] / [dggt_cache_entries],
    session-store gauges ([dggt_sessions],
    [dggt_sessions_{created,expired,evicted}_total]), automaton counters
    ([dggt_autom_compiles_total{domain}],
    [dggt_autom_compile_seconds{domain}]), warm-start store counters
    once a store load was observed
    ([dggt_store_records_{loaded,skipped,rejected}_total],
    [dggt_store_spills_total], [dggt_store_spill_seconds]), streaming counters
    once a stream has been served ([dggt_streams_total],
    [dggt_stream_candidates_total], [dggt_stream_cache_replays_total],
    [dggt_stream_ttfc_seconds]
    histogram) and incremental-reuse counters ([dggt_inc_queries_total],
    [dggt_inc_splices_total], [dggt_inc_reuse_ratio]). *)
