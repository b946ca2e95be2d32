(** A registry of metric families, rendered in the Prometheus text
    exposition format at [GET /metrics].

    A family is declared once, with its name, its help text and its label
    names (a name declared twice raises [Invalid_argument]); the server
    ([Serve.create]) and the shard router each declare theirs in one
    block, and the series list lives in those declarations. Four kinds:

    - a {e counter} adds, a {e gauge} is set, a {e histogram} observes
      (seconds, {!Hist}'s default buckets); a family with no labels
      exports its one sample from the declaration on, a labelled one a
      sample per label tuple recorded so far;
    - a {e sampled} family (counter or gauge) holds nothing: a closure
      gives its rows at render time — cache counters, pool gauges, GC
      counts, the session store, the shard supervisor's slots.

    Recording goes through {!record}, which takes the registry's one
    mutex once for a whole list of updates, so any worker or connection
    thread may record. *)

(** Fixed-bucket latency histograms (seconds). Not synchronized by itself —
    a registry guards its histograms with its own mutex; other users (the
    load generator) bring their own locking. *)
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

type counter
type gauge
type histogram

val counter : t -> ?labels:string list -> string -> help:string -> counter
val gauge : t -> ?labels:string list -> string -> help:string -> gauge

val histogram : t -> ?labels:string list -> string -> help:string -> histogram
(** Renders its buckets, sum and count, then three gauge families named
    after it with [_seconds] replaced by [_p50], [_p90] and [_p99]
    ({!Hist.quantile}, per label tuple). *)

val sampled :
  t ->
  ?labels:string list ->
  [ `Counter | `Gauge ] ->
  string ->
  help:string ->
  (unit -> (string list * float) list) ->
  unit
(** Rows (label values, value) read from the closure at each render,
    outside the registry's mutex, in the closure's order; a closure that
    raises exports no rows. *)

type op

val inc : ?by:float -> counter -> string list -> op
(** Add [by] (default 1) to the sample with these label values. *)

val set : gauge -> string list -> float -> op
val observe : histogram -> string list -> float -> op

val record : t -> op list -> unit
(** Apply the updates under one acquisition of the registry's mutex.
    An update whose label values do not match its family's label names
    raises [Invalid_argument] when it is built. *)

val render : t -> string
(** Every family, sorted by name: [# HELP] and [# TYPE] once, then its
    samples, stored label tuples sorted. Integral values print without a
    fraction, [+Inf] as Prometheus spells it. *)
