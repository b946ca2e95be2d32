(** Stage-level tracing for the six-step pipeline.

    A {!sink} collects timed, named spans ("DependencyParse", "WordToAPI",
    ...) with arbitrary key/value notes recorded at decision granularity
    (per-word candidate APIs, per-edge path counts, [min_size] updates).
    The engine receives the sink as an option threaded through its
    configuration: [None] keeps tracing off, and every instrumentation
    point is a single [match] on that option — no timestamps are taken, no
    strings are built, so the traced-off engine behaves like the untraced
    one (the bench suite pins this; see EXPERIMENTS.md).

    A sink is single-threaded by design: each request/query builds its own
    (the server's ring buffer of {e completed} traces is the shared,
    mutex-guarded structure — see {!Ring}). *)

(** Note values. Kept as a tiny sum so renderers (the [dggt explain]
    narrative, the server's [/debug/trace] JSON) can print them natively. *)
type value = Bool of bool | Int of int | Float of float | Str of string

type span
(** An open span. Handles are only valid against the sink that created
    them, until {!finish}. *)

type event = {
  id : int;                      (** creation order — also start order *)
  parent : int option;           (** enclosing span's id *)
  stage : string;
  start_s : float;               (** seconds since the sink was created *)
  dur_s : float;
  notes : (string * value) list; (** in emission order *)
}

type t = { events : event list }
(** A completed trace, events in start order. *)

type sink

val create : ?clock:(unit -> float) -> ?max_notes:int -> unit -> sink
(** [clock] defaults to [Unix.gettimeofday] (a monotonic-enough wall clock
    for stage spans; tests inject a deterministic one). [max_notes]
    (default 1024) caps the notes of each span — decision-granularity
    instrumentation on adversarial queries must not make traces unbounded;
    a truncated span gets a final [notes_dropped] count. *)

val enter : sink -> string -> span
(** Open a span; it nests under the innermost span still open. *)

val finish : sink -> span -> unit
(** Close the span (and any of its children left open, which share its end
    time). Finishing a span that is not open is a no-op. *)

val result : sink -> t
(** Snapshot the completed trace. Spans still open are included with their
    duration measured up to now. *)

(** {2 Optional-sink conveniences}

    The engine carries [sink option]; these make the off path one pattern
    match with no allocation. *)

val span : sink option -> string -> (span option -> 'a) -> 'a
(** [span (Some s) name f] runs [f (Some sp)] inside a fresh span, closing
    it even if [f] raises (budget exhaustion propagates through traced
    stages). [span None name f] is exactly [f None]. *)

val int : span option -> string -> int -> unit
val str : span option -> string -> string -> unit
val float : span option -> string -> float -> unit
val bool : span option -> string -> bool -> unit

val on : span option -> bool
(** [true] when tracing is live — guards note construction that would
    otherwise build strings eagerly. *)

(** {2 Reading a trace} *)

val durations : t -> (string * float) list
(** Per-stage wall time: top-level (parentless) events as
    [(stage, dur_s)], in start order. This is what feeds the per-stage
    latency histograms in [/metrics]. *)

val find : t -> string -> event option
(** First event with the given stage name, at any depth. *)

val pp : Format.formatter -> t -> unit
(** The [dggt explain] narrative: a numbered, indented stage-by-stage
    rendering with durations and notes. *)
