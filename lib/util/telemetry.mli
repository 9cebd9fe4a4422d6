(** Zero-dependency observability: counters, histograms and spans.

    The whole subsystem is built around one invariant: when telemetry is
    disabled (the default), every probe costs a single atomic load and a
    branch — a few nanoseconds — so instrumentation can live permanently
    on the engine hot path. Enabling it turns the same probes into
    atomic counter updates, mutex-guarded histogram observations and
    span events pushed to a pluggable sink.

    Metric handles are created once, at module-initialization time, via
    {!Counter.make} / {!Histogram.make}; creation registers the handle
    in a process-global registry so {!snapshot} sees every metric in the
    program regardless of which library declared it. [make] is
    idempotent per name: a second call returns the existing handle, so
    several libraries can share a metric (e.g. the sweep layers all
    observe ["core.sweep.point_ms"]).

    Everything is domain-safe: counters are atomics, histograms take a
    short per-histogram lock, sink emission is serialized by a global
    lock. Probes may fire concurrently from {!Par.parallel_map}
    workers. *)

(** {1 Global switch} *)

(** [enabled ()] gates every probe. Default [false]. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** [configure_from_env ()] applies the [DRAMSTRESS_TRACE] environment
    variable: unset / [off] / [0] / [false] / [no] leaves telemetry
    untouched; [stderr] (or [pretty]) installs the human sink; any other
    value is taken as a JSON-lines file path. A recognised setting also
    calls [set_enabled true]. Never called implicitly — front ends (the
    CLI, the bench harness) invoke it at startup so that merely linking
    the library has no side effects. *)
val configure_from_env : unit -> unit

(** {1 Counters} *)

module Counter : sig
  type t

  (** [make name] creates (or retrieves) the monotone counter [name].
      Names are dot-separated, e.g. ["engine.newton.iterations"]. *)
  val make : string -> t

  (** [incr c] adds one; a no-op costing a few ns while disabled. *)
  val incr : t -> unit

  (** [add c n] adds [n]; a no-op while disabled. *)
  val add : t -> int -> unit

  (** [value c] reads the counter (readable even while disabled). *)
  val value : t -> int

  val name : t -> string
end

(** {1 Histograms} *)

module Histogram : sig
  type t

  (** [make ~lo ~hi ~buckets name] creates (or retrieves) a histogram
      with [buckets] log-spaced bins spanning [lo, hi]; observations
      outside the range clamp to the first/last bin (exact [min]/[max]
      are tracked separately). [unit_] is a display hint ("ms", "s",
      "iters"). On retrieval of an existing name the shape arguments are
      ignored. *)
  val make : ?unit_:string -> lo:float -> hi:float -> buckets:int -> string -> t

  (** [observe h v] records one sample; a no-op while disabled. *)
  val observe : t -> float -> unit

  val count : t -> int
  val name : t -> string

  (** [time_ms h f] runs [f] and observes its wall duration in
      milliseconds. While disabled [f] runs untimed — the cost is the
      usual load-and-branch. *)
  val time_ms : t -> (unit -> 'a) -> 'a
end

(** {1 Spans and sinks} *)

(** A span attribute value. *)
type attr = Int of int | Float of float | Str of string | Bool of bool

(** A finished span, as delivered to sinks. [ts] is the start instant
    (seconds since the epoch); [dur_s] the wall duration; [domain] the
    integer id of the domain that ran the span. *)
type event = {
  name : string;
  ts : float;
  dur_s : float;
  domain : int;
  attrs : (string * attr) list;
}

module Sink : sig
  type t

  (** Drops every event. The default. *)
  val null : t

  (** Pretty one-line-per-span output on stderr. *)
  val stderr_pretty : t

  (** One JSON object per line on the given channel (not closed when
      the sink is replaced — the caller owns the channel). *)
  val jsonl : out_channel -> t

  (** Opens [path] for writing; the channel is flushed and closed when
      the sink is replaced or {!close_sink} is called. *)
  val jsonl_file : string -> t

  (** [custom emit] builds a sink from any event consumer — the
      extension point for tests and embedders; replacing it closes
      nothing. *)
  val custom : (event -> unit) -> t
end

(** [set_sink s] installs [s], closing the previously installed sink. *)
val set_sink : Sink.t -> unit

(** [close_sink ()] flushes/closes the current sink and reverts to
    {!Sink.null}. *)
val close_sink : unit -> unit

(** [with_span name ?attrs f] times [f] and emits one event to the
    current sink. When telemetry is disabled or the sink is null the
    cost is one load and a branch, and [attrs] is never evaluated.
    Exceptions propagate after an event with [("error", Str _)] has
    been emitted. *)
val with_span : ?attrs:(unit -> (string * attr) list) -> string -> (unit -> 'a) -> 'a

(** {1 Snapshots and export} *)

type hist_summary = {
  h_unit : string;
  h_count : int;
  h_sum : float;
  h_min : float;   (** 0 when empty *)
  h_max : float;
  h_mean : float;
  h_p50 : float;   (** bucket-resolution estimates *)
  h_p90 : float;
  h_p99 : float;
}

type snapshot = {
  counters : (string * int) list;          (** sorted by name *)
  histograms : (string * hist_summary) list;
}

(** [snapshot ()] reads every registered metric. Counters are included
    even at zero, so consumers see a stable schema. *)
val snapshot : unit -> snapshot

(** [reset ()] zeroes every registered counter and histogram. *)
val reset : unit -> unit

(** [render_table snap] is an aligned human-readable table. *)
val render_table : snapshot -> string

(** [to_json ?extra snap] is one JSON object with ["counters"] and
    ["histograms"] fields; [extra] appends raw pre-rendered
    [(key, json)] fields at the top level. *)
val to_json : ?extra:(string * string) list -> snapshot -> string

(** [json_escape s] is [s] as the contents of a JSON string literal —
    exposed for front ends assembling [extra] fields. *)
val json_escape : string -> string
