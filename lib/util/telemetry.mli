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

  (** [bins h] is a copy of the per-bin counts, lowest bin first. *)
  val bins : t -> int array

  (** [time_ms h f] runs [f] and observes its wall duration in
      milliseconds. While disabled [f] runs untimed — the cost is the
      usual load-and-branch. *)
  val time_ms : t -> (unit -> 'a) -> 'a
end

(** {1 Tallies}

    A probe on the engine's inner loop (a Newton iteration, an accepted
    step) would pay an atomic add, or a lock, a [log] and an allocation
    for a histogram sample, on every call while telemetry is on. A
    tally takes those calls instead: it is one run's private counter
    cells, plain ints, and lock-free histogram bins, owned by one
    domain, and the owner adds it to the registry once with {!flush}
    when the run ends. Totals, bins, [min] and [max] equal those the
    direct probes would have recorded; a histogram's [sum] may differ
    in its last bits, being added up in another order. *)

module Tally : sig
  type t

  (** [create ()] is an empty tally for the metrics registered so far
      (a metric made later takes the direct, locked path). *)
  val create : unit -> t

  (** [add t c n] adds [n] to [c]'s cell, whether or not telemetry is
      on: a plain int add. *)
  val add : t -> Counter.t -> int -> unit

  val incr : t -> Counter.t -> unit

  (** [observe_at t h a i] records the sample [a.(i)] in [t]'s bins
      for [h], by comparison against bin edges computed when [h] was
      made: no lock, no [log], and no allocation past the first sample
      of a run (the sample is read from [a], so no float is boxed to
      pass it). A no-op while disabled. *)
  val observe_at : t -> Histogram.t -> float array -> int -> unit

  (** [observe_int t h n] records the sample [float_of_int n], as
      {!observe_at}. *)
  val observe_int : t -> Histogram.t -> int -> unit

  (** [flush t] adds every cell to its counter and every histogram's
      bins to the registry's (only while telemetry is on, as the direct
      probes would), and empties [t]. *)
  val flush : t -> unit
end

(** {1 Counter deltas between processes}

    A forked worker counts into its own copy of the registry. It ships
    what it counted as deltas, and the parent adds them to its own
    registry: one counter total across the processes. *)

(** A reading of every registered counter. *)
type mark

(** [mark ()] reads every counter now. It takes no lock, so a child
    may call it right after [fork]. *)
val mark : unit -> mark

(** [deltas_since m] is every counter whose value moved since [m] was
    read, with the change, sorted by name; [m] then holds the values
    now. *)
val deltas_since : mark -> (string * int) list

(** [add_deltas ds] adds each [(name, n)] to the counter [name], made
    if this process has none (a no-op while disabled, like
    {!Counter.add}). *)
val add_deltas : (string * int) list -> unit

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
