(** Memory-operation sequencing and electrical execution.

    An operation sequence ([w0 w1 r ...], the paper's notation) is turned
    into control waveforms for the {!Column} model, simulated in one
    transient run, and interpreted: cell voltage after every cycle and
    the sensed logical bit for every read.

    Logical values are mapped to physical storage voltages according to
    the defect's placement: on the complementary bit line a logical 1 is
    stored as a low voltage, so detection conditions translate with 0s
    and 1s interchanged while the physical behaviour is identical — the
    paper's Table 1 observation. *)

(** Raised by {!run} when a transient solver failure survived every
    stage of the configured retry/degradation policy
    ({!Sim_config.retry_policy}): [error] is the last solver exception,
    [attempts] how many degraded retries ran, [stages] their labels in
    order. Sweep layers convert this into a
    {!Dramstress_util.Outcome.Failed} slot rather than letting it abort
    the campaign. With {!Sim_config.no_retry}, the original solver
    exception propagates unchanged instead. *)
exception
  Exhausted_retries of { error : exn; attempts : int; stages : string list }

(** [retries_of e] is the retry count to attach to a [Failed] outcome
    for exception [e]: the [attempts] of {!Exhausted_retries}, [0] for
    anything else. Designed to be passed as [?retries_of] to
    {!Dramstress_util.Par.parallel_map_outcomes}. *)
val retries_of : exn -> int

(** [is_solver_failure e] holds for the errors that say a point could
    not be simulated, not that the program is wrong: the solver
    failures the retry ladder walks on ([Transient.Step_failed],
    [Newton.No_convergence], the [Newton.Numerical_health] guards) and
    {!Exhausted_retries}. [Newton.Timeout] is not one: a deadline says
    nothing about the point. Sweep layers turn these into a failed
    sample or cell and let anything else propagate. *)
val is_solver_failure : exn -> bool

type op =
  | W0            (** write logical 0 *)
  | W1            (** write logical 1 *)
  | R             (** read (destructive, with sense-amp restore) *)
  | Pause of float  (** idle retention time, s *)
  | Ham of int
    (** [n] aggressor activations: full precharge/sense cycles whose
        word-line pulse lands on the neighbour row ([wl_nb]) instead of
        the accessed one — the read-disturb hammer *)

val pp_op : Format.formatter -> op -> unit

(** [parse_seq s] parses a compact sequence such as ["w1 w1 w0 r"] or
    ["w1,w1,w0,r"]; pauses are written ["p1e-3"], hammer bursts ["ham"]
    or ["ham5"]. Raises [Invalid_argument] on junk. *)
val parse_seq : string -> op list

(** [effective_ops ~stress ops] is the sequence actually simulated: when
    the stress carries a retention wait and/or a hammer count, a
    [Pause]/[Ham] pair is inserted immediately before the first [R], so
    every detection condition crosses with those stress axes without
    being rewritten. Neutral stresses return [ops] unchanged; so do
    read-free sequences. [run]/[run_batch] apply this internally — it is
    exposed for layers that need to display or account the effective
    sequence. *)
val effective_ops : stress:Stress.t -> op list -> op list

(** [seq_to_string ops] is the inverse of {!parse_seq}. *)
val seq_to_string : op list -> string

type op_result = {
  op : op;
  t_start : float;
  t_end : float;
  vc_end : float;     (** storage-capacitor voltage at the cycle end *)
  sensed : int option;  (** logical bit for [R]; [None] otherwise *)
  separation : float option;
    (** |V_bl - V_blb| at the decision instant for [R]: small values mean
        the latch failed to regenerate (a metastable output a tester's
        VOH/VOL strobes would reject) *)
}

type outcome = {
  results : op_result list;
  trace : Dramstress_engine.Transient.result;
  built : Column.built;
  phases : Timing.t;  (** instants of one standard cycle *)
}

(** [vc_curve outcome] is the full V_c(t) waveform. *)
val vc_curve : outcome -> Dramstress_util.Interp.t

(** [sensed_bits outcome] lists the logical read results in order. *)
val sensed_bits : outcome -> int list

(** {2 Transient memo cache}

    [run] memoizes outcomes in a bounded LRU keyed by the full simulation
    key — technology, stress, solver options, step resolution,
    defect, initial voltages and the operation sequence. The sweep layers
    (planes, shmoo, Table 1) repeat identical sequences constantly, so
    the cache removes most transient runs.

    Caches are explicit handles ({!Cache.t}); {!run} uses
    {!Cache.default} unless told otherwise, so independent experiments
    can isolate their statistics (and memory) by passing their own
    handle. A handle is shared across domains and guarded internally by
    a mutex; cached outcomes are immutable.

    Caching is on by default; {!Cache.set_enabled} (or
    [Cache.create ~enabled:false]) turns it off for one handle.

    When {!Dramstress_util.Telemetry} is enabled, requests, hits, misses
    and evictions also feed the [dram.ops.requests] /
    [dram.ops.cache_hits] / [dram.ops.cache_misses] /
    [dram.ops.cache_evictions] counters, and every cache miss runs its
    electrical simulation inside an [ops.run] span. *)

module Cache : sig
  type t
  (** A memo-cache handle: bounded LRU storage plus its hit/miss ledger
      and enable flag. *)

  (** Point-in-time statistics ({!stats}), counted per lane request
      routed through this handle since creation, the last {!resize} or
      {!reset_stats}. Every request is a hit or a miss, so [requests] is
      always [hits + misses]; with caching disabled every request is a
      miss. [misses] is the paper's simulation-cost metric. *)
  type stats = {
    requests : int;   (** run requests, cached or not: [hits + misses] *)
    hits : int;       (** requests served from the cache *)
    misses : int;     (** requests that ran an electrical simulation *)
    evictions : int;  (** entries dropped by capacity pressure *)
    entries : int;    (** outcomes currently held *)
    capacity : int;   (** maximum entries before LRU eviction *)
  }

  (** [create ?enabled ()] makes an independent cache of capacity 512,
      caching unless [enabled] is [false]. *)
  val create : ?enabled:bool -> unit -> t

  (** The process-wide cache used by {!Ops.run} when no handle is
      passed. *)
  val default : t

  val set_enabled : t -> bool -> unit
  val is_enabled : t -> bool

  (** [resize t n] replaces the storage with an empty LRU holding at
      most [n] outcomes. Statistics reset. *)
  val resize : t -> int -> unit

  (** [clear t] drops every cached outcome (statistics kept). *)
  val clear : t -> unit

  val stats : t -> stats

  (** [reset_stats t] zeroes the statistics without touching the stored
      outcomes. *)
  val reset_stats : t -> unit
end

(** [clear_cache ()] is [Cache.clear Cache.default]. *)
val clear_cache : unit -> unit

(** [simulations ()] is the [misses] of [Cache.stats Cache.default] —
    the number of requests that actually reached the electrical solver
    (ensemble lanes; cached replays excluded), with caching on or off.
    This is the cost metric the adaptive campaign planner minimises,
    named so call sites read as what they measure; callers take
    deltas. *)
val simulations : unit -> int

(** [run ?defect ?vc_init ?v_neighbour ?config ?cache ~stress ops]
    executes the sequence: a one-lane
    {!run_batch}, whose lane error it raises.

    - [vc_init] (default [0.0]): initial storage voltage, V — the paper's
      floating-cell initialisation.
    - [v_neighbour] (default: derived from [stress.pattern] — all-1
      pins it to the supply, the historical behaviour): initial
      neighbour-cell voltage (bridge aggressor / data background).
    - [config] (default {!Sim_config.default}) bundles technology,
      solver options, step resolution, retry policy and deadline
      ({!Sim_config.t}).
    - [cache] (default {!Cache.default}) selects the memo cache.
    - The solver temperature is always taken from [stress]
      ({!Stress.temp_kelvin}), overriding any [sim] temperature.

    On [Transient.Step_failed] / [Newton.No_convergence] /
    [Newton.Numerical_health] the config's retry policy is
    walked: each stage piles a further concession onto the previous
    ones (halved dt scale, multiplied steps-per-cycle, damped Newton)
    and the simulation is retried. A stage that converges returns its
    outcome — cached under the original request key, so repeats skip
    the failure ladder; a ladder that runs dry raises
    {!Exhausted_retries}. Retry activity feeds the
    [dram.ops.retry_attempts] / [dram.ops.degraded_runs] /
    [dram.ops.failed_runs] counters and the
    [dram.ops.retry_success_stage] histogram.

    A [config.deadline] wall-clock budget is pinned to an absolute
    instant when the request starts and covers the base attempt plus
    every retry stage. Past it the run raises [Newton.Timeout] — which
    is deliberately NOT retried (every ladder stage only costs more
    wall time) and is counted in [dram.ops.deadline_exceeded]; sweep
    layers surface it as a [Failed] outcome slot while the rest of the
    campaign proceeds. *)
val run :
  ?defect:Dramstress_defect.Defect.t ->
  ?vc_init:float ->
  ?v_neighbour:float ->
  ?config:Sim_config.t ->
  ?cache:Cache.t ->
  stress:Stress.t ->
  op list ->
  outcome

(** {2 Batched execution}

    Sweep layers evaluating one operation sequence at many operating
    points (a resistance decade sweep, a batched bisection round) hand
    the whole set to {!run_batch} as {e lanes}: one circuit topology,
    one shared time grid, N simultaneous integrations
    ({!Dramstress_engine.Ensemble}). *)

(** One batched operating point: the defect instance this lane simulates
    (kind and placement must match across the batch — only [r] may
    differ; [None] for a defect-free lane, all-[None] batches allowed)
    and its initial storage voltage. *)
type lane = {
  defect : Dramstress_defect.Defect.t option;
  vc_init : float;
}

(** [run_batch ?v_neighbour ?config ?cache ~stress ~lanes ops] is the
    batched [run], one result slot per lane in lane order, and the one
    place that decides how lanes are batched.

    Each lane has its own cache key (a lane of any batch and a {!run}
    call are interchangeable in the cache) and its own hit-or-miss
    tick. The misses are cut, in order, into ensembles of
    {!Sim_config.resolve_lanes} lanes (one each under a wall-clock
    [deadline], which is a per-point budget), which fan out over
    {!Sim_config.resolve_jobs} domains. Every lane with a defect
    carries its resistance as the same resistor override, so its bits
    do not depend on the width, the batch mates or cache history.

    A lane that fails inside a multi-lane ensemble is retried alone,
    base attempt plus retry ladder, counted on
    [dram.ops.lane_fallbacks]: a deterministic failure repeats alone,
    so the solo base attempt only helps a fault that does not repeat,
    such as an injected one; the ladder may rescue the rest. It
    surfaces as [Error] (typically
    {!Exhausted_retries}) only if that fails too, without disturbing
    its batch mates; a one-lane ensemble gets that treatment from the
    start. A raise from a whole ensemble becomes an [Error] per lane.

    An empty [lanes] gives []. Raises [Invalid_argument] for an empty
    [ops] list, for lanes mixing defect kinds/placements, or for a
    [config] that {!Sim_config.validate} rejects. *)
val run_batch :
  ?v_neighbour:float ->
  ?config:Sim_config.t ->
  ?cache:Cache.t ->
  stress:Stress.t ->
  lanes:lane list ->
  op list ->
  (outcome, exn) result list
