(** Parallel sweeps over OCaml 5 domains — no external dependencies.

    [f] runs concurrently in up to [jobs] domains, so it must be
    domain-safe: pure computations, or computations whose shared state
    is synchronized (the {!Dramstress_dram.Ops} memo cache is
    mutex-guarded for exactly this reason).

    When {!Telemetry} is enabled, every sweep contributes to the
    [util.par.sweeps] / [util.par.tasks] / [util.par.domains_spawned]
    counters and the [util.par.worker_idle_ms] /
    [util.par.tasks_per_worker] histograms. *)

(** [resolve_jobs ?jobs ()] is the single domain-count resolution point
    used by every sweep layer. Precedence:

    + the explicit [jobs] argument (clamped to at least 1),
    + the [DRAMSTRESS_JOBS] environment variable when it parses as a
      positive integer,
    + [Domain.recommended_domain_count ()].

    A resolved value of [1] disables parallelism everywhere it is used. *)
val resolve_jobs : ?jobs:int -> unit -> int

(** [clamp_count ?explicit ~env ~default ()] is the clamping/validation
    helper behind {!resolve_jobs} and {!resolve_lanes}: an [explicit]
    value is clamped to at least 1; otherwise the [env] environment
    variable is consulted and anything that does not parse as a positive
    integer (junk text, [0], negatives) degrades to [default ()] —
    itself always at least 1 — with a once-per-variable warning on
    stderr. An unset or empty variable is not junk: it takes the
    default silently. *)
val clamp_count :
  ?explicit:int -> env:string -> default:(unit -> int) -> unit -> int

(** [env_warnings ()] lists the [(variable, rejected value)] pairs that
    have been warned about so far, oldest first — the test hook for the
    once-per-variable stderr warning. *)
val env_warnings : unit -> (string * string) list

(** [reset_env_warnings ()] clears the warned-set and the log, so tests
    can observe the warning again. *)
val reset_env_warnings : unit -> unit

(** [resolve_lanes ?lanes ()] resolves the ensemble batch width with the
    same precedence and degradation rules as {!resolve_jobs}:

    + the explicit [lanes] argument (clamped to at least 1),
    + the [DRAMSTRESS_LANES] environment variable when it parses as a
      positive integer,
    + {!default_lanes}.

    A resolved value of [1] runs every point as its own one-lane
    ensemble. *)
val resolve_lanes : ?lanes:int -> unit -> int

(** The default ensemble batch width ([16]) when neither an explicit
    lane count nor [DRAMSTRESS_LANES] is given. *)
val default_lanes : int

(** [chunks ~size xs] splits [xs] into consecutive runs of at most
    [size] elements, preserving order ([List.concat (chunks ~size xs) =
    xs]). The one batcher, {!Dramstress_dram.Ops.run_batch}, uses it
    to cut a sweep's lanes into ensemble-width chunks before fanning the
    chunks out over domains. Raises
    [Invalid_argument] when [size < 1]. *)
val chunks : size:int -> 'a list -> 'a list list

(** [parallel_map ?jobs f xs] maps [f] over [xs] using up to [jobs]
    domains (default {!resolve_jobs}); items are self-scheduled one at a
    time so uneven per-item costs balance. The result order matches the
    input order exactly, as with [List.map]. With [jobs = 1] (or on a
    single-core machine, or lists shorter than 2) this degrades to
    sequential [List.map] with no domain spawned.

    If [f] raises, the first exception is re-raised in the caller after
    all domains have drained; remaining unstarted items are skipped. The
    original backtrace is captured in the worker domain and restored on
    re-raise ([Printexc.raise_with_backtrace]), so [OCAMLRUNPARAM=b]
    shows where the failure actually originated. *)
val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [concurrent_map ?jobs f xs] is {!parallel_map} fanned out over
    {e systhreads} instead of domains: same self-scheduling cursor, same
    order guarantee, same first-failure semantics (backtrace preserved).

    Threads share one runtime lock, so this buys nothing for CPU-bound
    OCaml code — it exists for work that {e blocks outside the runtime}
    (waiting on a {!Procpool} worker over a pipe, socket I/O). Crucially
    it spawns no domain, so a process that must stay fork-capable (the
    sandboxed service daemon) can still fan out. *)
val concurrent_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [parallel_map_outcomes ?jobs ?retries_of f xs] is the fault-tolerant
    variant: a raise from [f x] becomes [Outcome.Failed] for that slot —
    counted on [util.par.task_failures] — and every other item still
    runs. Result order matches input order. [retries_of] extracts the
    retry count recorded in the failure from the exception (e.g.
    {!Dramstress_dram.Ops.retries_of} for simulator errors that already
    went through the degradation policy); it defaults to [fun _ -> 0]. *)
val parallel_map_outcomes :
  ?jobs:int ->
  ?retries_of:(exn -> int) ->
  ('a -> 'b) ->
  'a list ->
  ('a, 'b) Outcome.t list
