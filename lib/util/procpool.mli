(** Supervised pool of forked worker {e processes}.

    Where {!Par} fans work out over domains {e inside} the current
    process, a [Procpool] puts each unit of work behind a process
    boundary: a worker that segfaults, gets OOM-killed, or wedges takes
    down nothing but itself. The parent supervises the pool — it
    restarts crashed workers with jittered exponential backoff,
    re-dispatches the orphaned task to a fresh worker, and after
    [max_task_deaths] consecutive worker deaths on the {e same} task
    gives up on that task alone ([`Worker_lost]), never on the pool.

    Tasks and results are opaque strings exchanged over pipes in
    length-prefixed frames; the [worker] callback runs in the forked
    child and must be self-contained (it sees a copy-on-write snapshot
    of the parent at {!create} / restart time, plus the task bytes).

    Fork discipline: OCaml refuses [Unix.fork] once any domain has ever
    been spawned, so a pool must be created — and will only ever
    restart workers — in a process that does all its parallelism
    through the pool itself (or through threads). The campaign service
    daemon is exactly that shape.

    Counters: [util.procpool.tasks], [util.procpool.worker_deaths],
    [util.procpool.worker_restarts], [util.procpool.tasks_lost].

    A worker's own counters reach the parent: every reply carries the
    deltas of the worker's telemetry counters since its previous reply
    (since the fork, for the first), and {!exec} adds them to the
    parent's registry, so a counter read in the parent totals the work
    of every worker. The fork-time values are the baseline, so nothing
    the parent counted before forking is counted twice. What a worker
    counted on a task it died on (killed, crashed, or a torn reply) is
    lost with it. Histograms and spans stay in the worker. *)

type t

(** The typed quarantine error: a task killed [n] consecutive workers
    and was given up on. {!exec} reports it as [`Worker_lost n]; this
    exception is provided (with a registered printer) for callers that
    surface the loss through an exception-shaped failure path. *)
exception Worker_lost of int

(** [create ~workers ~worker ()] forks [workers] child processes, each
    running a serve loop around [worker], and starts the supervisor
    thread. [SIGPIPE] is set to ignore (a dead worker must surface as
    [EPIPE]/EOF, not a fatal signal).

    - [worker ~attempt payload] runs {e in the child}; [attempt] is the
      number of workers this task has already killed (0 on first
      dispatch), so deterministic fault injection can target a retry.
      An exception escaping [worker] is caught in the child and
      reported as [`Worker_error] — only process death trips the
      supervision machinery.
    - [max_task_deaths] is K: a task whose worker dies K times is
      quarantined as [`Worker_lost K] (default 3).
    - [backoff] is [(base, cap)] seconds for worker restarts: after [d]
      consecutive deaths a slot restarts in
      [min cap (base * 2^(d-1))] scaled by a uniform jitter in
      [0.5, 1.5) (default [(0.1, 5.0)]).
    - [task_timeout] — the heartbeat: a worker busy on one task longer
      than this is SIGKILLed by the supervisor and the death counts
      like any crash (default: no limit; per-point wall-clock budgets
      inside the worker are the first line of defence).

    Each replacement worker forked counts on
    [util.procpool.worker_restarts]. *)
val create :
  ?max_task_deaths:int ->
  ?backoff:float * float ->
  ?task_timeout:float ->
  workers:int ->
  worker:(attempt:int -> string -> string) ->
  unit ->
  t

(** [size t] is the number of worker slots. *)
val size : t -> int

(** [exec t task] dispatches [task] to an idle worker (blocking while
    all are busy) and returns its result. Thread-safe: any number of
    threads may [exec] concurrently; each bounded by the pool width.

    - [`Worker_error msg] — the worker ran the task and it raised;
      [msg] is the printed exception. The worker survives.
    - [`Worker_lost k] — [k] consecutive workers died executing this
      task; the task is quarantined, the pool lives on. *)
val exec :
  t -> string -> (string, [ `Worker_lost of int | `Worker_error of string ]) result

(** {1 Wire codec}

    Each task travels as one frame ({!Frame}) holding the attempt
    number and the payload; each reply as one frame holding the
    verdict, the counter deltas and the body. Exposed for tests. *)

type reply = {
  ok : bool;  (** the worker function returned (it did not raise) *)
  deltas : (string * int) list;  (** counter name, change *)
  body : string;  (** the result, or the printed exception *)
}

val encode_reply : reply -> string

(** [decode_reply frame] is the reply [frame] holds, or [`Malformed]
    naming what is wrong with it; it never raises. *)
val decode_reply : string -> (reply, [ `Malformed of string ]) result

(** [shutdown t] closes every worker's task pipe (an idle worker exits
    on EOF; a busy worker finishes its task first), reaps them all and
    stops the supervisor. Further {!exec} calls return [`Worker_error]. *)
val shutdown : t -> unit
