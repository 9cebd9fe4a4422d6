(** Campaign execution: plan against the store, simulate only what is
    missing, record everything.

    The contract that makes campaigns resumable:

    - a point whose success record exists is {e never} recomputed — it
      is counted as reused and its stored payload is returned;
    - a point that previously {e failed} is retried: failures live in a
      separate key namespace ([campaign.fail|...]) that success lookups
      never consult, and are overwritten in place on each new attempt;
    - success records are written from inside the worker domains as
      points finish, so a killed run keeps everything completed so far —
      and the store itself is threaded into every border search, so even a half-finished point resumes from its finished
      searches (under an adaptive window that includes per-probe and
      per-edge records, so a kill mid-refinement re-simulates only the
      unfinished brackets).

    {2 Active planning}

    The runner is an {e active} planner over the manifest cross
    product. Points sharing a (defect, placement, detection) cell form
    one {e chain} through the manifest's stress settings, walked in
    declaration order; each completed point's border estimates seed the
    next point's search ([?hint] on {!Dramstress_core.Border.search}),
    which under [(strategy adaptive)] warm-starts the bracket around
    the adjacent stress setting's border. Hints only {e add} probes —
    they never narrow the scan — so a wrong hint costs a few extra
    samples, never correctness; a failed point resets its chain's hint.
    Chains are independent and fan out over worker domains; under
    [(strategy grid)] the chain walk degenerates to the old
    point-parallel behaviour (hints are ignored), only the scheduling
    order differs. Points whose BR is already bounded by a stored
    record are skipped before any scheduling happens and still feed
    their stored estimates into the chain.

    Counters: [campaign.points_planned], [campaign.points_reused],
    [campaign.points_simulated], [campaign.points_failed]. A warm rerun
    of an unchanged campaign reports [points_simulated = 0]. *)

type state =
  [ `Done of Plan.result  (** success record present *)
  | `Failed of string  (** only a failure record present *)
  | `Missing  (** never attempted (or store was discarded) *) ]

(** [state ~store p] classifies one point against the store without
    simulating anything. *)
val state : store:Dramstress_util.Store.t -> Plan.point -> state

(** [states ~store m] is {!state} over the whole plan, in plan order. *)
val states :
  store:Dramstress_util.Store.t ->
  Manifest.t ->
  (Plan.point * state) list

type summary = {
  planned : int;
  reused : int;  (** points answered from the store *)
  simulated : int;  (** points computed this run (successfully) *)
  deduped : int;
      (** points answered by a concurrent submission through the
          in-flight {!gate} (or found in the store after
          classification) — nobody simulated them twice *)
  results : (Plan.point * Plan.result) list;
      (** every finished point — reused and fresh — in plan order *)
  failures : Plan.point Dramstress_util.Outcome.failure list;
      (** points that failed even after the retry policy; recorded in
          the store's failure namespace and retried on the next run *)
}

(** In-flight deduplication hook for multi-client execution (the
    campaign service). Before simulating a missing point the runner
    [claim]s the point's descriptor:

    - [`Run] — this runner owns the point; it {e must} [publish] the
      outcome under the same descriptor when done (success {e or}
      failure — an unpublished claim hangs every waiter forever);
    - [`Wait w] — another submission owns it; [w ()] blocks until that
      owner publishes and returns its outcome.

    Both closures are called from worker domains, so a gate
    implementation must be domain-safe. With a gate installed the
    runner also re-checks the store immediately before simulating a
    claimed point, catching results that landed after its
    classification pass; both paths count as [deduped]. *)
type gate = {
  claim : string -> [ `Run | `Wait of unit -> (Plan.result, string) result ];
  publish : string -> (Plan.result, string) result -> unit;
}

(** What happened to one point, streamed to [?on_point] the moment it
    is known (from whichever worker domain resolved the point — the
    callback must be domain-safe and should be quick). *)
type event =
  [ `Reused of Plan.result
  | `Simulated of Plan.result
  | `Deduped of Plan.result
  | `Failed of string ]

(** [simulate_point ?store ?hint m p] is the pure simulation of one
    plan point — the border search (or best-detection scan) with no
    store access beyond the memos it reads and writes through [store]
    (sandbox workers pass none). This is
    the unit of work the sandboxed service ships to a
    {!Dramstress_util.Procpool} worker; in-process execution goes
    through exactly the same function, so the two paths cannot diverge.
    [hint] seeds the adaptive search as in {!run}'s warm-start chains
    (default none). *)
val simulate_point :
  ?store:Dramstress_util.Store.t ->
  ?hint:float list ->
  Manifest.t ->
  Plan.point ->
  Plan.result

(** [run ?jobs ?gate ?on_point ?executor ~store m] executes the
    campaign: expands the plan, reuses stored successes, simulates the
    rest as warm-start chains fanned out over the config's domain count
    ([?jobs] overrides). Solver failures become [failures], not
    exceptions — per-point fault isolation matches
    {!Dramstress_util.Par.parallel_map_outcomes}, chaos injection
    included. [?gate] deduplicates in-flight points across concurrent
    submissions; [?on_point] streams per-point events as they land.

    [?executor] replaces the in-process {!simulate_point} call with an
    external execution hook (the sandboxed worker-pool path): it
    receives the chain's current warm-start hints and the point, and
    must return the point's result or raise — a raise (including
    {!Dramstress_util.Procpool.Worker_lost} for a quarantined poison
    point) becomes that point's [Failed] outcome like any solver error.
    Classification, gating, store writes and failure records stay in
    this process either way.

    The chains fan out over domains, or over systhreads when an
    [?executor] is given: the sandboxed daemon must remain fork-capable,
    and its chains spend their time blocked on pool pipes, not in OCaml
    code. *)
val run :
  ?jobs:int ->
  ?gate:gate ->
  ?on_point:(Plan.point -> event -> unit) ->
  ?executor:(hint:float list -> Plan.point -> Plan.result) ->
  store:Dramstress_util.Store.t ->
  Manifest.t ->
  summary

val pp_summary : Format.formatter -> summary -> unit
