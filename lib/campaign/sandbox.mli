(** Process-isolated point execution: the glue between {!Runner} and
    {!Dramstress_util.Procpool}.

    The sandboxed service daemon never simulates a point in its own
    process. Each point travels to a pool worker as an opaque task
    string — the manifest text, the point's index in the deterministic
    {!Plan.points} order, and the chain's warm-start hints — and comes
    back as the encoded {!Plan.result}. The worker runs
    {!Runner.simulate_point}, the same function the in-process path
    uses, so sandboxed and local results cannot diverge.

    Trade-off (documented, deliberate): workers get no store — the
    [?store] of {!Runner.simulate_point} is left out — so the
    intra-point probe memos that soften a mid-point kill in local runs
    are lost in sandbox mode. Results are unaffected —
    the memos only skip re-simulation — and the whole-point record is
    still written by the parent the moment the result lands.

    Deterministic fault injection: when [DRAMSTRESS_WORKER_KILL] is set
    to ["substr:count"], a worker handed a point whose rendered
    description contains [substr] SIGKILLs itself — but only while the
    task's [attempt] number is below [count], so ["low-vdd:2"] kills
    the first two workers that pick the point up and lets the third
    succeed, while a huge count makes the point poison. *)

(** [encode_task ~manifest_text ~index ~hint] renders one task frame. *)
val encode_task : manifest_text:string -> index:int -> hint:float list -> string

(** [decode_task s] is [(manifest_text, index, hint)] — inverse of
    {!encode_task}. *)
val decode_task : string -> (string * int * float list, string) result

(** The {!Dramstress_util.Procpool} worker function: decodes the task,
    simulates the point (with the kill hook above) and returns the
    encoded result. Runs in the forked child; the parsed manifest is
    cached across tasks keyed on its text. *)
val worker : attempt:int -> string -> string

(** [executor pool ~manifest_text m] adapts the pool into
    {!Runner.run}'s [?executor] hook for one submission. A
    [`Worker_error] (the point raised inside the worker) re-raises as
    [Failure msg]; a [`Worker_lost] quarantine (counted on
    [util.procpool.tasks_lost]) raises
    {!Dramstress_util.Procpool.Worker_lost} — both become the point's
    [Failed] outcome in the runner. *)
val executor :
  Dramstress_util.Procpool.t ->
  manifest_text:string ->
  Manifest.t ->
  hint:float list ->
  Plan.point ->
  Plan.result
