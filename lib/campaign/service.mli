(** The campaign service: a long-running daemon owning one (typically
    sharded) {!Dramstress_util.Store}, executing campaign submissions
    from concurrent clients over a Unix-domain socket speaking
    {!Protocol}.

    Two clients submitting overlapping manifests cost one simulation
    per point: a submission {e claims} each missing point descriptor
    through an in-flight gate ({!Runner.gate}) before simulating;
    later claimants of the same descriptor block until the owner
    publishes its outcome (counted on
    [campaign.service.inflight_dedup]). Completed points stream back to
    each client as [point] frames the moment they land.

    {2 Fault isolation (sandbox)}

    By default points execute in a supervised pool of forked worker
    processes ({!Dramstress_util.Procpool} through {!Sandbox}): a
    solver segfault, OOM kill or wedge costs one worker — restarted
    with jittered exponential backoff — never the daemon. A point that
    kills workers repeatedly is quarantined as a [Failed] outcome
    (error [Worker_lost]) after K deaths instead of retrying forever.
    [sandbox:false] restores in-process Domains execution.

    {2 Overload and lifecycle}

    At most [max_active] submissions run concurrently; [queue] more
    wait server-side; beyond that the server answers a typed
    [Busy {retry_after}]. Half-frame (slowloris) connections are
    dropped by a per-frame read deadline. [SIGTERM] / the shutdown
    verb / {!stop} drain gracefully: new submissions get a typed
    [Draining] rejection, in-flight ones finish, the store is flushed,
    {!serve} returns.

    A client that disconnects mid-campaign does not abort its
    submission — other clients may be waiting on points it owns; frames
    to the dead peer are dropped and the campaign runs to completion,
    every result persisted in the store.

    Counters: [campaign.service.connections] / [requests] /
    [submissions] / [inflight_dedup] / [points_streamed] /
    [busy_rejections] / [draining_rejections] / [read_timeouts]; a
    sandboxed daemon's worker restarts and quarantined points are the
    pool's [util.procpool.worker_restarts] / [tasks_lost]. *)

type t

(** Raised by {!create} when the socket path is owned by a daemon that
    still answers — starting would have destroyed its socket. Only a
    {e stale} socket file (its owner dead, connect refused) is
    reclaimed. *)
exception Already_running of string

(** [create ?jobs ?sandbox ?max_task_deaths ?task_timeout ?max_active
    ?queue ?read_timeout ~store ~socket_path ()] probes [socket_path]
    (raising {!Already_running} if a live daemon answers; a stale
    socket file is replaced), forks the worker pool when [sandbox] (the
    default), binds, listens, and installs a [SIGPIPE] ignore.

    - [jobs] sizes the worker pool (sandbox) or caps worker domains per
      submission (no sandbox) when the submission itself does not say.
    - [max_task_deaths] is the quarantine threshold K (default 3);
      [task_timeout] SIGKILLs a worker stuck on one point longer than
      this many seconds (default: no limit).
    - [max_active] / [queue] bound concurrent and queued submissions
      (defaults 4 / 8); over both, submissions answer [Busy].
    - [read_timeout] (seconds, default 10; [<= 0] disables) drops a
      connection whose frame stalls mid-transmission.

    The server owns [store] from here on; {!serve} closes it. *)
val create :
  ?jobs:int ->
  ?sandbox:bool ->
  ?max_task_deaths:int ->
  ?task_timeout:float ->
  ?max_active:int ->
  ?queue:int ->
  ?read_timeout:float ->
  store:Dramstress_util.Store.t ->
  socket_path:string ->
  unit ->
  t

(** [sandboxed t] is whether points execute in the worker pool. *)
val sandboxed : t -> bool

(** [serve t] accepts and handles connections (one thread each) until
    {!stop} is called or a client sends the [shutdown] verb; drains
    in-flight submissions, shuts down the worker pool, removes the
    socket file and closes the store before returning. *)
val serve : t -> unit

(** [stop t] initiates a graceful drain from another thread {e or a
    signal handler} (it only writes one byte to a self-pipe): the
    server flips to Draining, rejects new submissions with the typed
    [Draining] response, finishes in-flight ones and exits. *)
val stop : t -> unit

module Client : sig
  (** Connection-level trouble — refused, closed mid-stream, protocol
      garbage. Distinct from a server-side [Error] reply so retry
      logic never retries a genuinely bad request. *)
  exception Transport of string

  (** The server is over capacity; retry the submission after (roughly)
      [retry_after] seconds. {!submit_retrying} honors it. *)
  exception Busy of { retry_after : float }

  (** The server is draining and accepts no new submissions. *)
  exception Draining

  (** [request ~socket req] is a one-shot request/response exchange.
      Raises {!Transport}. Not for [Submit] — use {!submit}. *)
  val request : socket:string -> Protocol.request -> Protocol.response

  type outcome = {
    planned : int;
    reused : int;
    simulated : int;
    deduped : int;
    failed : int;
  }

  (** [submit ?jobs ?on_event ~socket manifest] submits manifest text
      and streams [on_event] per [point] frame until the final tally.
      [Error] carries a server-side message; {!Transport} is raised on
      connection trouble, {!Busy} / {!Draining} on capacity
      rejections. *)
  val submit :
    ?jobs:int ->
    ?on_event:(Protocol.response -> unit) ->
    socket:string ->
    string ->
    (outcome, string) result

  (** [submit_retrying] is {!submit} plus reconnect-and-resubmit on
      transport failure or capacity rejection, [attempts] times, with
      capped jittered exponential backoff starting at [delay] seconds;
      a server [Busy {retry_after}] hint overrides the computed backoff
      (jittered too). Completed points persist server-side, so a
      resubmission reuses them and the retry converges. Server-side
      errors do not retry. *)
  val submit_retrying :
    ?jobs:int ->
    ?on_event:(Protocol.response -> unit) ->
    ?attempts:int ->
    ?delay:float ->
    socket:string ->
    string ->
    (outcome, string) result
end
