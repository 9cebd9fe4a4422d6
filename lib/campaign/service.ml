(* The campaign service: a long-running process owning one (sharded)
   store, executing campaign submissions from concurrent clients over a
   Unix-domain socket.

   Threading model: the main thread accepts; each connection gets one
   systhread. A [submit] runs the ordinary Runner on the shared store
   with two hooks installed — the in-flight gate (below), so two
   clients asking for the same point descriptor produce one simulation
   and two waiters, and a per-point streaming callback that frames
   results back as they land.

   Fault isolation: by default ([sandbox = true]) points execute in a
   supervised pool of forked worker processes (Util.Procpool via
   Sandbox) — a solver segfault or OOM kill costs one worker, never the
   daemon — and chain fan-out uses systhreads so the daemon stays
   fork-capable (OCaml refuses fork once any domain has been spawned).
   [sandbox = false] restores the in-process Domains path.

   Overload discipline: at most [max_active] submissions run at once;
   up to [queue] more wait server-side; beyond that the server answers
   a typed [Busy {retry_after}] instead of hanging the connection.
   Half-frame (slowloris) peers are dropped by a per-connection read
   deadline that starts at each frame's first byte.

   Lifecycle: SIGTERM / the shutdown verb / [stop] flip the server into
   Draining — new submissions get a typed [Draining] rejection,
   in-flight ones finish, then the store is flushed and [serve]
   returns. Drain is initiated through a self-pipe so a signal handler
   never touches a mutex.

   A client that disappears mid-campaign must not take its submission
   down with it: other clients may be waiting on points this submission
   owns. Writes to a dead socket flip a per-connection [alive] flag and
   are silently dropped from then on; the campaign itself runs to
   completion and the store keeps every result. *)

module Store = Dramstress_util.Store
module Tel = Dramstress_util.Telemetry
module Par = Dramstress_util.Par
module Procpool = Dramstress_util.Procpool
module P = Protocol

let c_connections = Tel.Counter.make "campaign.service.connections"
let c_submissions = Tel.Counter.make "campaign.service.submissions"
let c_requests = Tel.Counter.make "campaign.service.requests"

(* a claim answered [`Wait]: a second client asked for a point already
   being simulated — the whole reason the service exists *)
let c_dedup = Tel.Counter.make "campaign.service.inflight_dedup"
let c_streamed = Tel.Counter.make "campaign.service.points_streamed"

(* overload accounting, reconciled by [--counters]; worker supervision
   is counted by the pool's own [util.procpool.*] counters *)
let c_busy = Tel.Counter.make "campaign.service.busy_rejections"
let c_draining = Tel.Counter.make "campaign.service.draining_rejections"
let c_read_timeouts = Tel.Counter.make "campaign.service.read_timeouts"

exception Already_running of string

let () =
  Printexc.register_printer (function
    | Already_running path ->
      Some
        (Printf.sprintf
           "another campaign service is already listening on %s" path)
    | _ -> None)

type pending = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable outcome : (Plan.result, string) result option;
}

type lifecycle = Running | Draining | Stopped

type t = {
  store : Store.t;
  socket_path : string;
  jobs : int option;
  pool : Procpool.t option;  (* Some = sandboxed execution *)
  listen_fd : Unix.file_descr;
  inflight : (string, pending) Hashtbl.t;
  inflight_lock : Mutex.t;
  (* admission control + lifecycle, all under [adm] *)
  adm : Mutex.t;
  adm_cond : Condition.t;
  max_active : int;
  queue_limit : int;
  mutable active : int;
  mutable waiting : int;
  mutable state : lifecycle;
  (* live connections, so drain can wake their read loops *)
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_lock : Mutex.t;
  (* self-pipe: [stop] (possibly a signal handler) writes one byte; the
     drainer thread does the real, lock-taking work *)
  drain_r : Unix.file_descr;
  drain_w : Unix.file_descr;
  read_timeout : float option;
}

(* the dedup gate shared by every submission: first claimant of a
   descriptor runs it, later claimants block on the pending cell.
   Claims resolve under [inflight_lock]; waiting happens outside it, on
   the cell's own mutex, so a wait never blocks other claims. *)
let gate srv =
  {
    Runner.claim =
      (fun key ->
        Mutex.protect srv.inflight_lock (fun () ->
            match Hashtbl.find_opt srv.inflight key with
            | Some p ->
              Tel.Counter.incr c_dedup;
              `Wait
                (fun () ->
                  Mutex.protect p.pm (fun () ->
                      while p.outcome = None do
                        Condition.wait p.pc p.pm
                      done;
                      Option.get p.outcome))
            | None ->
              Hashtbl.replace srv.inflight key
                {
                  pm = Mutex.create ();
                  pc = Condition.create ();
                  outcome = None;
                };
              `Run));
    Runner.publish =
      (fun key res ->
        Mutex.protect srv.inflight_lock (fun () ->
            match Hashtbl.find_opt srv.inflight key with
            | None -> ()
            | Some p ->
              Hashtbl.remove srv.inflight key;
              Mutex.protect p.pm (fun () ->
                  p.outcome <- Some res;
                  Condition.broadcast p.pc)));
  }

(* Probe for a live daemon before touching the socket file: connecting
   to a bound-and-listening Unix socket succeeds; connecting to a stale
   file left by a dead daemon fails with ECONNREFUSED. Only a stale
   file is unlinked — a second daemon must never silently destroy the
   first one's socket. *)
let claim_socket_path socket_path =
  if Sys.file_exists socket_path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
      | () -> `Live
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) -> `Stale
      | exception e -> `Error e
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match verdict with
    | `Live -> raise (Already_running socket_path)
    | `Stale -> ( try Unix.unlink socket_path with Unix.Unix_error _ -> ())
    | `Error e -> raise e
  end

let create ?jobs ?(sandbox = true) ?(max_task_deaths = 3) ?task_timeout
    ?(max_active = 4) ?(queue = 8) ?(read_timeout = 10.0) ~store ~socket_path
    () =
  (* the counters verb is part of the protocol, so the server always
     collects — there is no human attaching --metrics to a daemon *)
  Tel.set_enabled true;
  (* a client vanishing mid-stream must be an error code, not a fatal
     signal delivered to whichever thread happened to be writing *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  claim_socket_path socket_path;
  (* the worker pool must fork before anything else starts threads that
     might hold locks, and absolutely before any domain could exist *)
  let pool =
    if not sandbox then None
    else
      Some
        (Procpool.create ~max_task_deaths ?task_timeout
           ~workers:(Par.resolve_jobs ?jobs ())
           ~worker:Sandbox.worker ())
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX socket_path);
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     Option.iter Procpool.shutdown pool;
     raise e);
  let drain_r, drain_w = Unix.pipe ~cloexec:false () in
  {
    store;
    socket_path;
    jobs;
    pool;
    listen_fd = fd;
    inflight = Hashtbl.create 64;
    inflight_lock = Mutex.create ();
    adm = Mutex.create ();
    adm_cond = Condition.create ();
    max_active = Int.max 1 max_active;
    queue_limit = Int.max 0 queue;
    active = 0;
    waiting = 0;
    state = Running;
    conns = Hashtbl.create 16;
    conns_lock = Mutex.create ();
    drain_r;
    drain_w;
    read_timeout = (if read_timeout <= 0.0 then None else Some read_timeout);
  }

let sandboxed srv = srv.pool <> None

(* ---- admission control ---- *)

(* [`Go] holds one of the [max_active] submission slots (pair with
   [release]); a full house queues up to [queue_limit] submitters
   server-side; beyond that the caller gets [`Busy hint] — the hint
   scales with the queue depth so pileups spread out instead of
   thundering back. *)
let admit srv =
  Mutex.protect srv.adm (fun () ->
      if srv.state <> Running then `Draining
      else if srv.active < srv.max_active then begin
        srv.active <- srv.active + 1;
        `Go
      end
      else if srv.waiting >= srv.queue_limit then
        `Busy (Float.min 5.0 (0.5 *. float_of_int (1 + srv.waiting)))
      else begin
        srv.waiting <- srv.waiting + 1;
        let rec wait () =
          if srv.state <> Running then begin
            srv.waiting <- srv.waiting - 1;
            `Draining
          end
          else if srv.active < srv.max_active then begin
            srv.waiting <- srv.waiting - 1;
            srv.active <- srv.active + 1;
            `Go
          end
          else begin
            Condition.wait srv.adm_cond srv.adm;
            wait ()
          end
        in
        wait ()
      end)

(* drain completes exactly when nothing is active and nobody queued;
   whoever observes that transition wakes every blocked read so the
   connection threads (and then [serve]) can finish *)
let try_finish_drain srv =
  let finish =
    Mutex.protect srv.adm (fun () ->
        if srv.state = Draining && srv.active = 0 && srv.waiting = 0 then begin
          srv.state <- Stopped;
          true
        end
        else false)
  in
  if finish then begin
    (try Unix.shutdown srv.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Mutex.protect srv.conns_lock (fun () ->
        Hashtbl.iter
          (fun fd () ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          srv.conns)
  end

let release srv =
  Mutex.protect srv.adm (fun () ->
      srv.active <- srv.active - 1;
      Condition.broadcast srv.adm_cond);
  try_finish_drain srv

(* ---- request handlers ---- *)

(* per-connection response writer: serializes frames from concurrent
   workers and downgrades a dead peer to a no-op *)
let sender fd =
  let lock = Mutex.create () in
  let alive = ref true in
  fun resp ->
    Mutex.protect lock (fun () ->
        if !alive then
          try P.write_frame fd (P.encode_response resp) with
          | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _)
          | Sys_error _ ->
            alive := false)

let manifest_of_text ~source text =
  match Manifest.of_string ~source text with
  | m -> Ok m
  | exception Manifest.Invalid diags ->
    Error
      (Format.asprintf "@[<v>invalid manifest:@ %a@]"
         (Format.pp_print_list Manifest.pp_diagnostic)
         diags)

let handle_submit srv ~send ~manifest ~jobs =
  Tel.Counter.incr c_submissions;
  (match admit srv with
  | `Busy retry_after ->
    Tel.Counter.incr c_busy;
    send (P.Busy { retry_after })
  | `Draining ->
    Tel.Counter.incr c_draining;
    send P.Draining
  | `Go ->
    Fun.protect
      ~finally:(fun () -> release srv)
      (fun () ->
        match manifest_of_text ~source:"<submit>" manifest with
        | Error msg -> send (P.Error_msg msg)
        | Ok m ->
          let on_point p ev =
            let descr = Format.asprintf "%a" Plan.pp_point p in
            let status, payload =
              match ev with
              | `Reused r -> (P.Reused, Plan.encode_result r)
              | `Simulated r -> (P.Simulated, Plan.encode_result r)
              | `Deduped r -> (P.Deduped, Plan.encode_result r)
              | `Failed msg -> (P.Failed, msg)
            in
            Tel.Counter.incr c_streamed;
            send (P.Point { descr; status; payload })
          in
          let s =
            match srv.pool with
            | Some pool ->
              (* sandboxed: points execute on pool workers, chains fan
                 out over threads (the daemon must stay fork-capable),
                 and width comes from the pool — per-submission [jobs]
                 cannot exceed the workers that exist *)
              let executor =
                Sandbox.executor pool ~manifest_text:manifest m
              in
              Runner.run ~jobs:(Procpool.size pool) ~gate:(gate srv)
                ~on_point ~executor ~store:srv.store m
            | None ->
              let jobs = match jobs with Some _ -> jobs | None -> srv.jobs in
              Runner.run ?jobs ~gate:(gate srv) ~on_point ~store:srv.store m
          in
          send
            (P.Done
               {
                 planned = s.Runner.planned;
                 reused = s.Runner.reused;
                 simulated = s.Runner.simulated;
                 deduped = s.Runner.deduped;
                 failed = List.length s.Runner.failures;
               })));
  (* a queued submitter that was rejected by a starting drain may have
     been the last thing the drain waited on *)
  try_finish_drain srv

let handle_diff srv ~send ~a ~b =
  match
    (manifest_of_text ~source:"<diff:a>" a, manifest_of_text ~source:"<diff:b>" b)
  with
  | Error msg, _ | _, Error msg -> send (P.Error_msg msg)
  | Ok ma, Ok mb ->
    let side label m = { Diff.store = srv.store; manifest = m; label } in
    let d = Diff.v ~a:(side "a" ma) ~b:(side "b" mb) () in
    send (P.Diff_report (Diff.render d))

let handle_merge srv ~send dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    send (P.Error_msg (Printf.sprintf "merge: %s is not a store directory" dir))
  else begin
    let src = Store.open_ ~name:"merge-src" dir in
    Fun.protect
      ~finally:(fun () -> Store.close src)
      (fun () ->
        let st = Store.merge ~src ~dst:srv.store in
        send
          (P.Merged
             { added = st.Store.added;
               replaced = st.Store.replaced;
               kept = st.Store.kept }))
  end

(* [stop] is the drain trigger and must be callable from a signal
   handler: one write to the self-pipe, no locks. The drainer thread in
   [serve] does the rest. Idempotent — extra bytes are harmless. *)
let stop srv =
  try ignore (Unix.write srv.drain_w (Bytes.make 1 'D') 0 1)
  with Unix.Unix_error _ -> ()

(* The listener stays open while Draining: new submissions must get
   the {e typed} [Draining] rejection (and status/counters must keep
   answering), not a refused connection. [try_finish_drain] closes it
   when the last in-flight submission releases. *)
let begin_drain srv =
  Mutex.protect srv.adm (fun () ->
      if srv.state = Running then srv.state <- Draining;
      (* queued submitters wake and answer [Draining] *)
      Condition.broadcast srv.adm_cond);
  try_finish_drain srv

let handle_request srv ~send = function
  | P.Submit { manifest; jobs } -> handle_submit srv ~send ~manifest ~jobs
  | P.Status ->
    let inflight =
      Mutex.protect srv.inflight_lock (fun () -> Hashtbl.length srv.inflight)
    in
    send
      (P.Status_report
         {
           name = Store.name srv.store;
           engine = Store.engine srv.store;
           records = Store.entries srv.store;
           shards = Store.shards srv.store;
           inflight;
         })
  | P.Query key -> (
    match Store.find srv.store ~key with
    | Some v -> send (P.Found v)
    | None -> send P.Not_found)
  | P.Diff { a; b } -> handle_diff srv ~send ~a ~b
  | P.Merge dir -> handle_merge srv ~send dir
  | P.Counters -> send (P.Counter_values (Tel.snapshot ()).Tel.counters)
  | P.Shutdown ->
    send P.Bye;
    stop srv

let register_conn srv fd =
  Mutex.protect srv.conns_lock (fun () -> Hashtbl.replace srv.conns fd ())

let unregister_conn srv fd =
  Mutex.protect srv.conns_lock (fun () -> Hashtbl.remove srv.conns fd)

let handle_connection srv fd =
  Tel.Counter.incr c_connections;
  register_conn srv fd;
  let send = sender fd in
  let rec loop () =
    match P.read_frame ?frame_timeout:srv.read_timeout fd with
    | Error `Eof -> ()
    | Error `Timeout ->
      (* slowloris: a frame started and stalled — drop the peer; other
         connections are on their own threads and unaffected *)
      Tel.Counter.incr c_read_timeouts
    | Error (`Protocol m) -> send (P.Error_msg ("protocol: " ^ m))
    | Ok x -> (
      Tel.Counter.incr c_requests;
      match P.decode_request x with
      | Error m ->
        send (P.Error_msg m);
        loop ()
      | Ok req ->
        (match handle_request srv ~send req with
        | () -> ()
        | exception e -> send (P.Error_msg (Printexc.to_string e)));
        if req <> P.Shutdown then loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      unregister_conn srv fd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* a connection accepted in the instant the drain completed may
         have registered after the finisher swept the registry — it
         must not sit blocked in [read_frame] forever *)
      if Mutex.protect srv.adm (fun () -> srv.state = Stopped) then ()
      else loop ())

(* accept loop; returns once a drain (stop / shutdown verb / SIGTERM)
   has completed and every connection thread has drained. Connection
   threads are counted, not kept: a long-lived daemon must not hold a
   [Thread.t] for every connection it ever accepted. *)
let serve srv =
  let live = ref 0 in
  let live_lock = Mutex.create () in
  let live_cond = Condition.create () in
  let connection_done () =
    Mutex.protect live_lock (fun () ->
        decr live;
        if !live = 0 then Condition.broadcast live_cond)
  in
  let spawn fd =
    Mutex.protect live_lock (fun () -> incr live);
    ignore
      (Thread.create
         (fun () ->
           Fun.protect ~finally:connection_done (fun () ->
               handle_connection srv fd))
         ())
  in
  let drainer =
    Thread.create
      (fun () ->
        let b = Bytes.create 1 in
        (try ignore (Unix.read srv.drain_r b 0 1)
         with Unix.Unix_error _ -> ());
        begin_drain srv)
      ()
  in
  let stopped () = Mutex.protect srv.adm (fun () -> srv.state = Stopped) in
  let rec accept_loop () =
    if not (stopped ()) then
      match Unix.accept srv.listen_fd with
      | fd, _ ->
        if stopped () then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          spawn fd;
          accept_loop ()
        end
      | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) ->
        ()
  in
  accept_loop ();
  Mutex.protect live_lock (fun () ->
      while !live > 0 do
        Condition.wait live_cond live_lock
      done);
  Thread.join drainer;
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close srv.drain_r with Unix.Unix_error _ -> ());
  (try Unix.close srv.drain_w with Unix.Unix_error _ -> ());
  Option.iter Procpool.shutdown srv.pool;
  (try Unix.unlink srv.socket_path with Unix.Unix_error _ -> ());
  Store.close srv.store

(* ---- client side ---- *)

module Client = struct
  exception Transport of string
  exception Busy of { retry_after : float }
  exception Draining

  let () =
    Printexc.register_printer (function
      | Busy { retry_after } ->
        Some (Printf.sprintf "server busy (retry after %.1fs)" retry_after)
      | Draining -> Some "server is draining (shutting down)"
      | _ -> None)

  (* connection trouble is [Transport], whichever system call met it *)
  let transport f x =
    try f x
    with Unix.Unix_error (e, call, _) ->
      raise (Transport (call ^ ": " ^ Unix.error_message e))

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd

  let send fd req = transport (P.write_frame fd) (P.encode_request req)

  let with_connection fd f =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> f fd)

  let read_response fd =
    match transport P.read_frame fd with
    | Error `Eof -> raise (Transport "connection closed")
    | Error `Timeout -> raise (Transport "read timeout")
    | Error (`Protocol m) -> raise (Transport ("protocol: " ^ m))
    | Ok x -> (
      match P.decode_response x with
      | Ok r -> r
      | Error m -> raise (Transport ("protocol: " ^ m)))

  (* one-shot request/response; a failed connect stays the
     [Unix.Unix_error] a caller waiting for a starting daemon polls on *)
  let request ~socket req =
    with_connection (connect socket) (fun fd ->
        send fd req;
        read_response fd)

  type outcome = {
    planned : int;
    reused : int;
    simulated : int;
    deduped : int;
    failed : int;
  }

  (* one submission over one connection: streams [on_event] per point,
     returns the final tally. [Error] carries a server-side message (a
     bad manifest, a failed handler); transport trouble raises
     {!Transport}, capacity rejections raise {!Busy} / {!Draining} so
     retry logic can tell the three apart. *)
  let submit ?jobs ?(on_event = fun _ -> ()) ~socket manifest =
    with_connection (transport connect socket) (fun fd ->
        send fd (P.Submit { manifest; jobs });
        let rec loop () =
          match read_response fd with
          | P.Point _ as p ->
            on_event p;
            loop ()
          | P.Done { planned; reused; simulated; deduped; failed } ->
            Ok { planned; reused; simulated; deduped; failed }
          | P.Busy { retry_after } -> raise (Busy { retry_after })
          | P.Draining -> raise Draining
          | P.Error_msg m -> Error m
          | _ -> raise (Transport "unexpected response to submit")
        in
        loop ())

  (* resilient submission: reconnect-and-resubmit on transport failure
     (server killed mid-stream, not yet listening, ...) or a capacity
     rejection. Backoff is capped jittered exponential from [delay];
     an explicit [Busy {retry_after}] hint from the server takes
     precedence (also jittered, so a crowd rejected together does not
     return together). Completed points persist in the server's store,
     so a resubmission reuses them — the retry converges instead of
     redoing work. Server-side errors (bad manifest) are not retried. *)
  let submit_retrying ?jobs ?on_event ?(attempts = 10) ?(delay = 0.5) ~socket
      manifest =
    let rng =
      Random.State.make
        [| Unix.getpid (); int_of_float (Unix.gettimeofday () *. 1e6) |]
    in
    let backoff tried =
      Float.min 5.0 (delay *. (2.0 ** float_of_int tried))
      *. (0.5 +. Random.State.float rng 0.5)
    in
    let rec go n tried =
      match submit ?jobs ?on_event ~socket manifest with
      | (Ok _ | Error _) as r -> r
      | exception Busy { retry_after } when n > 1 ->
        Unix.sleepf (retry_after *. (0.75 +. Random.State.float rng 0.5));
        go (n - 1) (tried + 1)
      | exception (Transport _ | Draining) when n > 1 ->
        Unix.sleepf (backoff tried);
        go (n - 1) (tried + 1)
    in
    go attempts 0
end
