(* Supervised pool of forked worker processes.

   One slot per worker. An [exec] thread owns a slot for the duration
   of one task: it writes the task down the slot's pipe and blocks
   reading the reply, so worker death is observed as EOF (or EPIPE) by
   exactly the thread that cares. The supervisor thread only does
   housekeeping — reaping corpses, detecting idle deaths via waitpid,
   killing wedged workers past the task timeout, and reforking dead
   slots once their backoff expires. *)

module Tel = Telemetry

let c_tasks = Tel.Counter.make "util.procpool.tasks"
let c_deaths = Tel.Counter.make "util.procpool.worker_deaths"
let c_restarts = Tel.Counter.make "util.procpool.worker_restarts"
let c_lost = Tel.Counter.make "util.procpool.tasks_lost"

exception Worker_lost of int

let () =
  Printexc.register_printer (function
    | Worker_lost n ->
      Some (Printf.sprintf "Worker_lost (%d worker death(s) on this point)" n)
    | _ -> None)

(* ---- framing ({!Frame}) ---- *)

let max_frame = 64 * 1024 * 1024

(* [None] on EOF, short read, garbage or a read error — all of which
   mean the peer process is gone or broken, and for a pipe peer that is
   death *)
let read_frame fd =
  match Frame.read ~max:max_frame fd with
  | Ok payload -> Some payload
  | Error (`Eof | `Protocol _ | `Timeout) -> None
  | exception Unix.Unix_error _ -> None

(* ---- task and reply codecs ---- *)

(* A task is one frame: the count of workers it has killed, a newline,
   the payload. *)
let encode_task ~attempt task = string_of_int attempt ^ "\n" ^ task

let decode_task frame =
  match String.index_opt frame '\n' with
  | None -> (0, frame)
  | Some i ->
    let attempt =
      Option.value ~default:0 (int_of_string_opt (String.sub frame 0 i))
    in
    (attempt, String.sub frame (i + 1) (String.length frame - i - 1))

type reply = { ok : bool; deltas : (string * int) list; body : string }

(* A reply is one frame: 'K' or 'E', the counter deltas as
   [name=n,name=n] up to the first newline, then the body. Counter
   names hold no comma or newline. *)
let encode_reply r =
  String.concat ""
    [ (if r.ok then "K" else "E");
      String.concat ","
        (List.map (fun (name, n) -> name ^ "=" ^ string_of_int n) r.deltas);
      "\n";
      r.body ]

let decode_delta field =
  match String.rindex_opt field '=' with
  | None -> Error (`Malformed ("counter delta without '=': " ^ field))
  | Some i -> (
    let name = String.sub field 0 i
    and value = String.sub field (i + 1) (String.length field - i - 1) in
    match int_of_string_opt value with
    | Some n when name <> "" -> Ok (name, n)
    | _ -> Error (`Malformed ("bad counter delta: " ^ field)))

let decode_reply frame =
  let len = String.length frame in
  if len = 0 then Error (`Malformed "empty reply")
  else
    match (frame.[0], String.index_from_opt frame 1 '\n') with
    | ('K' | 'E'), None -> Error (`Malformed "reply without a delta line")
    | (('K' | 'E') as tag), Some nl ->
      let line = String.sub frame 1 (nl - 1) in
      let fields = if line = "" then [] else String.split_on_char ',' line in
      let rec deltas acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> (
          match decode_delta f with
          | Ok d -> deltas (d :: acc) rest
          | Error _ as e -> e)
      in
      Result.map
        (fun deltas ->
          { ok = tag = 'K'; deltas;
            body = String.sub frame (nl + 1) (len - nl - 1) })
        (deltas [] fields)
    | c, _ -> Error (`Malformed (Printf.sprintf "reply tag %C" c))

(* ---- pool structure ---- *)

type wstatus =
  | Idle
  | Busy of float  (* task start, for the wedge heartbeat *)
  | Dead of float  (* restart due time *)

type slot = {
  id : int;
  mutable pid : int;
  mutable to_worker : Unix.file_descr;
  mutable from_worker : Unix.file_descr;
  mutable status : wstatus;
  mutable consec_deaths : int;  (* resets on a completed task *)
}

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  slots : slot array;
  worker_fn : attempt:int -> string -> string;
  max_task_deaths : int;
  backoff_base : float;
  backoff_cap : float;
  task_timeout : float option;
  rng : Random.State.t;  (* guarded by [lock] *)
  mutable shutting_down : bool;
  mutable supervisor : Thread.t option;
}

let size t = Array.length t.slots

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Child-side hygiene: a worker forked from a live daemon inherits
   copies of every open descriptor — client connections, the listener,
   store files. A long-lived worker holding a dup of a client socket
   would keep that peer from ever seeing EOF, so drop everything except
   our own two pipe ends (and stdio). [Unix.file_descr] is the raw fd
   int on Unix, which is the only platform forking makes sense on. *)
let close_inherited_fds ~keep =
  for i = 3 to 1023 do
    let fd : Unix.file_descr = Obj.magic (i : int) in
    if not (List.mem fd keep) then close_quietly fd
  done

(* fork one worker into [slot]; caller holds the pool lock (or is
   creating the pool single-threadedly) *)
let fork_worker pool slot =
  let task_r, task_w = Unix.pipe ~cloexec:false () in
  let res_r, res_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
    close_quietly task_w;
    close_quietly res_r;
    close_inherited_fds ~keep:[ task_r; res_w ];
    (* the parent's handlers (drain-on-SIGTERM, ...) make no sense
       here, and may reference descriptors we just closed *)
    Sys.set_signal Sys.sigterm Sys.Signal_default;
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    (* what this process counts from here on is the worker's: each
       reply ships the counters that moved since the last one *)
    let since = Tel.mark () in
    let rec serve () =
      match read_frame task_r with
      | None -> ()  (* parent closed the pipe: clean retirement *)
      | Some frame ->
        let attempt, payload = decode_task frame in
        let ok, body =
          match pool.worker_fn ~attempt payload with
          | v -> (true, v)
          | exception e -> (false, Printexc.to_string e)
        in
        Frame.write res_w
          (encode_reply { ok; deltas = Tel.deltas_since since; body });
        serve ()
    in
    (try serve () with _ -> ());
    Unix._exit 0
  | pid ->
    close_quietly task_r;
    close_quietly res_w;
    slot.pid <- pid;
    slot.to_worker <- task_w;
    slot.from_worker <- res_r

(* caller holds the lock. Schedules the slot's restart with jittered
   exponential backoff keyed to its consecutive-death count. *)
let mark_dead pool slot =
  Tel.Counter.incr c_deaths;
  slot.consec_deaths <- slot.consec_deaths + 1;
  let d = slot.consec_deaths - 1 in
  let backoff =
    Float.min pool.backoff_cap (pool.backoff_base *. (2.0 ** float_of_int d))
  in
  let jitter = 0.5 +. Random.State.float pool.rng 1.0 in
  slot.status <- Dead (Unix.gettimeofday () +. (backoff *. jitter));
  close_quietly slot.to_worker;
  close_quietly slot.from_worker

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (ECHILD, _, _) -> true

let supervise pool =
  let rec loop () =
    Thread.delay 0.05;
    let continue =
      Mutex.protect pool.lock (fun () ->
          if pool.shutting_down then false
          else begin
            let now = Unix.gettimeofday () in
            Array.iter
              (fun s ->
                match s.status with
                | Busy started -> (
                  (* the heartbeat: a worker stuck on one task past the
                     deadline is killed; its exec thread then observes
                     EOF and runs the ordinary death path *)
                  match pool.task_timeout with
                  | Some limit when now -. started > limit -> (
                    try Unix.kill s.pid Sys.sigkill
                    with Unix.Unix_error _ -> ())
                  | _ -> ())
                | Idle ->
                  (* a worker that died between tasks has no exec
                     thread watching its pipe — waitpid is the only
                     detector *)
                  if reaped s.pid then mark_dead pool s
                | Dead due when due <= now ->
                  (* refork only once the corpse is collectable, so a
                     restarted slot never aliases a zombie's pid *)
                  if reaped s.pid then begin
                    fork_worker pool s;
                    s.status <- Idle;
                    Tel.Counter.incr c_restarts;
                    Condition.broadcast pool.cond
                  end
                | Dead _ -> ())
              pool.slots;
            true
          end)
    in
    if continue then loop ()
  in
  loop ()

let create ?(max_task_deaths = 3) ?(backoff = (0.1, 5.0)) ?task_timeout
    ~workers ~worker () =
  if workers < 1 then invalid_arg "Procpool.create: workers < 1";
  if max_task_deaths < 1 then invalid_arg "Procpool.create: max_task_deaths < 1";
  (* a worker dying mid-write must be an EPIPE for its exec thread, not
     a fatal signal delivered to whoever was writing *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let base, cap = backoff in
  let pool =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      slots =
        Array.init workers (fun id ->
            {
              id;
              pid = -1;
              to_worker = Unix.stdin;
              from_worker = Unix.stdin;
              status = Idle;
              consec_deaths = 0;
            });
      worker_fn = worker;
      max_task_deaths;
      backoff_base = base;
      backoff_cap = cap;
      task_timeout;
      rng =
        Random.State.make
          [| Unix.getpid (); int_of_float (Unix.gettimeofday () *. 1e6) |];
      shutting_down = false;
      supervisor = None;
    }
  in
  Array.iter (fun s -> fork_worker pool s) pool.slots;
  pool.supervisor <- Some (Thread.create supervise pool);
  pool

(* block until a slot is idle (or the pool is shutting down) and claim
   it. Waiters are woken by task completions and supervisor restarts. *)
let acquire pool =
  Mutex.protect pool.lock (fun () ->
      let rec go () =
        if pool.shutting_down then None
        else
          match Array.find_opt (fun s -> s.status = Idle) pool.slots with
          | Some s ->
            s.status <- Busy (Unix.gettimeofday ());
            Some s
          | None ->
            Condition.wait pool.cond pool.lock;
            go ()
      in
      go ())

let release pool slot ~completed =
  Mutex.protect pool.lock (fun () ->
      (match slot.status with
      | Busy _ ->
        slot.status <- Idle;
        if completed then slot.consec_deaths <- 0
      | Idle | Dead _ -> ());
      Condition.broadcast pool.cond)

let died pool slot =
  Mutex.protect pool.lock (fun () ->
      (match slot.status with
      | Busy _ -> mark_dead pool slot
      | Idle | Dead _ -> ());
      Condition.broadcast pool.cond)

let exec pool task =
  Tel.Counter.incr c_tasks;
  (* [deaths] counts workers this task has consumed; each retry goes to
     a fresh worker with the count in the frame, so deterministic chaos
     can target "the Nth attempt" *)
  let rec dispatch deaths =
    if deaths >= pool.max_task_deaths then begin
      Tel.Counter.incr c_lost;
      Error (`Worker_lost deaths)
    end
    else
      match acquire pool with
      | None -> Error (`Worker_error "pool is shut down")
      | Some slot -> (
        let sent =
          try
            Frame.write slot.to_worker (encode_task ~attempt:deaths task);
            true
          with Unix.Unix_error _ | Sys_error _ -> false
        in
        if not sent then begin
          (* worker died before (or while) we handed it the task *)
          died pool slot;
          dispatch (deaths + 1)
        end
        else
          match Option.map decode_reply (read_frame slot.from_worker) with
          | Some (Ok r) ->
            release pool slot ~completed:true;
            Tel.add_deltas r.deltas;
            if r.ok then Ok r.body else Error (`Worker_error r.body)
          | Some (Error (`Malformed _)) | None ->
            (* EOF or torn reply: the worker died mid-task, and what it
               counted on the task dies with it *)
            died pool slot;
            dispatch (deaths + 1))
  in
  dispatch 0

let shutdown pool =
  Mutex.protect pool.lock (fun () ->
      pool.shutting_down <- true;
      Condition.broadcast pool.cond);
  Option.iter Thread.join pool.supervisor;
  pool.supervisor <- None;
  Array.iter
    (fun s ->
      (* closing the task pipe retires an idle worker; a busy one
         finishes its task, finds EOF, and exits *)
      close_quietly s.to_worker;
      close_quietly s.from_worker;
      if s.pid > 0 then
        try ignore (Unix.waitpid [] s.pid)
        with Unix.Unix_error _ -> ())
    pool.slots
