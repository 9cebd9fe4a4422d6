(* Dependency-free parallel map over OCaml 5 domains.

   Work items are handed out one at a time through an atomic cursor
   (self-scheduling), which balances the very uneven per-item cost of
   sweep workloads (a bisection at one resistance can take many times
   longer than at another). Results are written to per-index slots, so
   output order always matches input order regardless of scheduling. *)

module Tel = Telemetry

let c_sweeps = Tel.Counter.make "util.par.sweeps"
let c_tasks = Tel.Counter.make "util.par.tasks"
let c_domains = Tel.Counter.make "util.par.domains_spawned"
let c_task_failures = Tel.Counter.make "util.par.task_failures"

let h_idle =
  Tel.Histogram.make ~unit_:"ms" ~lo:1e-3 ~hi:1e5 ~buckets:32
    "util.par.worker_idle_ms"

let h_tasks_per_worker =
  Tel.Histogram.make ~unit_:"tasks" ~lo:1.0 ~hi:1e6 ~buckets:24
    "util.par.tasks_per_worker"

(* Environment junk must not pass silently: a user who exported
   DRAMSTRESS_JOBS=0 (or =-4, or =banana) deserves to hear, once, that
   the value was ignored — a sweep quietly running on the default count
   looks exactly like the knob working. One warning per variable per
   process, mirrored into [env_warnings] so tests can assert on it
   without capturing stderr. *)
let warned_lock = Mutex.create ()
let warned : (string, unit) Hashtbl.t = Hashtbl.create 4
let warning_log : (string * string) list ref = ref []

let warn_env ~env ~raw ~used =
  Mutex.protect warned_lock (fun () ->
      if not (Hashtbl.mem warned env) then begin
        Hashtbl.add warned env ();
        warning_log := (env, raw) :: !warning_log;
        Printf.eprintf
          "dramstress: ignoring %s=%S (worker counts must be integers >= \
           1); using %d\n\
           %!"
          env raw used
      end)

let env_warnings () = List.rev !warning_log

let reset_env_warnings () =
  Mutex.protect warned_lock (fun () ->
      Hashtbl.reset warned;
      warning_log := [])

(* One clamping/validation point shared by every worker-count knob
   (jobs, ensemble lanes): explicit argument > environment variable >
   default. An explicit value clamps to at least 1; environment junk —
   unparsable text, zero, negatives — degrades to the default (itself
   always >= 1) with a once-per-variable stderr warning rather than
   diverging per knob. *)
let clamp_count ?explicit ~env ~default () =
  match explicit with
  | Some j -> Int.max 1 j
  | None -> begin
    match Sys.getenv_opt env with
    | Some "" -> default ()
    | Some s -> begin
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
        let used = Int.max 1 (default ()) in
        warn_env ~env ~raw:s ~used;
        used
    end
    | None -> default ()
  end

(* the single resolution point for every ?jobs in the code base:
   explicit argument > DRAMSTRESS_JOBS environment > recommended count *)
let resolve_jobs ?jobs () =
  clamp_count ?explicit:jobs ~env:"DRAMSTRESS_JOBS"
    ~default:Domain.recommended_domain_count ()

let default_lanes = 16

(* same precedence and degradation for the ensemble lane count:
   explicit argument > DRAMSTRESS_LANES environment > 16 *)
let resolve_lanes ?lanes () =
  clamp_count ?explicit:lanes ~env:"DRAMSTRESS_LANES"
    ~default:(fun () -> default_lanes) ()

(* order-preserving split into consecutive runs of at most [size]; used
   by the batcher in Ops to cut a lane list into ensemble-width chunks
   that then fan out over domains *)
let chunks ~size xs =
  if size < 1 then invalid_arg "Par.chunks: size < 1";
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let parallel_map ?jobs f xs =
  let jobs = resolve_jobs ?jobs () in
  Tel.Counter.incr c_sweeps;
  Tel.Counter.add c_tasks (List.length xs);
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs = 1 -> List.map f xs
  | _ ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let jobs = Int.min jobs n in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    (* per-worker completion instants, for the idle-time histogram: a
       worker is idle from its last item until the slowest worker ends *)
    let watching = Tel.enabled () in
    let done_at = Array.make jobs 0.0 in
    let task_count = Array.make jobs 0 in
    let worker w () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failure = None then begin
          (match f input.(i) with
          | y ->
            out.(i) <- Some y;
            task_count.(w) <- task_count.(w) + 1
          | exception e ->
            (* keep the first failure; remaining items are abandoned.
               The backtrace must be captured here, in the worker domain
               that observed the raise — re-raising in the caller with a
               bare [raise] would rebind the trace to the join site and
               lose the actual origin *)
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          loop ()
        end
      in
      loop ();
      if watching then done_at.(w) <- Unix.gettimeofday ()
    in
    Tel.Counter.add c_domains (jobs - 1);
    let helpers = List.init (jobs - 1) (fun w -> Domain.spawn (worker (w + 1))) in
    worker 0 ();
    List.iter Domain.join helpers;
    if watching then begin
      let t_end = Unix.gettimeofday () in
      Array.iter
        (fun t -> Tel.Histogram.observe h_idle (1e3 *. Float.max 0.0 (t_end -. t)))
        done_at;
      Array.iter
        (fun c -> Tel.Histogram.observe h_tasks_per_worker (float_of_int c))
        task_count
    end;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map (function Some y -> y | None -> assert false) out)

(* Thread-based sibling of [parallel_map], for callers that block
   outside the OCaml runtime (pipe/socket waits) AND must never spawn a
   domain — once any domain has run, the runtime refuses Unix.fork, and
   the sandboxed service daemon lives or dies by staying fork-capable. *)
let concurrent_map ?jobs f xs =
  let jobs = resolve_jobs ?jobs () in
  Tel.Counter.incr c_sweeps;
  Tel.Counter.add c_tasks (List.length xs);
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ when jobs = 1 -> List.map f xs
  | _ ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let jobs = Int.min jobs n in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failure = None then begin
          (match f input.(i) with
          | y -> out.(i) <- Some y
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          loop ()
        end
      in
      loop ()
    in
    let helpers = List.init (jobs - 1) (fun _ -> Thread.create worker ()) in
    worker ();
    List.iter Thread.join helpers;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map (function Some y -> y | None -> assert false) out)

(* Per-point fault tolerance: every item completes with a structured
   outcome instead of the first raise killing the sweep. The inner
   closure never raises, so [parallel_map]'s abandon path is never
   taken and all items run. *)
let parallel_map_outcomes ?jobs ?(retries_of = fun _ -> 0) f xs =
  parallel_map ?jobs
    (fun x ->
      match
        if Chaos.armed () && Chaos.fire Chaos.Fail_worker_task then
          raise (Chaos.Injected_fault { fault = Chaos.Fail_worker_task });
        f x
      with
      | y -> Outcome.Ok y
      | exception e ->
        Tel.Counter.incr c_task_failures;
        Outcome.Failed { Outcome.point = x; error = e; retries = retries_of e })
    xs
