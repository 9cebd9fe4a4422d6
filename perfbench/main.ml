(* perfbench — the repository benchmark.

   perfbench/run.sh builds this executable and runs

     main.exe run --workload NAME --seed N --seconds S --trace 0|1

   which prints one line per metric and, last, one JSON object. A run
   first computes a reference for the seed's manifest, then measures
   cycles for about S seconds. Each cycle is a fresh process
   ([main.exe cycle ...]) with a fresh store and an empty Ops cache, as
   every real campaign starts: a cold campaign, then warm resubmissions
   of the same manifest that read every point back from the store.
   The metrics, their units and what each workload is for are listed
   in perfbench/METRICS.md. *)

module Cp = Dramstress_campaign
module Manifest = Cp.Manifest
module Plan = Cp.Plan
module Runner = Cp.Runner
module Svc = Cp.Service
module P = Cp.Protocol
module St = Dramstress_util.Store
module Tel = Dramstress_util.Telemetry
module O = Dramstress_dram.Ops
module Sc = Dramstress_dram.Sim_config
module Border = Dramstress_core.Border
module D = Dramstress_defect.Defect

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let span name f = Tel.with_span name f

(* Each of these silently changes what a workload measures. *)
let guarded_env =
  [ "DRAMSTRESS_JOBS"; "DRAMSTRESS_LANES"; "DRAMSTRESS_CACHE";
    "DRAMSTRESS_CHAOS"; "DRAMSTRESS_TRACE"; "DRAMSTRESS_WORKER_KILL" ]

let env_overrides () =
  List.filter_map
    (fun v ->
      match Sys.getenv_opt v with
      | Some s when s <> "" -> Some (v ^ "=" ^ s)
      | _ -> None)
    guarded_env

(* Warm resubmissions per cycle. One untraced cycle gives the 1000
   samples a p99 needs for ten beyond it; more spread the warm samples
   over more of the host's varying speed. It divides evenly among the
   service's cold manifests. *)
let warm_per_cycle = 1200

(* Stores, sockets and scratch files live under the working directory
   (the checkout), one directory per run. The socket path is relative
   so that it stays short whatever the checkout's path. *)
let work_root = "_perfbench"

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> Float.nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb ->
              kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* CPU time of this process, all threads, in seconds *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let descr p = Format.asprintf "%a" Plan.pp_point p

(* ------------------------------------------------------------------ *)
(* Tracing: an in-memory sink around one measured body                *)
(* ------------------------------------------------------------------ *)

type capture = {
  spans : Spans.t list;
  counters : (string * int) list;
  minor_words : float;
  wall : float;
}

let capture f =
  let buf = ref [] in
  Tel.reset ();
  Tel.set_enabled true;
  (* emission is serialized by the telemetry layer's own lock; worker
     processes forked while tracing inherit the sink, and drop what it
     would keep in their copy of [buf] *)
  let pid = Unix.getpid () in
  Tel.set_sink
    (Tel.Sink.custom (fun e -> if Unix.getpid () = pid then buf := Spans.of_event e :: !buf));
  let w0 = Gc.minor_words () in
  let v, wall = timed f in
  let minor_words = Gc.minor_words () -. w0 in
  Tel.close_sink ();
  let counters = (Tel.snapshot ()).Tel.counters in
  (v, { spans = !buf; counters; minor_words; wall })

let maybe_capture trace f =
  if trace then
    let v, c = capture f in
    (v, Some c)
  else (f (), None)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* One traced cycle: its capture, its cold points and the CPU time of
   the process executing submissions, per warm resubmission. *)
type traced = { cap : capture; planned : float; submit_cpu_ms : float }

let counter t name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name t.cap.counters))

let span_ms t name =
  1e3
  *. List.fold_left
       (fun acc (s : Spans.t) -> if s.name = name then acc +. Spans.dur s else acc)
       0.0 t.cap.spans

let self t name = Spans.self_time name t.cap.spans

(* The per-layer metrics: name, unit, whether only an in-process
   campaign can observe it, and its value in one traced cycle.

   In the sandboxed service the border searches and simulations run in
   worker processes, which ship no counters or spans back, and the
   daemon's own parse, plan, runner work and store close happen inside
   [Service.serve], where no span of the benchmark reaches. Those
   metrics are reported there as [absent]; the daemon's submit path is
   measured as a whole by [campaign.submit.cpu_ms]. *)
let layers =
  let k = counter in
  [
    ("campaign.manifest.parse_ms", "ms", true, fun t -> span_ms t "campaign.manifest.parse");
    ("campaign.plan.points_ms", "ms", true, fun t -> span_ms t "campaign.plan.points");
    ("campaign.submit.cpu_ms", "ms", false, fun t -> t.submit_cpu_ms);
    ("util.store.open_ms", "ms", false, fun t -> span_ms t "util.store.open");
    ("util.store.close_ms", "ms", true, fun t -> span_ms t "util.store.close");
    ("campaign.runner.self_s", "s", true, fun t -> self t "campaign.runner.run");
    ("util.checkpoint.records", "count", false, fun t -> k t "util.checkpoint.records");
    ("util.checkpoint.hits", "count", false, fun t -> k t "util.checkpoint.hits");
    ( "core.border.probes_per_point", "probes/point", true,
      fun t -> ratio (k t "core.border.probes") t.planned );
    ( "core.border.skipped_frac", "ratio", true,
      fun t -> ratio (k t "core.border.skipped_samples") (k t "core.border.probes") );
    ("core.border.unknown_edges", "count", true, fun t -> k t "core.border.unknown_edges");
    ( "dram.ops.hit_ratio", "ratio", true,
      fun t -> ratio (k t "dram.ops.cache_hits") (k t "dram.ops.requests") );
    ("dram.ops.run_batch_self_s", "s", true, fun t -> self t "ops.run_batch");
    ( "engine.ensemble.lanes_per_batch", "lanes/batch", true,
      fun t -> ratio (k t "engine.ensemble.lanes") (k t "engine.ensemble.batches") );
    ( "engine.ensemble.masked_lane_iters", "count", true,
      fun t -> k t "engine.ensemble.masked_lane_iters" );
    ("dram.ops.run_self_s", "s", true, fun t -> self t "ops.run");
    ("engine.transient.segment_self_s", "s", true, fun t -> self t "transient.segment");
    ( "engine.transient.steps_per_sim", "steps/sim", true,
      fun t -> ratio (k t "engine.transient.steps_accepted") (k t "engine.transient.runs") );
    ( "util.sparse_lu.reanalysis_frac", "ratio", true,
      fun t -> ratio (k t "util.sparse_lu.reanalyses") (k t "util.sparse_lu.numeric_refactor") );
    ( "engine.newton.iters_per_step", "iters/step", true,
      fun t -> ratio (k t "engine.newton.iterations") (k t "engine.newton.solves") );
    ("engine.mna.lu_factors", "count", true, fun t -> k t "engine.mna.lu_factors");
    ( "gc.minor_words_per_newton_iter", "words/iter", true,
      fun t -> ratio t.cap.minor_words (k t "engine.newton.iterations") );
    ("dram.ops.lane_fallbacks", "count", true, fun t -> k t "dram.ops.lane_fallbacks");
    ("dram.ops.retry_attempts", "count", true, fun t -> k t "dram.ops.retry_attempts");
    ("util.procpool.tasks", "count", false, fun t -> k t "util.procpool.tasks");
    ( "util.procpool.worker_restarts", "count", false,
      fun t -> k t "util.procpool.worker_restarts" );
    ( "campaign.service.points_streamed", "count", false,
      fun t -> k t "campaign.service.points_streamed" );
    ( "campaign.service.busy_rejections", "count", false,
      fun t -> k t "campaign.service.busy_rejections" );
    ( "trace.unattributed_frac", "ratio", false,
      fun t ->
        let self_total =
          List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Spans.self_times t.cap.spans)
        in
        ratio (t.cap.wall -. self_total) t.cap.wall );
  ]

(* The value reported for a metric the workload cannot observe: a
   number, as the report format needs, that no measurement can take. *)
let absent = -1.0

(* ------------------------------------------------------------------ *)
(* Cycle process: prints "m NAME VALUE" samples, "w MS" warm latencies,
   "r<TAB>POINT<TAB>PAYLOAD" finished points and "x MESSAGE" failed
   checks                                                              *)
(* ------------------------------------------------------------------ *)

let sample name v = Printf.printf "m %s %.17g\n" name v

let violation fmt =
  Printf.ksprintf
    (fun s -> Printf.printf "x %s\n" (String.map (function '\n' -> ' ' | c -> c) s))
    fmt

let check_warm ~planned ~reused ~simulated ~failed =
  if reused <> planned || simulated <> 0 || failed <> 0 then
    violation "warm resubmission: planned %d, reused %d, simulated %d, failed %d"
      planned reused simulated failed

(* Host speed, as the probes of one cycle found it. Every end-to-end
   timing a cycle reports is scaled by the slowdown that probes taken
   near it measured (see speed.ml), and the probes' own time is kept out
   of it. *)
let probes = ref []

(* [probe ()] is the probe's reading and the wall time, in seconds,
   that taking it cost *)
let probe () =
  let p, dt = timed (fun () -> span "perfbench.probe" Speed.probe) in
  probes := p :: !probes;
  (p, dt)

(* [warm n f] runs the warm submissions [f i] for i < n and returns
   their latencies in ms, each scaled by the probe that opens its block
   of 100, together with the probes' total time in seconds *)
let warm n f =
  let slow = ref 1.0 and probe_s = ref 0.0 in
  let lat =
    List.init n (fun i ->
        if i mod 100 = 0 then begin
          let p, dt = probe () in
          probe_s := !probe_s +. dt;
          slow := Speed.slowdown [ p ]
        end;
        let (), dt = timed (fun () -> f i) in
        1e3 *. dt /. !slow)
  in
  (lat, !probe_s)

let layer_samples ~in_daemon t =
  List.iter
    (fun (n, _, inproc_only, value) ->
      if not (in_daemon && inproc_only) then sample ("layer." ^ n) (value t))
    layers

(* A cold in-process campaign in a fresh store with an empty Ops cache,
   then warm reruns of it that read every point back. *)
let cycle_inprocess ~(w : Gen.workload) ~seed ~trace ~t0 ~dir =
  (* the in-process workloads have one manifest *)
  let text = List.hd (Gen.manifests w ~seed) in
  let body () =
    let m =
      span "campaign.manifest.parse" (fun () -> Manifest.of_string ~source:(Gen.name w) text)
    in
    ignore (span "campaign.plan.points" (fun () -> Plan.points m));
    let store = span "util.store.open" (fun () -> St.open_ ~name:(Gen.name w) dir) in
    O.clear_cache ();
    let sims0 = O.simulations () in
    let events = Atomic.make 0 in
    (* the manifest pins jobs 1, so points finish one at a time on this
       domain: a probe as each lands samples the speed all through the
       cold campaign, and its time is taken back out *)
    let cold_probes = ref [] and cold_probe_s = ref 0.0 in
    let on_point _ _ =
      Atomic.incr events;
      let p, dt = probe () in
      cold_probes := p :: !cold_probes;
      cold_probe_s := !cold_probe_s +. dt
    in
    let setup_s = now () -. t0 in
    let setup_slow = Speed.slowdown [ fst (probe ()) ] in
    let summary, cold_s =
      timed (fun () ->
          span "campaign.runner.run" (fun () -> Runner.run ~on_point ~store m))
    in
    let cold_s = cold_s -. !cold_probe_s in
    let sims = O.simulations () - sims0 in
    let planned = summary.Runner.planned in
    let cpu0 = cpu_s () in
    let lat, warm_probe_s =
      warm warm_per_cycle (fun _ ->
          let s = span "campaign.runner.warm" (fun () -> Runner.run ~store m) in
          check_warm ~planned ~reused:s.Runner.reused ~simulated:s.Runner.simulated
            ~failed:(List.length s.Runner.failures))
    in
    let submit_cpu_ms =
      1e3 *. (cpu_s () -. cpu0 -. warm_probe_s) /. float_of_int warm_per_cycle
    in
    span "util.store.close" (fun () -> St.close store);
    if Atomic.get events <> planned then
      violation "on_point: %d events for %d planned points" (Atomic.get events) planned;
    let cold_slow = Speed.slowdown !cold_probes in
    ( summary,
      setup_s /. setup_slow,
      float_of_int planned /. cold_s *. cold_slow,
      sims,
      lat,
      submit_cpu_ms )
  in
  let (summary, setup_s, points_per_s, sims, lat, submit_cpu_ms), cap =
    maybe_capture trace body
  in
  let planned = summary.Runner.planned in
  sample "setup_s" setup_s;
  sample "slowdown" (Speed.slowdown !probes);
  sample "points" (float_of_int planned);
  sample "failed" (float_of_int (List.length summary.Runner.failures));
  sample "points_per_s" points_per_s;
  sample "simulations" (float_of_int sims);
  List.iter (fun ms -> Printf.printf "w %.17g\n" ms) lat;
  Option.iter
    (fun cap ->
      (* the manifest pins jobs 1: no sweep layer may fan out *)
      let domains =
        float_of_int
          (Option.value ~default:0 (List.assoc_opt "util.par.domains_spawned" cap.counters))
      in
      if domains > 0.0 then violation "jobs 1 manifest spawned %.0f domains" domains;
      layer_samples ~in_daemon:false
        { cap; planned = float_of_int planned; submit_cpu_ms })
    cap;
  List.iter
    (fun (p, r) -> Printf.printf "r\t%s\t%s\n" (descr p) (Plan.encode_result r))
    summary.Runner.results;
  sample "peak_rss_mb" (peak_rss_mb ())

(* The client side of a service cycle, in its own process: one
   connection at a time, a closed loop. It waits for the daemon to
   answer, then submits each manifest cold and straight after resubmits
   it warm, so that the warm samples spread over the whole cycle rather
   than one stretch of the host's varying speed. [mark ()] returns once
   the daemon has read its CPU clock; it brackets each warm block. *)
let service_client ~texts ~t0 ~socket ~mark =
  let deadline = now () +. 10.0 in
  let rec ready () =
    match Svc.Client.request ~socket P.Status with
    | _ -> ()
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when now () < deadline ->
      Unix.sleepf 2e-4;
      ready ()
  in
  let shutdown () = try ignore (Svc.Client.request ~socket P.Shutdown) with _ -> () in
  Fun.protect ~finally:shutdown @@ fun () ->
  ready ();
  let setup_s = now () -. t0 in
  let streamed = ref [] in
  let on_event = function
    | P.Point { descr; status; payload } -> streamed := (descr, status, payload) :: !streamed
    | _ -> ()
  in
  let warm_per_manifest = warm_per_cycle / List.length texts in
  (* The cold rate and set-up time are scaled by the median of all the
     cycle's probes, which the warm blocks take on a busy CPU. A probe
     right after a cold submission or the start-up wait runs on a CPU
     that sat idle and read up to a third slow. *)
  let cold_s = ref 0.0 in
  let colds =
    List.map
      (fun text ->
        let r, dt = timed (fun () -> Svc.Client.submit ~on_event ~socket text) in
        cold_s := !cold_s +. dt;
        mark ();
        let planned, failed =
          match r with
          | Ok o ->
            if o.Svc.Client.simulated <> o.Svc.Client.planned then
              violation "cold submission simulated %d of %d points" o.Svc.Client.simulated
                o.Svc.Client.planned;
            (o.Svc.Client.planned, o.Svc.Client.failed)
          | Error e ->
            violation "cold submission: %s" e;
            (0, 0)
        in
        let lat, _ =
          warm warm_per_manifest (fun _ ->
              match Svc.Client.submit ~socket text with
              | Ok o ->
                check_warm ~planned ~reused:o.Svc.Client.reused
                  ~simulated:o.Svc.Client.simulated ~failed:o.Svc.Client.failed
              | Error e -> violation "warm resubmission: %s" e)
        in
        mark ();
        List.iter (fun ms -> Printf.printf "w %.17g\n" ms) lat;
        (planned, failed))
      texts
  in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 colds in
  let slow = Speed.slowdown !probes in
  sample "setup_s" (setup_s /. slow);
  sample "points_per_s" (float_of_int (total fst) /. !cold_s *. slow);
  sample "slowdown" slow;
  sample "points" (float_of_int (total fst));
  sample "failed" (float_of_int (total snd));
  List.iter
    (fun (d, status, payload) ->
      if status = P.Failed then violation "point %s failed: %s" d payload
      else Printf.printf "r\t%s\t%s\n" d payload)
    (List.rev !streamed)

(* A service cycle: this process is the daemon, with a forked client.
   The client is forked first, while this process is still
   single-threaded; the daemon then forks its own worker pool. The
   client marks its warm phase over a pipe; a thread of the daemon
   reads the daemon's CPU clock at each mark and acknowledges it. *)
let cycle_service ~(w : Gen.workload) ~seed ~trace ~t0 ~dir =
  let texts = Gen.manifests w ~seed in
  let workers = Domain.recommended_domain_count () in
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "d.sock" in
  let mark_r, mark_w = Unix.pipe ~cloexec:true () in
  let ack_r, ack_w = Unix.pipe ~cloexec:true () in
  flush stdout;
  match Unix.fork () with
  | 0 ->
    Unix.close mark_r;
    Unix.close ack_w;
    let mark () =
      let b = Bytes.make 1 'm' in
      if Unix.write mark_w b 0 1 <> 1 || Unix.read ack_r b 0 1 <> 1 then
        failwith "daemon gone"
    in
    let code =
      match service_client ~texts ~t0 ~socket ~mark with
      | () -> 0
      | exception e ->
        violation "client: %s" (Printexc.to_string e);
        1
    in
    flush stdout;
    Unix._exit code
  | client ->
    Unix.close mark_w;
    Unix.close ack_r;
    let marks = ref [] in
    let marker () =
      let b = Bytes.create 1 in
      while Unix.read mark_r b 0 1 = 1 do
        marks := cpu_s () :: !marks;
        ignore (Unix.write ack_w b 0 1)
      done
    in
    let body () =
      let store =
        span "util.store.open" (fun () ->
            St.open_ ~shards:16 ~name:(Gen.name w) (Filename.concat dir "store"))
      in
      let srv =
        span "campaign.service.create" (fun () ->
            Svc.create ~jobs:workers ~store ~socket_path:socket ())
      in
      (* started after the worker pool has forked *)
      let th = Thread.create marker () in
      span "campaign.service.serve" (fun () -> Svc.serve srv);
      th
    in
    (match maybe_capture trace body with
    | exception e ->
      violation "daemon: %s" (Printexc.to_string e);
      (try Unix.kill client Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] client)
    | th, cap ->
      (* the client has printed its lines and exited before ours follow *)
      (match Unix.waitpid [] client with
      | _, Unix.WEXITED 0 -> ()
      | _ -> violation "service client failed");
      (* the client's exit closed the mark pipe: the marker has ended *)
      Thread.join th;
      (* the marks pair up, newest first, as (end, start) of a warm block *)
      let rec warm_cpu = function
        | stop :: start :: rest -> (stop -. start) +. warm_cpu rest
        | _ -> 0.0
      in
      let n_marks = List.length !marks in
      if n_marks <> 2 * List.length texts then
        violation "%d warm-block marks for %d blocks" n_marks (List.length texts);
      let submit_cpu_ms = 1e3 *. warm_cpu !marks /. float_of_int warm_per_cycle in
      sample "workers" (float_of_int workers);
      Option.iter
        (fun cap ->
          (* [planned] only feeds probes_per_point, absent here *)
          layer_samples ~in_daemon:true { cap; planned = Float.nan; submit_cpu_ms })
        cap);
    sample "peak_rss_mb" (peak_rss_mb ())

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

(* The grid oracle: every point searched directly by [Border.search]
   with the grid strategy, without a deadline (so on the batched path),
   without the runner and without a store. *)
let oracle (m : Manifest.t) =
  let config = { m.Manifest.config with Sc.deadline = None } in
  let window = Border.Window.with_strategy Border.Window.Grid m.Manifest.window in
  O.clear_cache ();
  List.map
    (fun (p : Plan.point) ->
      let d =
        match p.Plan.detection with
        | Manifest.Seq d -> d
        | _ -> invalid_arg "perfbench: generated manifests use seq detections"
      in
      ( descr p,
        Border.search ~config ~window ~stress:p.Plan.stress
          ~kind:p.Plan.defect.D.kind ~placement:p.Plan.placement d ))
    (Plan.points m)

let within ~tol a b = Float.abs (a -. b) <= tol *. Float.abs b

let close_result ~tol (a : Border.result) (b : Border.result) =
  let edge x y = within ~tol (Border.edge_mid x) (Border.edge_mid y) in
  match (a, b) with
  | Border.Br x, Border.Br y -> within ~tol x y
  | Border.Faulty_band a, Border.Faulty_band b ->
    within ~tol a.lo b.lo && within ~tol a.hi b.hi
  | Border.Bands xs, Border.Bands ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (x : Border.band) (y : Border.band) ->
           edge x.b_lo y.b_lo && edge x.b_hi y.b_hi)
         xs ys
  | Border.Always_faulty, Border.Always_faulty
  | Border.Never_faulty, Border.Never_faulty
  | Border.Unsampled, Border.Unsampled ->
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Run: reference, cycles, aggregation                                 *)
(* ------------------------------------------------------------------ *)

type cycle_out = {
  traced : bool;
  samples : (string * float) list;
  warm_ms : float list;
  results : (string * string) list;
  violations : string list;
  cycle_wall : float;
}

let parse_cycle ~traced ~cycle_wall lines status =
  let samples = ref [] and warm = ref [] and results = ref [] and bad = ref [] in
  List.iter
    (fun l ->
      match String.split_on_char '\t' l with
      | [ "r"; d; payload ] -> results := (d, payload) :: !results
      | _ -> (
        match String.index_opt l ' ' with
        | Some 1 -> (
          let rest = String.sub l 2 (String.length l - 2) in
          match l.[0] with
          | 'm' -> (
            match String.split_on_char ' ' rest with
            | [ n; v ] -> samples := (n, float_of_string v) :: !samples
            | _ -> bad := ("malformed line: " ^ l) :: !bad)
          | 'w' -> warm := float_of_string rest :: !warm
          | 'x' -> bad := rest :: !bad
          | _ -> bad := ("malformed line: " ^ l) :: !bad)
        | _ -> bad := ("malformed line: " ^ l) :: !bad))
    lines;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> bad := Printf.sprintf "cycle exited with %d" n :: !bad
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    bad := Printf.sprintf "cycle killed by signal %d" n :: !bad);
  {
    traced;
    samples = List.rev !samples;
    warm_ms = List.rev !warm;
    results = List.rev !results;
    violations = List.rev !bad;
    cycle_wall;
  }

let spawn_cycle ~(w : Gen.workload) ~seed ~traced ~dir =
  let exe = Sys.executable_name in
  let t0 = now () in
  let args =
    [| exe; "cycle"; "--workload"; Gen.name w; "--seed"; string_of_int seed;
       "--trace"; (if traced then "1" else "0"); "--t0"; Printf.sprintf "%.17g" t0;
       "--dir"; dir |]
  in
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let lines = In_channel.input_lines ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  parse_cycle ~traced ~cycle_wall:(now () -. t0) lines status

let get c name = List.assoc_opt name c.samples

let median_of name cs =
  match List.filter_map (fun c -> get c name) cs with
  | [] -> None
  | xs -> Some (Stats.median xs)

let print_json ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          metrics))

let run ~(w : Gen.workload) ~seed ~seconds ~trace =
  (match env_overrides () with
  | [] -> ()
  | vs ->
    Printf.eprintf
      "perfbench: refusing to run with %s set: each changes what a workload \
       measures\n"
      (String.concat ", " vs);
    exit 2);
  let in_daemon = w = Gen.Service_sandboxed in
  let ms = List.map (Manifest.of_string ~source:(Gen.name w)) (Gen.manifests w ~seed) in
  let m = List.hd ms in
  let planned = List.length (List.concat_map Plan.points ms) in
  let tol = m.Manifest.window.Border.Window.rel_tol in
  if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
  let run_dir = Filename.concat work_root (string_of_int (Unix.getpid ())) in
  rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf run_dir;
      try Unix.rmdir work_root with Unix.Unix_error _ -> ())
  @@ fun () ->
  Printf.printf "workload %s, seed %d, %d points, %.0f s\n%!" (Gen.name w) seed
    planned seconds;
  (* The reference. Cold workloads are checked against the grid oracle
     within the window's rel_tol; the sandboxed service must equal the
     in-process campaign of the same manifests exactly. *)
  let reference, ref_s =
    timed (fun () ->
        if in_daemon then begin
          let store =
            St.open_ ~shards:16 ~name:"parity" (Filename.concat run_dir "parity")
          in
          O.clear_cache ();
          let results = List.concat_map (fun m -> (Runner.run ~store m).Runner.results) ms in
          St.close store;
          List.map (fun (p, r) -> (descr p, r.Plan.br)) results
        end
        else oracle m)
  in
  Printf.printf "reference: %d points in %.2f s (%s)\n%!" (List.length reference)
    ref_s
    (if in_daemon then "in-process campaign, exact match required"
     else Printf.sprintf "grid oracle, within rel_tol %g" tol);
  (* cycles: untraced only, or alternating untraced/traced *)
  let t_start = now () in
  let min_cycles = if trace then 4 else 3 in
  let rec loop i acc =
    let elapsed = now () -. t_start in
    let est =
      if acc = [] then 0.0 else Stats.median (List.map (fun c -> c.cycle_wall) acc)
    in
    if i >= min_cycles && elapsed +. est > seconds then List.rev acc
    else begin
      let dir = Filename.concat run_dir (Printf.sprintf "c%d" i) in
      let traced = trace && i mod 2 = 1 in
      let c = spawn_cycle ~w ~seed ~traced ~dir in
      rm_rf dir;
      Printf.printf "cycle %d%s: %.2f s, %d violation(s)\n%!" i
        (if traced then " (traced)" else "") c.cycle_wall
        (List.length c.violations);
      loop (i + 1) (c :: acc)
    end
  in
  let cycles = loop 0 [] in
  (* checks *)
  let violations = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iteri
    (fun i c ->
      List.iter (fun v -> flag "cycle %d: %s" i v) c.violations;
      if List.length c.results <> planned then
        flag "cycle %d: %d results for %d planned points" i
          (List.length c.results) planned;
      List.iter
        (fun (d, payload) ->
          match (Plan.decode_result payload, List.assoc_opt d reference) with
          | None, _ -> flag "cycle %d: %s: undecodable result" i d
          | _, None -> flag "cycle %d: %s: not in the reference" i d
          | Some r, Some ref_br ->
            let ok =
              if in_daemon then Border.equal_result r.Plan.br ref_br
              else close_result ~tol r.Plan.br ref_br
            in
            if not ok then
              flag "cycle %d: %s: %s, reference %s" i d
                (Format.asprintf "%a" Border.pp_result r.Plan.br)
                (Format.asprintf "%a" Border.pp_result ref_br))
        c.results)
    cycles;
  let untraced = List.filter (fun c -> not c.traced) cycles in
  let traced_cycles = List.filter (fun c -> c.traced) cycles in
  let warm = List.concat_map (fun c -> c.warm_ms) untraced in
  let sum name =
    List.fold_left
      (fun acc c -> acc + int_of_float (Option.value ~default:0.0 (get c name)))
      0 cycles
  in
  let attempted = sum "points" + List.length (List.concat_map (fun c -> c.warm_ms) cycles) in
  let failed_points = sum "failed" in
  let med name = Option.value ~default:Float.nan (median_of name untraced) in
  Printf.printf "config: jobs %d, lanes %d, nproc %d%s\n"
    (Sc.resolve_jobs m.Manifest.config)
    (Sc.resolve_lanes m.Manifest.config)
    (Domain.recommended_domain_count ())
    (if in_daemon then Printf.sprintf ", workers %.0f, store shards 16" (med "workers")
     else "");
  Printf.printf
    "host slowdown against the reference probe: %.3f (timings below are scaled by it)\n"
    (med "slowdown");
  let metrics =
    if not trace then begin
      let p50 = Stats.percentile ~p:50.0 ~min_beyond:0 warm in
      let p90 = Stats.percentile ~p:90.0 ~min_beyond:10 warm in
      let p99 = Stats.percentile ~p:99.0 ~min_beyond:10 warm in
      (match p99 with
      | None ->
        flag "%d warm samples: too few for a p99 with ten beyond it" (List.length warm)
      | Some (v, beyond) ->
        (* printed but not gated: about 1% of the daemon's warm
           submissions stall, which puts p99 on the edge of that tail
           and makes it swing several-fold between runs of the same code *)
        Printf.printf "submit p99 (not gated): %.4g ms, %d samples beyond\n" v beyond);
      let pct = function Some (v, _) -> v | None -> Float.nan in
      [
        ("setup_s", med "setup_s", "s");
        ("points_per_s", med "points_per_s", "1/s");
        (* simulations happen in the sandboxed workers, out of sight *)
        ( "simulations_per_point",
          (if in_daemon then absent else med "simulations" /. float_of_int planned),
          "sims/point" );
        ( "completed_point_frac",
          1.0 -. (float_of_int failed_points /. float_of_int (planned * List.length cycles)),
          "ratio" );
        ("submit_p50_ms", pct p50, "ms");
        ("submit_p90_ms", pct p90, "ms");
        ("peak_rss_mb", med "peak_rss_mb", "MB");
      ]
    end
    else begin
      let overhead =
        100.0
        *. (ratio
              (Option.value ~default:Float.nan (median_of "points_per_s" untraced))
              (Option.value ~default:Float.nan (median_of "points_per_s" traced_cycles))
           -. 1.0)
      in
      List.map
        (fun (n, u, inproc_only, _) ->
          let v =
            if in_daemon && inproc_only then absent
            else Option.value ~default:Float.nan (median_of ("layer." ^ n) traced_cycles)
          in
          (n, v, u))
        layers
      @ [ ("trace.overhead_pct", overhead, "%") ]
    end
  in
  List.iter
    (fun (n, v, u) ->
      if not (Float.is_finite v) then flag "metric %s was not measured" n;
      if v = absent then Printf.printf "  %-36s %14s (not observable here)\n" n "absent"
      else Printf.printf "  %-36s %14.6g %s\n" n v u)
    metrics;
  Printf.printf "  (%d cycles, %d warm samples)\n" (List.length cycles) (List.length warm);
  let violations = List.rev !violations in
  List.iter (fun v -> Printf.printf "VIOLATION %s\n" v) violations;
  let correct = violations = [] in
  print_json ~correct ~attempted ~failed:failed_points metrics;
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe cycle --workload NAME --seed N --trace 0|1 --t0 T --dir D\n\
     workloads: table1-grid retention-deadline service-sandboxed";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, opts = match args with m :: rest -> (m, rest) | [] -> usage () in
  let rec pairs = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> (k, v) :: pairs rest
    | [] -> []
    | _ -> usage ()
  in
  let opts = pairs opts in
  let opt k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let num conv k = match conv (opt k) with Some v -> v | None -> usage () in
  let w = match Gen.of_name (opt "--workload") with Some w -> w | None -> usage () in
  let seed = num int_of_string_opt "--seed" in
  let trace =
    match opt "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  match mode with
  | "run" -> run ~w ~seed ~seconds:(num float_of_string_opt "--seconds") ~trace
  | "cycle" -> (
    let t0 = num float_of_string_opt "--t0" and dir = opt "--dir" in
    match w with
    | Gen.Service_sandboxed -> cycle_service ~w ~seed ~trace ~t0 ~dir
    | _ -> cycle_inprocess ~w ~seed ~trace ~t0 ~dir)
  | _ -> usage ()
