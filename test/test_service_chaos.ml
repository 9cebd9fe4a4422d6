(* Server-level chaos: SIGKILL the campaign service mid-campaign,
   restart it on the same sharded store, resubmit, and require that
   completed points are never re-simulated and that the final store is
   record-identical to an unkilled single-process run.

   Fork-based, so this lives in its own binary: OCaml refuses
   [Unix.fork] once any domain has ever been spawned, which is why the
   parent only ever uses [jobs = 1] (the inline path of [Par]). The
   forked servers are free to thread and spawn as they like. *)

module Cp = Dramstress_campaign
module Manifest = Cp.Manifest
module Plan = Cp.Plan
module Runner = Cp.Runner
module Pr = Cp.Protocol
module Svc = Cp.Service
module St = Dramstress_util.Store
module Chaos = Dramstress_util.Chaos

let with_dir f =
  let dir = Filename.temp_file "dramstress_chaos" "" in
  Sys.remove dir;
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

let manifest_text =
  {|
(campaign
  (name chaos-t)
  (defects (O1 true))
  (stress nominal)
  (stress low-vdd (vdd 2.1))
  (detections (seq "w1 w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}

(* The daemon under test, optionally with torn-write chaos armed so
   the kill also exercises truncated-record recovery. [sandbox]
   defaults off to preserve the original in-process scenario; the
   supervision tests below turn it on, with [env] setting
   DRAMSTRESS_WORKER_KILL before the pool forks so workers inherit
   the kill spec. *)
let fork_server ?chaos ?(sandbox = false) ?worker_deaths ?env ~dir ~socket () =
  match Unix.fork () with
  | 0 ->
    (try
       Option.iter (fun (k, v) -> Unix.putenv k v) env;
       Option.iter (fun spec -> Chaos.configure ~seed:7 spec) chaos;
       let store = St.open_ ~name:"chaos-t" dir in
       let srv =
         Svc.create ~jobs:1 ~sandbox ?max_task_deaths:worker_deaths ~store
           ~socket_path:socket ()
       in
       Svc.serve srv
     with _ -> ());
    Unix._exit 0
  | pid -> pid

let fork_client ~socket text =
  match Unix.fork () with
  | 0 ->
    (* the submission this client drives is expected to die with the
       first server; any outcome (including transport failure) is fine *)
    (try
       ignore
         (Svc.Client.submit_retrying ~attempts:8 ~delay:0.25 ~socket text)
     with _ -> ());
    Unix._exit 0
  | pid -> pid

let done_points m dir =
  let s = St.open_ ~name:"chaos-t" dir in
  let sts = Runner.states ~store:s m in
  St.close s;
  List.length
    (List.filter (fun (_, st) -> match st with `Done _ -> true | _ -> false) sts)

let test_kill_restart_resubmit () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_dir @@ fun srv_dir ->
  with_dir @@ fun ref_dir ->
  let socket = Filename.temp_file "dramstress_chaos" ".sock" in
  Sys.remove socket;
  let m = Manifest.of_string manifest_text in
  let points = Plan.points m in
  (* pin the sharded layout before any process races to create it *)
  let s = St.open_ ~shards:4 ~name:"chaos-t" srv_dir in
  St.close s;
  let server1 =
    fork_server ~chaos:"truncate_checkpoint@9" ~dir:srv_dir ~socket ()
  in
  let client1 = fork_client ~socket manifest_text in
  (* wait until at least one point is durably recorded, then murder
     the daemon mid-campaign *)
  let rec wait_progress n =
    if n = 0 then Alcotest.fail "no point completed before the kill"
    else if done_points m srv_dir < 1 then begin
      Unix.sleepf 0.25;
      wait_progress (n - 1)
    end
  in
  wait_progress 480;
  Unix.kill server1 Sys.sigkill;
  ignore (Unix.waitpid [] server1);
  ignore (Unix.waitpid [] client1);
  let completed_before = done_points m srv_dir in
  Alcotest.(check bool) "progress survived the kill" true
    (completed_before >= 1);
  (* restart on the same store, resubmit from this process *)
  let server2 = fork_server ~dir:srv_dir ~socket () in
  (match
     Svc.Client.submit_retrying ~attempts:40 ~delay:0.25 ~socket
       manifest_text
   with
  | Error msg -> Alcotest.failf "resubmission rejected: %s" msg
  | Ok o ->
    Alcotest.(check int) "full plan" (List.length points) o.Svc.Client.planned;
    Alcotest.(check int) "no failures" 0 o.Svc.Client.failed;
    (* the acceptance criterion: zero re-simulation of completed points *)
    Alcotest.(check int) "completed points reused, not re-simulated"
      completed_before o.Svc.Client.reused;
    Alcotest.(check int) "only the lost points simulated"
      (List.length points - completed_before)
      (o.Svc.Client.simulated + o.Svc.Client.deduped));
  (match Svc.Client.request ~socket Pr.Shutdown with
  | Pr.Bye -> ()
  | _ -> Alcotest.fail "expected bye");
  ignore (Unix.waitpid [] server2);
  (* an unkilled single-process run is the reference: the store that
     lived through kill + restart must hold record-identical results
     for every planned point *)
  let rs = St.open_ ~name:"ref" ref_dir in
  let r = Runner.run ~jobs:1 ~store:rs m in
  St.close rs;
  Alcotest.(check int) "reference run clean" 0
    (List.length r.Runner.failures);
  let rs = St.open_ ~name:"ref" ref_dir in
  let ss = St.open_ ~name:"chaos-t" srv_dir in
  List.iter
    (fun p ->
      let key = Plan.descriptor m p in
      let survived = St.find ss ~key and reference = St.find rs ~key in
      Alcotest.(check bool) "point recorded on both sides" true
        (survived <> None && reference <> None);
      Alcotest.(check (option string)) "record-identical to unkilled run"
        reference survived)
    points;
  St.close rs;
  St.close ss;
  try Sys.remove socket with Sys_error _ -> ()

(* ---- sandboxed worker supervision ---- *)

let fresh_socket () =
  let s = Filename.temp_file "dramstress_chaos" ".sock" in
  Sys.remove s;
  s

let counters ~socket =
  match Svc.Client.request ~socket Pr.Counters with
  | Pr.Counter_values cs -> cs
  | _ -> Alcotest.fail "expected counters"

let counter cs name =
  match List.assoc_opt name cs with Some n -> n | None -> 0

(* the supervisor restarts corpses asynchronously; poll the live daemon
   until the restart counter catches up with the deaths we caused *)
let await_restarts ~socket want =
  let rec go n =
    let got = counter (counters ~socket) "util.procpool.worker_restarts" in
    if got >= want then got
    else if n = 0 then
      Alcotest.failf "only %d worker restart(s), want >= %d" got want
    else begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 100

let shutdown_clean ~socket server =
  (match Svc.Client.request ~socket Pr.Shutdown with
  | Pr.Bye -> ()
  | _ -> Alcotest.fail "expected bye");
  match Unix.waitpid [] server with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "server exited %d" n
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
    Alcotest.failf "server killed by signal %d" s

(* SIGKILL the worker process mid-point, twice: the daemon must
   survive, retry the point on fresh workers, land it on the third
   attempt, and account exactly one restart per corpse *)
let test_sandbox_worker_kill_survives () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_dir @@ fun dir ->
  let socket = fresh_socket () in
  let server =
    fork_server ~sandbox:true ~worker_deaths:3
      ~env:("DRAMSTRESS_WORKER_KILL", "low-vdd:2") ~dir ~socket ()
  in
  (match
     Svc.Client.submit_retrying ~attempts:40 ~delay:0.25 ~socket manifest_text
   with
  | Error msg -> Alcotest.failf "submission rejected: %s" msg
  | Ok o ->
    Alcotest.(check int) "full plan" 2 o.Svc.Client.planned;
    (* the murdered point retried to completion: no failures at all *)
    Alcotest.(check int) "no failures despite two worker kills" 0
      o.Svc.Client.failed;
    Alcotest.(check int) "everything simulated" 2 o.Svc.Client.simulated);
  let restarts = await_restarts ~socket 2 in
  Alcotest.(check int) "exactly one restart per kill" 2 restarts;
  let cs = counters ~socket in
  Alcotest.(check int) "a retried point is not poison" 0
    (counter cs "util.procpool.tasks_lost");
  shutdown_clean ~socket server;
  try Sys.remove socket with Sys_error _ -> ()

(* a point that kills EVERY worker that touches it: quarantined as
   Failed after K deaths, the other point lands, the daemon lives, and
   the surviving record is byte-identical to an uninjured local run *)
let test_sandbox_poison_point_quarantined () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_dir @@ fun srv_dir ->
  with_dir @@ fun ref_dir ->
  let socket = fresh_socket () in
  let server =
    fork_server ~sandbox:true ~worker_deaths:3
      ~env:("DRAMSTRESS_WORKER_KILL", "low-vdd:1000") ~dir:srv_dir ~socket ()
  in
  (match
     Svc.Client.submit_retrying ~attempts:40 ~delay:0.25 ~socket manifest_text
   with
  | Error msg -> Alcotest.failf "submission rejected: %s" msg
  | Ok o ->
    Alcotest.(check int) "full plan" 2 o.Svc.Client.planned;
    Alcotest.(check int) "the poison point is the only failure" 1
      o.Svc.Client.failed;
    Alcotest.(check int) "the healthy point landed" 1 o.Svc.Client.simulated);
  ignore (await_restarts ~socket 3);
  let cs = counters ~socket in
  Alcotest.(check int) "poison quarantined once" 1
    (counter cs "util.procpool.tasks_lost");
  (* graceful degradation: the daemon still answers *)
  (match Svc.Client.request ~socket Pr.Status with
  | Pr.Status_report _ -> ()
  | _ -> Alcotest.fail "daemon must survive a poison point");
  shutdown_clean ~socket server;
  (* the surviving record vs an uninjured single-process reference *)
  let m = Manifest.of_string manifest_text in
  let rs = St.open_ ~name:"ref" ref_dir in
  let r = Runner.run ~jobs:1 ~store:rs m in
  St.close rs;
  Alcotest.(check int) "reference run clean" 0 (List.length r.Runner.failures);
  let rs = St.open_ ~name:"ref" ref_dir in
  let ss = St.open_ ~name:"chaos-t" srv_dir in
  List.iter
    (fun p ->
      let descr = Format.asprintf "%a" Plan.pp_point p in
      let key = Plan.descriptor m p in
      let survived = St.find ss ~key and reference = St.find rs ~key in
      let contains s sub =
        let n = String.length s and k = String.length sub in
        let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
        go 0
      in
      if contains descr "low-vdd" then
        Alcotest.(check (option string)) "poison point has no result record"
          None survived
      else
        Alcotest.(check (option string))
          "surviving record byte-identical to uninjured run" reference
          survived)
    (Plan.points m);
  St.close rs;
  St.close ss;
  try Sys.remove socket with Sys_error _ -> ()

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dramstress_service_chaos"
    [
      ( "service-chaos",
        [
          tc "kill, restart, resubmit: no re-simulation"
            test_kill_restart_resubmit;
          tc "sandbox: SIGKILLed worker retried, daemon survives"
            test_sandbox_worker_kill_survives;
          tc "sandbox: poison point quarantined after K deaths"
            test_sandbox_poison_point_quarantined;
        ] );
    ]
