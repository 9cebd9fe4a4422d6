(* Supervision machinery of Util.Procpool, exercised with real forked
   processes: crash-retry, quarantine after K deaths, wedge-kill via
   the task timeout, and pool shutdown. Fork-based, so this lives in
   its own binary that never spawns a domain. *)

module Procpool = Dramstress_util.Procpool
module Tel = Dramstress_util.Telemetry

(* The worker function is interpreted from the task payload so one
   pool shape serves every scenario:
     "echo:X"      -> returns X
     "attempt"     -> returns the attempt number it was handed
     "raise:M"     -> raises Failure M inside the worker (no death)
     "die-under:N" -> SIGKILLs itself while attempt < N, then echoes
     "hang"        -> sleeps forever (only the task timeout ends it) *)
let worker ~attempt payload =
  let prefixed p =
    if String.length payload >= String.length p
       && String.sub payload 0 (String.length p) = p
    then Some (String.sub payload (String.length p)
                 (String.length payload - String.length p))
    else None
  in
  match
    (prefixed "echo:", prefixed "raise:", prefixed "die-under:", payload)
  with
  | Some x, _, _, _ -> x
  | _, Some m, _, _ -> failwith m
  | _, _, Some n, _ ->
    if attempt < int_of_string n then Unix.kill (Unix.getpid ()) Sys.sigkill;
    Printf.sprintf "survived:%d" attempt
  | _, _, _, "attempt" -> string_of_int attempt
  | _, _, _, "hang" ->
    while true do
      Unix.sleepf 3600.0
    done;
    assert false
  | _ -> failwith ("unknown task " ^ payload)

let fast_backoff = (0.01, 0.05)

let with_pool ?(workers = 2) ?(max_task_deaths = 3) ?task_timeout f =
  let pool =
    Procpool.create ~max_task_deaths ~backoff:fast_backoff ?task_timeout
      ~workers ~worker ()
  in
  Fun.protect ~finally:(fun () -> Procpool.shutdown pool) (fun () -> f pool)

let ok = function
  | Ok v -> v
  | Error (`Worker_error m) -> Alcotest.failf "worker error: %s" m
  | Error (`Worker_lost n) -> Alcotest.failf "worker lost (%d deaths)" n

let test_echo_concurrent () =
  with_pool ~workers:2 @@ fun pool ->
  Alcotest.(check int) "pool size" 2 (Procpool.size pool);
  (* more threads than workers: excess callers queue on the pool *)
  let results = Array.make 8 "" in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            results.(i) <- ok (Procpool.exec pool (Printf.sprintf "echo:r%d" i)))
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i r -> Alcotest.(check string) "echoed" (Printf.sprintf "r%d" i) r)
    results;
  Alcotest.(check string) "first attempt is 0" "0"
    (ok (Procpool.exec pool "attempt"))

let test_worker_error_is_not_a_death () =
  with_pool ~workers:1 @@ fun pool ->
  (match Procpool.exec pool "raise:boom" with
  | Error (`Worker_error m) ->
    let contains s sub =
      let n = String.length s and k = String.length sub in
      let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message carried" true (contains m "boom")
  | Ok _ -> Alcotest.fail "raise must surface as Worker_error"
  | Error (`Worker_lost _) ->
    Alcotest.fail "an exception is not a process death");
  (* same worker still alive: a raise never trips supervision *)
  Alcotest.(check string) "worker survived the raise" "after"
    (ok (Procpool.exec pool "echo:after"))

let test_crash_retry_and_restart () =
  let c_restarts = Tel.Counter.make "util.procpool.worker_restarts" in
  let was = Tel.enabled () in
  Tel.set_enabled true;
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
  let restarts0 = Tel.Counter.value c_restarts in
  let restarts () = Tel.Counter.value c_restarts - restarts0 in
  with_pool ~workers:1 ~max_task_deaths:3 @@ fun pool ->
  (* kills the first two workers that pick it up, third attempt lands *)
  Alcotest.(check string) "third attempt survives" "survived:2"
    (ok (Procpool.exec pool "die-under:2"));
  (* both corpses are replaced (asynchronously) by the supervisor *)
  let rec await n =
    if restarts () >= 2 then ()
    else if n = 0 then
      Alcotest.failf "only %d restart(s) after two deaths" (restarts ())
    else begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 100;
  Alcotest.(check int) "exactly one restart per death" 2 (restarts ());
  Alcotest.(check string) "pool serves after restarts" "alive"
    (ok (Procpool.exec pool "echo:alive"))

let test_poison_quarantine () =
  with_pool ~workers:1 ~max_task_deaths:3 @@ fun pool ->
  (match Procpool.exec pool "die-under:1000" with
  | Error (`Worker_lost 3) -> ()
  | Error (`Worker_lost n) -> Alcotest.failf "quarantined after %d, want 3" n
  | Ok _ | Error (`Worker_error _) ->
    Alcotest.fail "a lethal task must be quarantined as Worker_lost");
  (* graceful degradation: the task died, the pool did not *)
  Alcotest.(check string) "pool alive after quarantine" "ok"
    (ok (Procpool.exec pool "echo:ok"))

let test_task_timeout_kills_wedged_worker () =
  with_pool ~workers:1 ~max_task_deaths:2 ~task_timeout:0.3 @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  (match Procpool.exec pool "hang" with
  | Error (`Worker_lost 2) -> ()
  | Ok _ | Error _ -> Alcotest.fail "a hang must end as Worker_lost");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "timeout bounded the hang" true (elapsed < 10.0);
  Alcotest.(check string) "pool alive after wedge kills" "ok"
    (ok (Procpool.exec pool "echo:ok"))

let test_shutdown () =
  let pool =
    Procpool.create ~backoff:fast_backoff ~workers:2 ~worker ()
  in
  Alcotest.(check string) "pool works" "x" (ok (Procpool.exec pool "echo:x"));
  Procpool.shutdown pool;
  (match Procpool.exec pool "echo:y" with
  | Error (`Worker_error _) -> ()
  | Ok _ | Error (`Worker_lost _) ->
    Alcotest.fail "exec after shutdown must fail as Worker_error");
  (* every child reaped: no zombies left for this process *)
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.fail "a child is still running after shutdown"
  | _ -> Alcotest.fail "a zombie survived shutdown"

(* ---- counters across the process boundary ---- *)

let c_worker = Tel.Counter.make "test.procpool.worker_count"

(* "N" adds N to [c_worker] and returns it; "raise:N" adds N, then
   raises *)
let counting_worker ~attempt:_ payload =
  match String.split_on_char ':' payload with
  | [ "raise"; n ] ->
    Tel.Counter.add c_worker (int_of_string n);
    failwith "counted, then raised"
  | [ n ] ->
    Tel.Counter.add c_worker (int_of_string n);
    n
  | _ -> failwith ("unknown task " ^ payload)

(* the parent's count before the fork is the workers' baseline, so it
   is not shipped back; each reply, K or E, carries what its worker
   counted since its last reply *)
let test_worker_counters_reach_parent () =
  let was = Tel.enabled () in
  Tel.set_enabled true;
  let before = Tel.Counter.value c_worker in
  Tel.Counter.add c_worker 5;
  let pool =
    Procpool.create ~backoff:fast_backoff ~workers:2 ~worker:counting_worker ()
  in
  Fun.protect
    ~finally:(fun () ->
      Procpool.shutdown pool;
      Tel.set_enabled was)
  @@ fun () ->
  List.iter
    (fun n -> Alcotest.(check string) "echoed" n (ok (Procpool.exec pool n)))
    [ "1"; "20"; "300" ];
  (match Procpool.exec pool "raise:4000" with
  | Error (`Worker_error _) -> ()
  | _ -> Alcotest.fail "expected a worker error");
  Alcotest.(check int) "pre-fork count once, then every worker's" 4326
    (Tel.Counter.value c_worker - before)

let test_reply_codec () =
  let r =
    { Procpool.ok = false; deltas = [ ("a.b", 3); ("c", -2) ];
      body = "line 1\nline 2, with a comma=and an equals" }
  in
  Alcotest.(check bool) "round trip" true
    (Procpool.decode_reply (Procpool.encode_reply r) = Ok r);
  let empty = { Procpool.ok = true; deltas = []; body = "" } in
  Alcotest.(check bool) "no deltas, empty body" true
    (Procpool.decode_reply (Procpool.encode_reply empty) = Ok empty);
  List.iter
    (fun frame ->
      match Procpool.decode_reply frame with
      | Error (`Malformed _) -> ()
      | Ok _ -> Alcotest.failf "decoded malformed reply %S" frame
      | exception e ->
        Alcotest.failf "%S raised %s" frame (Printexc.to_string e))
    [ ""; "K"; "Kbody"; "X\nbody"; "Ka=1,b\nbody"; "Ka=x\nbody";
      "K=1\nbody"; "Ka=1,,b=2\n"; "Ka=99999999999999999999999\n" ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dramstress_procpool"
    [
      ( "procpool",
        [
          tc "echo through concurrent callers" test_echo_concurrent;
          tc "worker exception is an error, not a death"
            test_worker_error_is_not_a_death;
          tc "crash retried on fresh workers, corpses restarted"
            test_crash_retry_and_restart;
          tc "poison task quarantined after K deaths" test_poison_quarantine;
          tc "task timeout SIGKILLs a wedged worker"
            test_task_timeout_kills_wedged_worker;
          tc "shutdown reaps every worker" test_shutdown;
          tc "worker counters reach the parent"
            test_worker_counters_reach_parent;
          tc "reply codec refuses malformed deltas" test_reply_codec;
        ] );
    ]
