(* Campaign subsystem: manifest parsing and diagnostics, plan content
   addressing, store-backed runs (reuse, failure retry), and diff
   reports. Electrical points use a narrow border window so the whole
   suite stays cheap. *)

module Cp = Dramstress_campaign
module Manifest = Cp.Manifest
module Plan = Cp.Plan
module Runner = Cp.Runner
module Diff = Cp.Diff
module D = Dramstress_defect.Defect
module S = Dramstress_dram.Stress
module Sc = Dramstress_dram.Sim_config
module O = Dramstress_dram.Ops
module C = Dramstress_core
module M = Dramstress_march.March
module St = Dramstress_util.Store
module Outcome = Dramstress_util.Outcome
module W = C.Border.Window
module Tel = Dramstress_util.Telemetry

(* the narrowed window the diff/adaptive manifests below pin *)
let window5 = W.v ~r_min:1e4 ~r_max:1e8 ~grid_points:5 ~rel_tol:0.05 ()

let with_store_dir f =
  let dir = Filename.temp_file "dramstress_campaign" "" in
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

(* ------------------------------------------------------------------ *)
(* manifest                                                            *)
(* ------------------------------------------------------------------ *)

let full_manifest =
  {|
(campaign
  (name vdd-study) ; comments survive anywhere
  (defects O1 (Sg true) (B1 comp))
  (stress nominal)
  (stress low-vdd (vdd 2.1))
  (sweep (vdd 2.1 2.7) (temp -33 87))
  (detections best best-no-pause (seq "w1 w1 w0 r0")
              (march "{up(w0);up(r0,w1)}"))
  (sim (steps-per-cycle 200) (deadline 30) (jobs 2))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}

let test_manifest_full () =
  let m = Manifest.of_string full_manifest in
  Alcotest.(check string) "name" "vdd-study" m.Manifest.name;
  (* bare O1 expands to both placements *)
  Alcotest.(check int) "defect placements" 4 (List.length m.Manifest.defects);
  (* 2 explicit + 2x2 sweep *)
  Alcotest.(check (list string))
    "stress labels, declaration order then sweep"
    [ "nominal"; "low-vdd"; "vdd=2.1,temp=-33"; "vdd=2.1,temp=87";
      "vdd=2.7,temp=-33"; "vdd=2.7,temp=87" ]
    (List.map fst m.Manifest.stresses);
  Alcotest.(check int) "detections" 4 (List.length m.Manifest.detections);
  Alcotest.(check int) "steps-per-cycle" 200 m.Manifest.config.Sc.steps_per_cycle;
  Alcotest.(check (option int)) "jobs" (Some 2) m.Manifest.config.Sc.jobs;
  Alcotest.(check (float 0.0)) "r-min" 1e4 m.Manifest.window.W.r_min;
  Alcotest.(check int) "grid" 5 m.Manifest.window.W.grid_points;
  (* the sweep entries really moved the axes *)
  let swept = List.assoc "vdd=2.1,temp=87" m.Manifest.stresses in
  Alcotest.(check (float 0.0)) "swept vdd" 2.1 swept.S.vdd;
  Alcotest.(check (float 0.0)) "swept temp" 87.0 swept.S.temp_c

let test_manifest_defaults () =
  let m =
    Manifest.of_string "(campaign (name d) (defects O1) (stress nominal))"
  in
  Alcotest.(check int) "detections default to best" 1
    (List.length m.Manifest.detections);
  Alcotest.(check bool) "the default is Best" true
    (m.Manifest.detections = [ Manifest.Best ]);
  Alcotest.(check (float 0.0)) "default r-min" 1e3 m.Manifest.window.W.r_min;
  Alcotest.(check (float 0.0)) "default r-max" 1e11 m.Manifest.window.W.r_max;
  Alcotest.(check int) "default grid" 13 m.Manifest.window.W.grid_points;
  Alcotest.(check bool) "default strategy is grid" true
    (m.Manifest.window.W.strategy = W.Grid)

let test_manifest_collects_diagnostics () =
  (* one parse, every problem reported: unknown defect, bad axis,
     duplicate label, missing name *)
  let src =
    {|
(campaign
  (defects O9 O1)
  (stress a (frequency 2))
  (stress a)
  (border (grid-points 1)))
|}
  in
  match Manifest.of_string src with
  | _ -> Alcotest.fail "expected Invalid"
  | exception Manifest.Invalid ds ->
    let has pred = List.exists pred ds in
    Alcotest.(check bool) "unknown defect" true
      (has (function Manifest.Unknown_defect { id = "O9" } -> true | _ -> false));
    Alcotest.(check bool) "bad stress axis" true
      (has (function
        | Manifest.Bad_value { section = "stress"; field = "frequency"; _ } ->
          true
        | _ -> false));
    Alcotest.(check bool) "duplicate label" true
      (has (function
        | Manifest.Duplicate_label { label = "a" } -> true
        | _ -> false));
    Alcotest.(check bool) "bad grid" true
      (has (function
        | Manifest.Bad_value { section = "border"; field = "grid-points"; _ }
          ->
          true
        | _ -> false));
    Alcotest.(check bool) "missing name" true
      (has (function
        | Manifest.Missing_field { section = "campaign"; field = "name" } ->
          true
        | _ -> false))

let test_manifest_parse_error_line () =
  match Manifest.of_string "(campaign\n  (name x)\n  (defects O1" with
  | _ -> Alcotest.fail "expected Invalid"
  | exception Manifest.Invalid [ Manifest.Parse_error { line; _ } ] ->
    Alcotest.(check int) "line of the unclosed paren" 3 line
  | exception Manifest.Invalid _ -> Alcotest.fail "expected one parse error"

let bad_range_diag src pred =
  match Manifest.of_string src with
  | _ -> Alcotest.fail "expected Invalid"
  | exception Manifest.Invalid ds ->
    Alcotest.(check bool) "Bad_range reported" true (List.exists pred ds)

let test_manifest_range_min_ge_max () =
  bad_range_diag
    {|(campaign (name r) (defects O1) (stress nominal)
       (sweep (vdd (range 2.7 2.1 3))))|}
    (function
      | Manifest.Bad_range { axis = "vdd"; lo; hi; reason } ->
        lo = 2.7 && hi = 2.1 && reason = "range min >= max"
      | _ -> false)

let test_manifest_range_log_crosses_zero () =
  (* wait sweeps default to the registry's log scale, where a zero
     endpoint is meaningless *)
  bad_range_diag
    {|(campaign (name r) (defects O1) (stress nominal)
       (sweep (wait (range 0 1 3))))|}
    (function
      | Manifest.Bad_range { axis = "wait"; reason; _ } ->
        reason = "log sweep crosses (or touches) zero"
      | _ -> false)

let test_manifest_extended_sweep () =
  (* range expansion and discrete patterns cross like any other axis,
     with labels rendered by the registry *)
  let m =
    Manifest.of_string
      {|(campaign (name e) (defects O1)
         (sweep (wait (range 0.01 1.0 3)) (pattern all1 checkerboard)))|}
  in
  Alcotest.(check (list string)) "labels: log mid-point, pattern names"
    [ "wait=0.01,pattern=all1"; "wait=0.01,pattern=checkerboard";
      "wait=0.1,pattern=all1"; "wait=0.1,pattern=checkerboard";
      "wait=1,pattern=all1"; "wait=1,pattern=checkerboard" ]
    (List.map fst m.Manifest.stresses);
  let sc = List.assoc "wait=1,pattern=checkerboard" m.Manifest.stresses in
  Alcotest.(check (float 1e-9)) "wait moved" 1.0 sc.S.wait;
  Alcotest.(check bool) "pattern moved" true (sc.S.pattern = S.Checkerboard);
  (* an explicit lin override on a log-default axis admits zero *)
  let m =
    Manifest.of_string
      {|(campaign (name e) (defects O1)
         (sweep (wait (range 0 1 3 lin))))|}
  in
  Alcotest.(check (list string)) "linear override"
    [ "wait=0"; "wait=0.5"; "wait=1" ]
    (List.map fst m.Manifest.stresses)

(* ------------------------------------------------------------------ *)
(* plan: content addressing                                            *)
(* ------------------------------------------------------------------ *)

let mini ?(detections = {|(detections (seq "w1 w1 w0 r0"))|}) ?(sim = "")
    ?(border = "(border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05))")
    ?(stress = "(stress nominal)") () =
  Manifest.of_string
    (Printf.sprintf "(campaign (name mini) (defects (O1 true)) %s %s %s %s)"
       stress detections sim border)

(* Store keys and chain keys are built by concatenation, not by a
   formatter; the text must be the formatter's, byte for byte, or every
   stored record stops being found. Pinned for every catalog defect on
   both placements, at two stresses, and for every point of a manifest
   that spans three defects and four detection kinds. *)
let test_keys_concatenate_as_formatted () =
  let key = Sc.key (Sc.v ~jobs:1 ()) in
  let physics = "physics=" ^ Digest.to_hex (Digest.string (Sc.physics_key (Sc.v ~jobs:1 ()))) in
  List.iter
    (fun (e : D.entry) ->
      List.iter
        (fun placement ->
          List.iter
            (fun stress ->
              let fields = [ "f=1"; "g=2" ] in
              Alcotest.(check string) "Sim_config.key"
                (String.concat "|"
                   ("border.search" :: physics :: S.key stress
                   :: Format.asprintf "defect=%a/%s" D.pp_kind e.D.kind
                        (if placement = D.True_bl then "true" else "comp")
                   :: fields))
                (key "border.search" ~stress ~kind:e.D.kind ~placement fields))
            [ S.nominal; S.with_vdd (S.with_temp_c S.nominal 87.0) 2.1 ])
        [ D.True_bl; D.Comp_bl ])
    D.catalog;
  List.iter
    (fun (p : Plan.point) ->
      Alcotest.(check string) "Runner.chain_key"
        (Format.asprintf "%s|%a|%s" p.Plan.defect.D.id D.pp_placement
           p.Plan.placement
           (Manifest.detection_label p.Plan.detection))
        (Runner.chain_key p))
    (Plan.points (Manifest.of_string full_manifest))

let test_plan_cross_product () =
  let m = Manifest.of_string full_manifest in
  let pts = Plan.points m in
  (* 4 placements x 6 stresses x 4 detections *)
  Alcotest.(check int) "cross product" (4 * 6 * 4) (List.length pts);
  (* detections innermost: first four points share defect and stress *)
  match pts with
  | a :: b :: _ ->
    Alcotest.(check string) "same stress first"
      a.Plan.stress_label b.Plan.stress_label;
    Alcotest.(check bool) "different detection" true
      (a.Plan.detection <> b.Plan.detection)
  | _ -> Alcotest.fail "empty plan"

let test_descriptor_sensitivity () =
  let base = mini () in
  let d m = (List.hd (Plan.points m)).Plan.key in
  (* value-changing inputs move the address *)
  Alcotest.(check bool) "stress changes it" true
    (d base <> d (mini ~stress:"(stress hot (temp 87))" ()));
  Alcotest.(check bool) "sim physics changes it" true
    (d base <> d (mini ~sim:"(sim (steps-per-cycle 123))" ()));
  Alcotest.(check bool) "border window changes it" true
    (d base
    <> d
         (mini
            ~border:
              "(border (r-min 1e4) (r-max 1e9) (grid-points 5) (rel-tol 0.05))"
            ()));
  Alcotest.(check bool) "detection changes it" true
    (d base <> d (mini ~detections:{|(detections (seq "w0 r0"))|} ()));
  (* scheduling and naming do NOT *)
  Alcotest.(check string) "jobs/deadline do not"
    (d base)
    (d (mini ~sim:"(sim (jobs 7) (deadline 5))" ()));
  Alcotest.(check string) "stress label does not"
    (d base)
    (d (mini ~stress:"(stress renamed)" ()))

let test_descriptor_defect_injective () =
  (* distinct (defect, placement) pairs never share an address *)
  let m = Manifest.of_string full_manifest in
  let pts = Plan.points m in
  let keys = List.map (fun (p : Plan.point) -> p.key) pts in
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun k ->
      if Hashtbl.mem tbl k then Alcotest.failf "collision on %s" k
      else Hashtbl.add tbl k ())
    keys;
  Alcotest.(check int) "all distinct" (List.length pts) (Hashtbl.length tbl)

let test_descriptor_domain_stable () =
  let m = mini () in
  let p = List.hd (Plan.points m) in
  let expected = p.Plan.key in
  List.init 4 (fun _ ->
      Domain.spawn (fun () -> (List.hd (Plan.points m)).Plan.key))
  |> List.map Domain.join
  |> List.iter
       (Alcotest.(check string) "same address in every domain" expected)

let test_march_seq_share_address () =
  (* a march and the seq it lowers to are the same physics -> same
     address -> shared store records *)
  let seq = mini ~detections:{|(detections (seq "w0 r0 w1"))|} () in
  let march = mini ~detections:{|(detections (march "{up(w0);up(r0,w1)}"))|} () in
  Alcotest.(check string) "shared content address"
    (List.hd (Plan.points seq)).Plan.key
    (List.hd (Plan.points march)).Plan.key

let test_descriptor_strategy_sharing () =
  (* Grid and Adaptive records may share a store address only when the
     strategies are provably identical: at [grid-points <= coarse] the
     adaptive skeleton IS the grid, so the fingerprints collapse;
     beyond that the adaptive scan may legitimately skip points and the
     records must live apart *)
  let d m = (List.hd (Plan.points m)).Plan.key in
  let border ?(points = 5) strategy =
    Printf.sprintf
      "(border (r-min 1e4) (r-max 1e8) (grid-points %d) (rel-tol 0.05) \
       (strategy %s))"
      points strategy
  in
  Alcotest.(check string) "coarse adaptive shares the grid address"
    (d (mini ~border:(border "grid") ()))
    (d (mini ~border:(border "adaptive") ()));
  Alcotest.(check bool) "fine adaptive addresses separately" true
    (d (mini ~border:(border ~points:13 "grid") ())
    <> d (mini ~border:(border ~points:13 "adaptive") ()))

let test_descriptor_extension_suffix () =
  let d m = (List.hd (Plan.points m)).Plan.key in
  let base = mini () in
  (* spelling the neutral defaults out changes nothing... *)
  Alcotest.(check string) "explicit neutral collapses to the same address"
    (d base)
    (d (mini ~stress:"(stress n (wait 0) (hammer 0) (leak 0))" ()));
  (* ...and any moved extension axis moves the address *)
  let waited = mini ~stress:"(stress w (wait 1))" () in
  Alcotest.(check bool) "moved axis relocates the record" true
    (d base <> d waited);
  Alcotest.(check bool) "different extension values differ" true
    (d waited <> d (mini ~stress:"(stress w (wait 2))" ()))

let test_result_codec_roundtrip () =
  let det =
    C.Detection.v
      [ C.Detection.Write 1; C.Detection.Wait 1.5e-3; C.Detection.Read 0 ]
  in
  let borders =
    [ C.Border.Br 2.0e5;
      C.Border.Faulty_band { lo = 1.25e4; hi = 3.5e7 };
      C.Border.Bands
        [ { C.Border.b_lo = C.Border.Exact 1e4;
            b_hi = C.Border.Unknown { lo = 2e4; hi = 4e4 } } ];
      C.Border.Always_faulty; C.Border.Never_faulty; C.Border.Unsampled ]
  in
  List.iter
    (fun br ->
      let r = { Plan.detection = det; br } in
      match Plan.decode_result (Plan.encode_result r) with
      | None -> Alcotest.fail "decode refused its own encoding"
      | Some r' ->
        Alcotest.(check bool) "border round-trips" true
          (C.Border.equal_result br r'.Plan.br);
        Alcotest.(check string) "detection round-trips"
          (C.Detection.encode det)
          (C.Detection.encode r'.Plan.detection))
    borders;
  Alcotest.(check (option string)) "foreign payload refused" None
    (Option.map Plan.encode_result (Plan.decode_result "gibberish"))

(* ------------------------------------------------------------------ *)
(* runner: reuse and failure retry                                     *)
(* ------------------------------------------------------------------ *)

let run_manifest =
  {|
(campaign
  (name run-t)
  (defects (O1 true))
  (stress nominal)
  (stress low-vdd (vdd 2.1))
  (detections (seq "w1 w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}

(* a wait-axis (retention) sweep: its records carry the extended
   fingerprint, so warm reuse must hold for them too *)
let wait_manifest =
  {|
(campaign
  (name run-w)
  (defects (O1 true))
  (sweep (wait (range 0.01 1.0 3)))
  (detections (seq "w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}

let test_runner_cold_then_warm () =
  (* the two-point study on a single-file and on a 16-shard store, and
     the retention sweep *)
  List.iter
    (fun (what, shards, text, planned) ->
      with_store_dir @@ fun dir ->
      let m = Manifest.of_string text in
      let name = m.Manifest.name in
      let check label = Alcotest.(check int) (what ^ ": " ^ label) in
      (* cold *)
      let s1 = St.open_ ~engine:"e" ?shards ~name dir in
      let r1 = Runner.run ~jobs:1 ~store:s1 m in
      St.close s1;
      check "planned" planned r1.Runner.planned;
      check "cold: nothing reused" 0 r1.Runner.reused;
      check "cold: everything simulated" planned r1.Runner.simulated;
      check "no failures" 0 (List.length r1.Runner.failures);
      check "all results" planned (List.length r1.Runner.results);
      (* warm, across a fresh handle AND a cleared LRU: the reuse must
         come from the persistent store, not the in-memory cache *)
      O.clear_cache ();
      let s2 = St.open_ ~engine:"e" ?shards ~name dir in
      let r2 = Runner.run ~jobs:1 ~store:s2 m in
      St.close s2;
      check "warm: everything reused" planned r2.Runner.reused;
      check "warm: nothing simulated" 0 r2.Runner.simulated;
      (* and byte-identical results *)
      List.iter2
        (fun (_, a) (_, b) ->
          Alcotest.(check bool) (what ^ ": same border") true
            (C.Border.equal_result a.Plan.br b.Plan.br))
        r1.Runner.results r2.Runner.results)
    [ ("single-file", None, run_manifest, 2);
      ("16 shards", Some 16, run_manifest, 2);
      ("wait sweep", None, wait_manifest, 3) ]

(* two placements of O1 are two warm-start chains; [extra] adds more
   defects, each its own chain *)
let fan_manifest ?(extra = "") () =
  Printf.sprintf
    {|
(campaign
  (name fan-t)
  (defects O1 %s)
  (stress nominal)
  (stress low-vdd (vdd 2.1))
  (detections (seq "w1 w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}
    extra

(* A stored chain only replays its records, so a fully stored campaign
   must call no fan-out and start no domain or thread, with an executor
   (the sandboxed service's path) or without; a partly stored one fans
   out only the chains that still need simulating *)
let test_runner_stored_chains_inline () =
  let was = Tel.enabled () in
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
  Tel.set_enabled true;
  with_store_dir @@ fun dir ->
  let store = St.open_ ~name:"fan-t" dir in
  Fun.protect ~finally:(fun () -> St.close store) @@ fun () ->
  let m = Manifest.of_string (fan_manifest ()) in
  let cold = Runner.run ~jobs:1 ~store m in
  Alcotest.(check int) "cold: both chains simulated" 4 cold.Runner.simulated;
  let counter name = Tel.Counter.value (Tel.Counter.make name) in
  let key (p : Plan.point) = p.Plan.key in
  (* [fanned] is the (fan-out calls, chains fanned out) the run adds *)
  let run label ~fanned ~reused ~simulated m run =
    let before () =
      (counter "util.par.sweeps", counter "util.par.tasks",
       counter "util.par.domains_spawned")
    in
    let s0, t0, d0 = before () in
    let s = run m in
    let s1, t1, d1 = before () in
    let check what = Alcotest.(check int) (label ^ ": " ^ what) in
    check "reused" reused s.Runner.reused;
    check "simulated" simulated s.Runner.simulated;
    Alcotest.(check (pair int int)) (label ^ ": fan-out calls, chains")
      fanned (s1 - s0, t1 - t0);
    check "domains spawned" 0 (d1 - d0);
    Alcotest.(check (list string)) (label ^ ": results in plan order")
      (List.map key (Plan.points m))
      (List.map (fun (p, _) -> key p) s.Runner.results)
  in
  let refuse ~hint:_ _ = Alcotest.fail "a stored point was simulated" in
  run "warm" ~fanned:(0, 0) ~reused:4 ~simulated:0 m
    (Runner.run ~jobs:4 ~store);
  run "warm, executor" ~fanned:(0, 0) ~reused:4 ~simulated:0 m
    (Runner.run ~jobs:4 ~executor:refuse ~store);
  (* one missing chain among stored ones: the executor (no engine
     sweeps of its own) sees one chain, mapped inline *)
  let canned = snd (List.hd cold.Runner.results) in
  run "one chain missing" ~fanned:(1, 1) ~reused:4 ~simulated:2
    (Manifest.of_string (fan_manifest ~extra:"(Sg true)" ()))
    (Runner.run ~jobs:4 ~executor:(fun ~hint:_ _ -> canned) ~store)

let test_runner_failure_retry () =
  let module Chaos = Dramstress_util.Chaos in
  Fun.protect ~finally:(fun () -> Chaos.disarm ()) @@ fun () ->
  with_store_dir @@ fun dir ->
  let m = Manifest.of_string run_manifest in
  (* chaos fails one of the two worker tasks: the campaign must record
     the failure and keep the surviving point *)
  Chaos.configure ~seed:0 "fail_worker_task@2";
  O.clear_cache ();
  let s = St.open_ ~engine:"e" ~name:"run-t" dir in
  let r = Runner.run ~jobs:1 ~store:s m in
  St.close s;
  Alcotest.(check int) "one failure" 1 (List.length r.Runner.failures);
  Alcotest.(check int) "one success" 1 r.Runner.simulated;
  (* the failure is visible as a state, with its message *)
  let s = St.open_ ~engine:"e" ~name:"run-t" dir in
  let states = Runner.states ~store:s m in
  St.close s;
  let count pred = List.length (List.filter (fun (_, st) -> pred st) states) in
  Alcotest.(check int) "one Done" 1
    (count (function `Done _ -> true | _ -> false));
  Alcotest.(check int) "one Failed" 1
    (count (function `Failed _ -> true | _ -> false));
  (* disarmed rerun: the success is reused, the failure is RETRIED *)
  Chaos.disarm ();
  O.clear_cache ();
  let s = St.open_ ~engine:"e" ~name:"run-t" dir in
  let r = Runner.run ~jobs:1 ~store:s m in
  Alcotest.(check int) "success reused" 1 r.Runner.reused;
  Alcotest.(check int) "failure retried" 1 r.Runner.simulated;
  Alcotest.(check int) "no failures left" 0 (List.length r.Runner.failures);
  (* the stale failure marker no longer shadows the fresh success *)
  let states = Runner.states ~store:s m in
  St.close s;
  Alcotest.(check int) "all Done" 2
    (List.length
       (List.filter
          (fun (_, st) -> match st with `Done _ -> true | _ -> false)
          states))

let test_deadline_result_not_stored () =
  (* a border search a deadline cuts short is a failed point, never a
     stored result: the rerun without the deadline on the same store
     simulates it and finds the border a fresh store finds *)
  with_store_dir @@ fun dir ->
  let m ~sim =
    mini ~sim
      ~detections:{|(detections (seq "w1 w0 r0"))|}
      ~border:"(border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05))"
      ()
  in
  O.clear_cache ();
  let s = St.open_ ~engine:"e" ~name:"deadline" dir in
  let r = Runner.run ~jobs:1 ~store:s (m ~sim:"(sim (deadline 1e-4))") in
  Alcotest.(check int) "cut short: one failure" 1
    (List.length r.Runner.failures);
  Alcotest.(check int) "cut short: no result" 0 (List.length r.Runner.results);
  O.clear_cache ();
  let r = Runner.run ~jobs:1 ~store:s (m ~sim:"") in
  St.close s;
  Alcotest.(check int) "rerun reuses nothing" 0 r.Runner.reused;
  Alcotest.(check int) "rerun simulates the point" 1 r.Runner.simulated;
  match r.Runner.results with
  | [ (_, res) ] ->
    Alcotest.(check string) "the fresh-store border" "br 0x1.4912be74ef73cp+17"
      (C.Border.encode_result res.Plan.br)
  | rs -> Alcotest.failf "expected one result, got %d" (List.length rs)

let planner_manifest ~vdd ~grid_points strategy =
  (* a dense window over one warm-start chain: the sweep settings of the
     same (defect, placement, detection) cell, walked in order so each
     border seeds the next bracket *)
  Printf.sprintf
    {|
(campaign
  (name plan-t)
  (defects (O1 true))
  (stress nominal)
  (sweep (vdd %s))
  (detections (seq "w1 w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points %d) (rel-tol 0.05)
          (strategy %s)))
|}
    vdd grid_points strategy

(* ------------------------------------------------------------------ *)
(* diff                                                                *)
(* ------------------------------------------------------------------ *)

let run_campaign dir src =
  let m = Manifest.of_string src in
  let s = St.open_ ~engine:"e" ~name:m.Manifest.name dir in
  let r = Runner.run ~jobs:1 ~store:s m in
  St.close s;
  (m, r)

(* the planner end to end on one window: the adaptive planner must
   report exactly the borders the grid oracle reports, from at least
   [min_ratio] times fewer simulations (strictly fewer when 1).
   [O.simulations] counts solver cache misses, the real cost metric —
   reused store records and LRU hits are free. *)
let check_planner_parity ~vdd ~grid_points ~points ~min_ratio =
  let run strategy =
    with_store_dir @@ fun dir ->
    O.clear_cache ();
    let before = O.simulations () in
    let _, r =
      run_campaign dir (planner_manifest ~vdd ~grid_points strategy)
    in
    (r, O.simulations () - before)
  in
  let grid, grid_sims = run "grid" in
  let adaptive, adaptive_sims = run "adaptive" in
  Alcotest.(check int) "all points simulated both ways" points
    grid.Runner.simulated;
  Alcotest.(check int) "adaptive planned the same points" points
    adaptive.Runner.simulated;
  List.iter2
    (fun (_, (g : Plan.result)) (_, (a : Plan.result)) ->
      Alcotest.(check bool) "borders identical" true
        (C.Border.equal_result g.Plan.br a.Plan.br))
    grid.Runner.results adaptive.Runner.results;
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %d sims vs grid %d sims (limit %dx fewer)"
       adaptive_sims grid_sims min_ratio)
    true
    (adaptive_sims > 0
    && adaptive_sims < grid_sims
    && min_ratio * adaptive_sims <= grid_sims)

let test_runner_adaptive_planner_parity () =
  check_planner_parity ~vdd:"2.1 2.7" ~grid_points:33 ~points:3 ~min_ratio:1;
  (* the dense 65-point window over three supplies: 201 grid
     simulations against 29 adaptive ones when recorded, limit 5x *)
  check_planner_parity ~vdd:"2.1 2.4 2.7" ~grid_points:65 ~points:4
    ~min_ratio:5

let side dir (m : Manifest.t) label =
  { Diff.store = St.open_ ~engine:"e" ~name:m.Manifest.name dir;
    manifest = m; label }

let test_diff_self_empty () =
  with_store_dir @@ fun dir ->
  let m, _ = run_campaign dir run_manifest in
  let a = side dir m "a" and b = side dir m "b" in
  let d = Diff.v ~a ~b () in
  St.close a.Diff.store;
  St.close b.Diff.store;
  Alcotest.(check int) "rows" 2 (List.length d.Diff.rows);
  Alcotest.(check int) "self-diff: no shifts" 0 d.Diff.shifted;
  Alcotest.(check int) "self-diff: no missing sides" 0 d.Diff.missing;
  Alcotest.(check (list string)) "no unpaired labels" [] d.Diff.unpaired

let test_diff_stress_pair_parity () =
  with_store_dir @@ fun dir ->
  let m, _ = run_campaign dir run_manifest in
  let a = side dir m "a" and b = side dir m "b" in
  let d =
    Diff.v ~pairing:(Diff.Stress_pair { a = "nominal"; b = "low-vdd" }) ~a ~b
      ()
  in
  St.close a.Diff.store;
  St.close b.Diff.store;
  match d.Diff.rows with
  | [ row ] ->
    let ra = Option.get row.Diff.a and rb = Option.get row.Diff.b in
    (* acceptance: the stored campaign values equal a direct search on
       the same grid, bit for bit *)
    let entry = Option.get (D.find_entry "O1") in
    let direct stress =
      C.Border.search ~config:m.Manifest.config ~window:window5 ~stress
        ~kind:entry.D.kind
        ~placement:D.True_bl
        (C.Detection.v
           [ C.Detection.Write 1; C.Detection.Write 1; C.Detection.Write 0;
             C.Detection.Read 0 ])
    in
    Alcotest.(check bool) "nominal side = direct search" true
      (C.Border.equal_result ra.Plan.br (direct S.nominal));
    Alcotest.(check bool) "stressed side = direct search" true
      (C.Border.equal_result rb.Plan.br
         (direct (S.set S.nominal S.Supply_voltage 2.1)))
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_diff_missing_side () =
  with_store_dir @@ fun dir ->
  with_store_dir @@ fun empty_dir ->
  let m, _ = run_campaign dir run_manifest in
  let a = side dir m "full" in
  let b = side empty_dir m "empty" in
  let d = Diff.v ~a ~b () in
  St.close a.Diff.store;
  St.close b.Diff.store;
  Alcotest.(check int) "every row lacks side B" (List.length d.Diff.rows)
    d.Diff.missing;
  Alcotest.(check int) "missing is not a shift" 0 d.Diff.shifted;
  List.iter
    (fun (r : Diff.row) ->
      Alcotest.(check bool) "A populated" true (r.Diff.a <> None);
      Alcotest.(check bool) "B absent" true (r.Diff.b = None))
    d.Diff.rows

(* a row shifts when its synthesized detections differ, at any
   [rel_tol], exact included *)
let test_diff_agree_detection () =
  let det = C.Detection.standard ~victim:0 ~primes:3 in
  let other = C.Detection.standard ~victim:0 ~primes:4 in
  let r = { Plan.detection = det; br = C.Border.Br 1e5 } in
  let moved = { r with Plan.br = C.Border.Br 1.005e5 } in
  let redetected = { r with Plan.detection = other } in
  List.iter
    (fun rel_tol ->
      Alcotest.(check bool)
        (Printf.sprintf "equal at %g" rel_tol) true (Diff.agree ~rel_tol r r);
      Alcotest.(check bool)
        (Printf.sprintf "detection differs at %g" rel_tol) false
        (Diff.agree ~rel_tol r redetected))
    [ 0.0; 1e-300; 0.01 ];
  Alcotest.(check bool) "0.5% within 1%" true (Diff.agree ~rel_tol:0.01 r moved);
  Alcotest.(check bool) "0.5% not exact" false (Diff.agree ~rel_tol:0.0 r moved)

let test_best_point_parity () =
  (* a synthesized-best campaign point stores exactly what
     Sc_eval.best_detection computes on the same window *)
  with_store_dir @@ fun dir ->
  let m, r =
    run_campaign dir
      {|
(campaign
  (name best-t)
  (defects (O1 true))
  (stress nominal)
  (detections best-no-pause)
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}
  in
  match r.Runner.results with
  | [ (_, stored) ] ->
    let entry = Option.get (D.find_entry "O1") in
    let detection, br =
      C.Sc_eval.best_detection ~config:m.Manifest.config ~window:window5
        ~allow_pause:false
        ~stress:S.nominal ~kind:entry.D.kind ~placement:D.True_bl ()
    in
    Alcotest.(check bool) "same border" true
      (C.Border.equal_result stored.Plan.br br);
    Alcotest.(check string) "same winning detection"
      (C.Detection.encode detection)
      (C.Detection.encode stored.Plan.detection)
  | rs -> Alcotest.failf "expected one result, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* extension axes end to end: golden reuse, cross-axis diff, parity    *)
(* ------------------------------------------------------------------ *)

let copy_file src dst =
  let ic = open_in_bin src in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let test_golden_store_reuse () =
  (* the checked-in store was produced by the pre-extension binary
     (engine stamp "git e8ceb9b") and re-keyed, values untouched, to the
     printed key format: the planner must address every one of its
     records, simulating nothing *)
  with_store_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  List.iter
    (fun f ->
      copy_file
        (Filename.concat "golden/pre_extension_store" f)
        (Filename.concat dir f))
    [ "records.jsonl"; "index.json" ];
  let m = Manifest.load "golden/pre_extension.sexp" in
  O.clear_cache ();
  let s = St.open_ ~engine:"post-extension" ~name:"golden-pre-extension" dir in
  let r = Runner.run ~jobs:1 ~store:s m in
  St.close s;
  Alcotest.(check int) "planned" 2 r.Runner.planned;
  Alcotest.(check int) "all reused from the golden store" 2 r.Runner.reused;
  Alcotest.(check int) "nothing simulated" 0 r.Runner.simulated;
  Alcotest.(check int) "no failures" 0 (List.length r.Runner.failures)

(* [campaign diff --rel-tol] on Table-1 runs: the golden table read
   back twice compares clean; a copy with one stressed border moved by
   0.5% is within a 1% tolerance and out of an exact one, a 2% move is
   out of both, a band that loses an edge is a shape change, and a
   flipped direction fails the row whatever its borders *)
let test_table1_diff_tolerance () =
  with_store_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  List.iter
    (fun f ->
      copy_file (Filename.concat "golden/table1_store" f) (Filename.concat dir f))
    [ "records.jsonl"; "name" ];
  let replay () =
    let s = St.open_ ~name:"table1" dir in
    Fun.protect ~finally:(fun () -> St.close s) @@ fun () ->
    St.replay_only s;
    C.Table1.generate ~store:s ()
  in
  let a = replay () and b = replay () in
  let off ~rel_tol b =
    snd (Diff.table1 ~rel_tol ~a_label:"a" ~b_label:"b" a b)
  in
  Alcotest.(check int) "self-diff" 0 (off ~rel_tol:0.0 b);
  let edit id f (t : C.Table1.t) =
    { t with
      C.Table1.rows =
        List.map
          (fun (r : C.Table1.row) ->
            if r.C.Table1.defect_id = id && r.C.Table1.placement = D.True_bl
            then { r with C.Table1.evaluation = f r.C.Table1.evaluation }
            else r)
          t.C.Table1.rows }
  in
  let scale k (e : C.Sc_eval.t) =
    match e.C.Sc_eval.stressed_br with
    | C.Border.Br r -> { e with C.Sc_eval.stressed_br = C.Border.Br (r *. k) }
    | _ -> Alcotest.fail "O1's stressed border is one edge"
  in
  Alcotest.(check int) "0.5% within 1%" 0 (off ~rel_tol:0.01 (edit "O1" (scale 1.005) b));
  Alcotest.(check int) "0.5% not exact" 1 (off ~rel_tol:0.0 (edit "O1" (scale 1.005) b));
  Alcotest.(check int) "2% out of 1%" 1 (off ~rel_tol:0.01 (edit "O1" (scale 1.02) b));
  let one_edge (e : C.Sc_eval.t) =
    match e.C.Sc_eval.stressed_br with
    | C.Border.Faulty_band { lo; _ } ->
      { e with C.Sc_eval.stressed_br = C.Border.Br lo }
    | _ -> Alcotest.fail "B2's stressed border is a band"
  in
  Alcotest.(check int) "a band turned border" 1
    (off ~rel_tol:1.0 (edit "B2" one_edge b));
  let flip (e : C.Sc_eval.t) =
    { e with
      C.Sc_eval.probes =
        List.map
          (fun (p : C.Stressor.probe) ->
            if p.C.Stressor.axis = S.Cycle_time then
              { p with C.Stressor.verdict = C.Stressor.Neutral }
            else p)
          e.C.Sc_eval.probes }
  in
  Alcotest.(check int) "a flipped direction" 1
    (off ~rel_tol:1.0 (edit "O1" flip b));
  Alcotest.(check int) "a row on one side only" 1
    (off ~rel_tol:1.0
       { b with
         C.Table1.rows =
           List.filter
             (fun (r : C.Table1.row) -> r.C.Table1.defect_id <> "Sg"
               || r.C.Table1.placement <> D.Comp_bl)
             b.C.Table1.rows })

(* The paper's qualitative Table-1 claims, asserted on the values of a
   warm [Table1.generate] over a copy of the checked-in Table-1 store:
   every border is read back, none is simulated, so the claims are
   judged against a fixed reference rather than against whatever the
   engine computes today. *)
let test_golden_table1_claims () =
  with_store_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  List.iter
    (fun f ->
      copy_file (Filename.concat "golden/table1_store" f) (Filename.concat dir f))
    [ "records.jsonl"; "name" ];
  let was = Tel.enabled () in
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
  Tel.set_enabled true;
  let misses = Tel.Counter.make "util.checkpoint.misses" in
  let misses_before = Tel.Counter.value misses in
  let sims = Tel.Counter.make "dram.ops.cache_misses" in
  let sims_before = Tel.Counter.value sims in
  let table =
    let s = St.open_ ~name:"table1" dir in
    Fun.protect ~finally:(fun () -> St.close s) (fun () ->
        C.Table1.generate ~store:s ())
  in
  Alcotest.(check int) "every border read from the store" misses_before
    (Tel.Counter.value misses);
  Alcotest.(check int) "every probe sample read from the store, nothing simulated"
    sims_before (Tel.Counter.value sims);
  Alcotest.(check int) "no failed row" 0 (List.length table.C.Table1.failures);
  let ev id placement =
    match
      List.find_opt
        (fun r -> r.C.Table1.defect_id = id && r.C.Table1.placement = placement)
        table.C.Table1.rows
    with
    | Some r -> r.C.Table1.evaluation
    | None -> Alcotest.failf "no row %s" id
  in
  let verdict (e : C.Sc_eval.t) axis =
    match List.find_opt (fun p -> p.C.Stressor.axis = axis) e.C.Sc_eval.probes with
    | Some p -> p.C.Stressor.verdict
    | None -> Alcotest.failf "axis not probed"
  in
  let br name = function
    | C.Border.Br v -> v
    | r -> Alcotest.failf "%s: expected one border, got %a" name C.Border.pp_result r
  in
  let same_br = C.Border.equal_result in
  let flip (d : C.Detection.t) =
    { C.Detection.steps =
        List.map
          (function
            | C.Detection.Write b -> C.Detection.Write (1 - b)
            | C.Detection.Read b -> C.Detection.Read (1 - b)
            | (C.Detection.Wait _ | C.Detection.Hammer _) as st -> st)
          d.C.Detection.steps }
  in
  let ids = [ "O1"; "O2"; "O3"; "Sg"; "Sv"; "B1"; "B2" ] in
  (* opens: shorter cycle, hotter, lower supply *)
  List.iter
    (fun id ->
      List.iter
        (fun placement ->
          let e = ev id placement in
          Alcotest.(check bool) (id ^ ": tcyc -, T +, Vdd -") true
            (verdict e S.Cycle_time = C.Stressor.Decrease
            && verdict e S.Temperature = C.Stressor.Increase
            && verdict e S.Supply_voltage = C.Stressor.Decrease))
        [ D.True_bl; D.Comp_bl ])
    [ "O1"; "O2"; "O3" ];
  (* the complementary bit line mirrors the true one *)
  List.iter
    (fun id ->
      let t = ev id D.True_bl and c = ev id D.Comp_bl in
      Alcotest.(check bool) (id ^ ": true and comp borders equal") true
        (same_br t.C.Sc_eval.nominal_br c.C.Sc_eval.nominal_br
        && same_br t.C.Sc_eval.stressed_br c.C.Sc_eval.stressed_br);
      Alcotest.(check bool) (id ^ ": comp detections are true's, 0/1 swapped")
        true
        (flip t.C.Sc_eval.nominal_detection = c.C.Sc_eval.nominal_detection
        && flip t.C.Sc_eval.stressed_detection = c.C.Sc_eval.stressed_detection))
    ids;
  (* stressing the open lowers its border: 160.1 k -> 93.34 k (160.1 k
     -> 93.9 k on the 1600-step reference of "bench convergence") *)
  let o1 = ev "O1" D.True_bl in
  let nom = br "O1 nominal" o1.C.Sc_eval.nominal_br
  and str = br "O1 stressed" o1.C.Sc_eval.stressed_br in
  Alcotest.(check bool)
    (Printf.sprintf "O1 stressed %.4g < nominal %.4g" str nom)
    true
    (str < nom
    && Float.abs (nom -. 160.1e3) < 0.05e3
    && Float.abs (str -. 93.34e3) < 0.05e3);
  (* the shorts' stressed borders climb past 1 GOhm *)
  List.iter
    (fun id ->
      let v = br (id ^ " stressed") (ev id D.True_bl).C.Sc_eval.stressed_br in
      Alcotest.(check bool) (Printf.sprintf "%s stressed %.4g >= 1 G" id v) true
        (v >= 1e9))
    [ "Sg"; "Sv" ];
  (* B2 escapes the nominal test and is caught in a band under stress *)
  let b2 = ev "B2" D.True_bl in
  Alcotest.(check bool) "B2 never faulty at nominal" true
    (b2.C.Sc_eval.nominal_br = C.Border.Never_faulty);
  Alcotest.(check bool) "B2 banded under stress" true
    (match b2.C.Sc_eval.stressed_br with
    | C.Border.Faulty_band _ | C.Border.Bands _ -> true
    | _ -> false);
  (* O2 and O3 rows read the same *)
  List.iter
    (fun placement ->
      let a = ev "O2" placement and b = ev "O3" placement in
      Alcotest.(check bool) "O2 row equals O3 row" true
        (same_br a.C.Sc_eval.nominal_br b.C.Sc_eval.nominal_br
        && same_br a.C.Sc_eval.stressed_br b.C.Sc_eval.stressed_br
        && a.C.Sc_eval.nominal_detection = b.C.Sc_eval.nominal_detection
        && a.C.Sc_eval.stressed_detection = b.C.Sc_eval.stressed_detection
        && a.C.Sc_eval.stressed = b.C.Sc_eval.stressed
        && List.map (fun p -> p.C.Stressor.verdict) a.C.Sc_eval.probes
           = List.map (fun p -> p.C.Stressor.verdict) b.C.Sc_eval.probes))
    [ D.True_bl; D.Comp_bl ]

let cross_axis_manifest =
  {|
(campaign
  (name cross-axes)
  (defects (O1 true))
  (stress nominal)
  (stress stressed (vdd 2.1) (wait 1.0) (hammer 100))
  (detections (seq "w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}

let test_cross_axis_campaign_diff () =
  (* the paper's V_dd axis crossed with the retention wait and the
     disturb hammer, through the whole plan/runner/diff stack: the
     stressed border must match a direct search and report as shifted *)
  with_store_dir @@ fun dir ->
  let m, r = run_campaign dir cross_axis_manifest in
  Alcotest.(check int) "both points simulated" 2 r.Runner.simulated;
  let a = side dir m "a" and b = side dir m "b" in
  let d =
    Diff.v ~pairing:(Diff.Stress_pair { a = "nominal"; b = "stressed" }) ~a ~b
      ()
  in
  St.close a.Diff.store;
  St.close b.Diff.store;
  match d.Diff.rows with
  | [ row ] ->
    Alcotest.(check int) "no missing sides" 0 d.Diff.missing;
    Alcotest.(check int) "the extended SC moves the border" 1 d.Diff.shifted;
    let rb = Option.get row.Diff.b in
    let entry = Option.get (D.find_entry "O1") in
    let stressed =
      { S.nominal with S.vdd = 2.1; wait = 1.0; hammer = 100 }
    in
    let direct =
      C.Border.search ~config:m.Manifest.config ~window:window5
        ~stress:stressed ~kind:entry.D.kind
        ~placement:D.True_bl
        (C.Detection.v
           [ C.Detection.Write 1; C.Detection.Write 0; C.Detection.Read 0 ])
    in
    Alcotest.(check bool) "stressed side = direct search" true
      (C.Border.equal_result rb.Plan.br direct)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let planner_wait_manifest strategy =
  Printf.sprintf
    {|
(campaign
  (name plan-w)
  (defects (O1 true))
  (stress nominal)
  (sweep (wait (range 0.01 1.0 3)))
  (detections (seq "w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 33) (rel-tol 0.05)
          (strategy %s)))
|}
    strategy

let test_adaptive_parity_wait_axis () =
  (* the adaptive planner's grid parity holds on an extension axis
     exactly as it does on the paper's four *)
  let run strategy =
    with_store_dir @@ fun dir ->
    O.clear_cache ();
    let before = O.simulations () in
    let _, r = run_campaign dir (planner_wait_manifest strategy) in
    (r, O.simulations () - before)
  in
  let grid, grid_sims = run "grid" in
  let adaptive, adaptive_sims = run "adaptive" in
  Alcotest.(check int) "four wait points" 4 grid.Runner.simulated;
  List.iter2
    (fun (_, (g : Plan.result)) (_, (a : Plan.result)) ->
      Alcotest.(check bool) "borders identical" true
        (C.Border.equal_result g.Plan.br a.Plan.br))
    grid.Runner.results adaptive.Runner.results;
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %d sims < grid %d sims" adaptive_sims grid_sims)
    true
    (adaptive_sims > 0 && adaptive_sims < grid_sims)

(* The retention-deadline shape: adaptive O1/true searches over the full
   1e3..1e11 window at two holds, each simulation a one-lane run under a
   deadline. The high-resistance skeleton samples used to die at t = 0
   (a ~1e-9 S open row read as singular against ~1e5 S capacitor
   companions), and one skipped skeleton sample escalates a search to
   the full 13-point grid: 21 simulations per point. Judged against its
   own row, every sample simulates and no search escalates. *)
let retention_manifest strategy =
  Printf.sprintf
    {|
(campaign
  (name plan-r)
  (defects (O1 true))
  (sweep (wait 0.03 3.0))
  (detections (seq "w1 w0 r0"))
  (sim (deadline 600))
  (border (r-min 1e3) (r-max 1e11) (grid-points 13) (rel-tol 0.01)
          (strategy %s)))
|}
    strategy

let test_adaptive_retention_no_escalation () =
  let was = Tel.enabled () in
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
  Tel.set_enabled true;
  let run strategy =
    with_store_dir @@ fun dir ->
    O.clear_cache ();
    Tel.reset ();
    let before = O.simulations () in
    let _, r = run_campaign dir (retention_manifest strategy) in
    let skipped =
      Option.value ~default:0
        (List.assoc_opt "core.border.skipped_samples"
           (Tel.snapshot ()).Tel.counters)
    in
    (r, O.simulations () - before, skipped)
  in
  let grid, _, _ = run "grid" in
  let adaptive, sims, skipped = run "adaptive" in
  Alcotest.(check int) "two points" 2 adaptive.Runner.simulated;
  Alcotest.(check int) "no skipped sample" 0 skipped;
  List.iter2
    (fun (_, (g : Plan.result)) (_, (a : Plan.result)) ->
      Alcotest.(check bool) "borders identical" true
        (C.Border.equal_result g.Plan.br a.Plan.br))
    grid.Runner.results adaptive.Runner.results;
  Alcotest.(check bool)
    (Printf.sprintf "%d simulations for 2 points (full-grid escalation: 42)"
       sims)
    true (sims <= 28)

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)
(* ------------------------------------------------------------------ *)

module Pr = Cp.Protocol
module Svc = Cp.Service

let test_protocol_sexp_roundtrip () =
  let nasty = "a \"quoted\" (atom)\nwith\\slashes\tand spaces" in
  let x =
    Pr.List
      [ Pr.Atom "submit";
        Pr.List [ Pr.Atom "manifest"; Pr.Atom nasty ];
        Pr.Atom "";
        Pr.Atom "band;edges";
        Pr.Atom "plain" ]
  in
  (match Cp.Sexp.of_string (Cp.Sexp.to_string x) with
  | Ok y -> Alcotest.(check bool) "nasty atoms round-trip" true (x = y)
  | Error m -> Alcotest.failf "parse failed: %s" m);
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (match Cp.Sexp.of_string bad with Error _ -> true | Ok _ -> false))
    [ "("; "a b"; "\"unclosed"; ")"; ""; "; only a comment" ];
  (* one reader for frames and manifests: comments are skipped *)
  Alcotest.(check bool) "comments skipped" true
    (Cp.Sexp.of_string "(a ; note (\n b) ; tail"
    = Ok (Pr.List [ Pr.Atom "a"; Pr.Atom "b" ]))

let sample_requests =
  [ Pr.Submit { manifest = full_manifest; jobs = Some 3 };
    Pr.Submit { manifest = "(campaign (name x))"; jobs = None };
    Pr.Status; Pr.Query "campaign.point|v1|abc|0x1p1";
    Pr.Diff { a = "(a)"; b = "(b)" }; Pr.Merge "/tmp/other-store";
    Pr.Counters; Pr.Shutdown ]

let sample_responses =
  [ Pr.Point { descr = "O1/true seq"; status = Pr.Reused; payload = "p" };
    Pr.Point { descr = "d"; status = Pr.Simulated; payload = "" };
    Pr.Point { descr = "d"; status = Pr.Deduped; payload = "p" };
    Pr.Point { descr = "d"; status = Pr.Failed; payload = "boom (line 3)" };
    Pr.Done { planned = 9; reused = 3; simulated = 4; deduped = 1;
              failed = 1 };
    Pr.Status_report
      { name = "svc"; engine = "dramstress 1.0"; records = 12; shards = 16;
        inflight = 2 };
    Pr.Found "0x1.9p+3"; Pr.Not_found;
    Pr.Diff_report "multi\nline\treport";
    Pr.Merged { added = 4; replaced = 1; kept = 2 };
    Pr.Counter_values
      [ ("campaign.points_planned", 4); ("campaign.service.requests", 9) ];
    Pr.Busy { retry_after = 1.5 }; Pr.Busy { retry_after = 0.125 };
    Pr.Draining;
    Pr.Bye; Pr.Error_msg "manifest: line 2: unknown section" ]

let test_protocol_request_roundtrip () =
  List.iter
    (fun r ->
      match Pr.decode_request (Pr.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
      | Error m -> Alcotest.failf "decode refused its own encoding: %s" m)
    sample_requests

let test_protocol_response_roundtrip () =
  List.iter
    (fun r ->
      match Pr.decode_response (Pr.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error m -> Alcotest.failf "decode refused its own encoding: %s" m)
    sample_responses

(* Outside input, fuzzed: mutations of well-formed frames, tasks and
   manifests come back as [Ok] or [Error] (a manifest may also raise
   [Manifest.Invalid]) within a second; any other exception fails the
   property. *)
let decodes_to_result = function Ok _ | Error _ -> ()

let request_texts =
  List.map (fun r -> Cp.Sexp.to_string (Pr.encode_request r)) sample_requests

let response_texts =
  List.map (fun r -> Cp.Sexp.to_string (Pr.encode_response r)) sample_responses

let prop_sexp_mutated =
  Mutate.prop ~name:"protocol: mutated s-expressions parse or error"
    (request_texts @ response_texts) (fun s ->
      decodes_to_result (Cp.Sexp.of_string s))

let decode_after_parse decode s =
  match Cp.Sexp.of_string s with
  | Error _ -> ()
  | Ok x -> decodes_to_result (decode x)

let prop_request_mutated =
  Mutate.prop ~name:"protocol: mutated requests decode or error"
    request_texts (decode_after_parse Pr.decode_request)

let prop_response_mutated =
  Mutate.prop ~name:"protocol: mutated responses decode or error"
    response_texts (decode_after_parse Pr.decode_response)

let prop_task_mutated =
  Mutate.prop ~name:"sandbox: mutated tasks decode or error"
    [ Cp.Sandbox.encode_task ~manifest_text:full_manifest ~index:3
        ~hint:[ 1.5e5; 2e6 ];
      Cp.Sandbox.encode_task ~manifest_text:"(campaign (name x))" ~index:0
        ~hint:[] ]
    (fun s -> decodes_to_result (Cp.Sandbox.decode_task s))

let prop_manifest_mutated =
  Mutate.prop ~name:"manifest: mutated manifests parse or raise Invalid"
    [ full_manifest; run_manifest; cross_axis_manifest;
      planner_manifest ~vdd:"2.1 2.7" ~grid_points:33 "adaptive" ]
    (fun s ->
      match Manifest.of_string s with
      | _ -> ()
      | exception Manifest.Invalid _ -> ())

let test_protocol_frames () =
  let a, b = Unix.(socketpair PF_UNIX SOCK_STREAM 0) in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* a frame big enough to span several reads *)
  let big = String.concat " " (List.init 5000 (Printf.sprintf "atom-%d")) in
  let x = Pr.List [ Pr.Atom "blob"; Pr.Atom big ] in
  Pr.write_frame a x;
  (match Pr.read_frame b with
  | Ok y -> Alcotest.(check bool) "large frame round-trips" true (x = y)
  | Error _ -> Alcotest.fail "read_frame failed");
  (* garbage header is a protocol error, not an allocation *)
  ignore (Unix.write_substring a "zzzzzzzz" 0 8);
  (match Pr.read_frame b with
  | Error (`Protocol _) -> ()
  | _ -> Alcotest.fail "bad header must be a protocol error");
  (* an oversized declared length (> max_frame) is refused before any
     allocation, not trusted *)
  ignore (Unix.write_substring a "01000001" 0 8);
  (match Pr.read_frame b with
  | Error (`Protocol m) ->
    Alcotest.(check string) "oversized refused" "oversized frame" m
  | _ -> Alcotest.fail "oversized header must be a protocol error");
  (* a frame truncated by a dying peer reads as EOF *)
  ignore (Unix.write_substring a "00000010hello" 0 13);
  Unix.close a;
  match Pr.read_frame b with
  | Error `Eof -> ()
  | _ -> Alcotest.fail "truncated frame must read as EOF"

let test_protocol_frame_timeout () =
  let a, b = Unix.(socketpair PF_UNIX SOCK_STREAM 0) in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* a whole frame arriving promptly is untouched by the deadline *)
  Pr.write_frame a (Pr.Atom "quick");
  (match Pr.read_frame ~frame_timeout:0.5 b with
  | Ok (Pr.Atom "quick") -> ()
  | _ -> Alcotest.fail "prompt frame must pass under a deadline");
  (* half a header then silence: the deadline fires once the frame has
     started, bounded by roughly the timeout *)
  ignore (Unix.write_substring a "0000" 0 4);
  let t0 = Unix.gettimeofday () in
  (match Pr.read_frame ~frame_timeout:0.2 b with
  | Error `Timeout -> ()
  | _ -> Alcotest.fail "stalled frame must time out");
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "timed out promptly" true (dt >= 0.15 && dt < 5.0)

(* ------------------------------------------------------------------ *)
(* service (in-process: server thread + socket clients)                *)
(* ------------------------------------------------------------------ *)

(* [~sandbox:false] everywhere here: this binary runs domain-based
   tests, and a process that has ever spawned a domain cannot fork a
   worker pool. The sandboxed path gets its own fork-based binary
   (test_service_chaos). *)
let with_service ?(shards = 4) ?max_active ?queue ?read_timeout f =
  with_store_dir @@ fun dir ->
  let socket = Filename.temp_file "dramstress_svc" ".sock" in
  Sys.remove socket;
  let store = St.open_ ~shards ~name:"svc-t" dir in
  let srv =
    Svc.create ~jobs:1 ~sandbox:false ?max_active ?queue ?read_timeout ~store
      ~socket_path:socket ()
  in
  let th = Thread.create Svc.serve srv in
  Fun.protect
    ~finally:(fun () ->
      (try
         match Svc.Client.request ~socket Pr.Shutdown with _ -> ()
       with _ -> ());
      Thread.join th;
      try Sys.remove socket with Sys_error _ -> ())
  @@ fun () -> f ~socket

let ok_outcome = function
  | Ok (o : Svc.Client.outcome) -> o
  | Error m -> Alcotest.failf "server rejected submission: %s" m

let test_service_submit_cold_warm () =
  with_service @@ fun ~socket ->
  let streamed = ref [] in
  let on_event = function
    | Pr.Point { status; _ } -> streamed := status :: !streamed
    | _ -> ()
  in
  let o = ok_outcome (Svc.Client.submit ~on_event ~socket run_manifest) in
  Alcotest.(check int) "planned" 2 o.Svc.Client.planned;
  Alcotest.(check int) "cold: everything simulated" 2 o.Svc.Client.simulated;
  Alcotest.(check int) "cold: nothing reused" 0 o.Svc.Client.reused;
  Alcotest.(check int) "no failures" 0 o.Svc.Client.failed;
  Alcotest.(check int) "one frame streamed per point" 2
    (List.length !streamed);
  Alcotest.(check bool) "all frames say simulated" true
    (List.for_all (fun s -> s = Pr.Simulated) !streamed);
  (* warm resubmission over the same socket path: pure reuse *)
  let o = ok_outcome (Svc.Client.submit ~socket run_manifest) in
  Alcotest.(check int) "warm: everything reused" 2 o.Svc.Client.reused;
  Alcotest.(check int) "warm: nothing simulated" 0 o.Svc.Client.simulated;
  (* status verb *)
  (match Svc.Client.request ~socket Pr.Status with
  | Pr.Status_report { shards; records; inflight; _ } ->
    Alcotest.(check int) "status: shard count" 4 shards;
    Alcotest.(check bool) "status: records hold the plan" true (records >= 2);
    Alcotest.(check int) "status: idle" 0 inflight
  | _ -> Alcotest.fail "expected a status report");
  (* query verb: raw descriptor lookup against the live store *)
  let m = Manifest.of_string run_manifest in
  let p = List.hd (Plan.points m) in
  (match Svc.Client.request ~socket (Pr.Query p.Plan.key) with
  | Pr.Found payload ->
    Alcotest.(check bool) "query payload decodes" true
      (Plan.decode_result payload <> None)
  | _ -> Alcotest.fail "expected found");
  (match Svc.Client.request ~socket (Pr.Query "no such point") with
  | Pr.Not_found -> ()
  | _ -> Alcotest.fail "expected not-found");
  (* counters verb *)
  match Svc.Client.request ~socket Pr.Counters with
  | Pr.Counter_values cs ->
    Alcotest.(check bool) "submissions counted" true
      (match List.assoc_opt "campaign.service.submissions" cs with
      | Some n -> n >= 2
      | None -> false)
  | _ -> Alcotest.fail "expected counters"

let test_service_bad_manifest_is_error () =
  with_service @@ fun ~socket ->
  match Svc.Client.submit ~socket "(campaign (name))" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "broken manifest must be a server-side error"

(* raw socket helpers for the robustness tests below *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let counter_value name =
  Tel.Counter.value (Tel.Counter.make name)

let test_service_garbage_frames () =
  with_service @@ fun ~socket ->
  (* garbage header: typed protocol error back, connection closed,
     server unharmed *)
  let fd = raw_connect socket in
  ignore (Unix.write_substring fd "zzzzzzzz" 0 8);
  (match Pr.read_frame fd with
  | Ok x -> (
    match Pr.decode_response x with
    | Ok (Pr.Error_msg _) -> ()
    | _ -> Alcotest.fail "garbage must answer a typed protocol error")
  | Error _ -> Alcotest.fail "expected an error frame, not a drop");
  (match Pr.read_frame fd with
  | Error `Eof -> ()
  | _ -> Alcotest.fail "server must close after protocol garbage");
  Unix.close fd;
  (* a valid frame carrying a non-request s-expression: typed error,
     connection stays usable *)
  let fd = raw_connect socket in
  Pr.write_frame fd (Pr.List [ Pr.Atom "no-such-verb" ]);
  (match Pr.read_frame fd with
  | Ok x -> (
    match Pr.decode_response x with
    | Ok (Pr.Error_msg _) -> ()
    | _ -> Alcotest.fail "unknown verb must answer a typed error")
  | Error _ -> Alcotest.fail "expected an error frame");
  Pr.write_frame fd (Pr.encode_request Pr.Status);
  (match Pr.read_frame fd with
  | Ok x -> (
    match Pr.decode_response x with
    | Ok (Pr.Status_report _) -> ()
    | _ -> Alcotest.fail "connection must survive an unknown verb")
  | Error _ -> Alcotest.fail "expected a status report");
  Unix.close fd;
  (* and the server still serves fresh clients *)
  match Svc.Client.request ~socket Pr.Status with
  | Pr.Status_report _ -> ()
  | _ -> Alcotest.fail "server must survive garbage clients"

let test_service_slowloris_dropped () =
  with_service ~read_timeout:0.3 @@ fun ~socket ->
  let timeouts_before = counter_value "campaign.service.read_timeouts" in
  (* half a frame header, then silence *)
  let loris = raw_connect socket in
  ignore (Unix.write_substring loris "0000" 0 4);
  (* an honest client is served while the slowloris timer runs *)
  (match Svc.Client.request ~socket Pr.Status with
  | Pr.Status_report _ -> ()
  | _ -> Alcotest.fail "honest client starved by a slowloris peer");
  (* the stalled connection is dropped by the read deadline *)
  (match Unix.select [ loris ] [] [] 10.0 with
  | [], _, _ -> Alcotest.fail "slowloris connection was never dropped"
  | _ -> (
    match Unix.read loris (Bytes.create 1) 0 1 with
    | 0 -> ()
    | _ -> Alcotest.fail "expected EOF on the dropped connection"));
  Unix.close loris;
  Alcotest.(check bool) "read_timeouts counted" true
    (counter_value "campaign.service.read_timeouts" > timeouts_before);
  (* idle keep-alive connections are NOT slowloris: silence between
     frames never trips the deadline *)
  let idle = raw_connect socket in
  Unix.sleepf 0.7;
  Pr.write_frame idle (Pr.encode_request Pr.Status);
  (match Pr.read_frame idle with
  | Ok x -> (
    match Pr.decode_response x with
    | Ok (Pr.Status_report _) -> ()
    | _ -> Alcotest.fail "idle connection must still be served")
  | Error _ -> Alcotest.fail "idle connection must not be dropped");
  Unix.close idle

(* enough electrical work (4 points, fine grid, tight tolerance) that a
   submission holds its admission slot while the test pokes the server
   from other connections. The grid is sized by time. The service turns
   telemetry on, and with the engine's telemetry tallied per run the
   compute thread no longer blocks on a histogram lock, so the other
   threads of the in-process server get the runtime lock only at its
   ticks and each status poll takes longer: at 65 grid points (0.20 s)
   the polls or the drain's next submission sometimes came after the
   submission had finished. 513 points take about 1.3 s *)
let slow_manifest =
  {|
(campaign
  (name slow-t)
  (defects (O1 true) (Sg true))
  (stress nominal)
  (stress low-vdd (vdd 2.1))
  (detections (seq "w1 w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 513) (rel-tol 0.001)))
|}

(* wait until the server has admitted a submission AND is simulating:
   a nonzero status [inflight] can only come from an admitted
   submission holding its slot *)
let await_submission_started ~socket =
  let rec go n =
    let busy =
      match Svc.Client.request ~socket Pr.Status with
      | Pr.Status_report { inflight; _ } -> inflight >= 1
      | _ -> false
    in
    if busy then ()
    else if n = 0 then Alcotest.fail "submission never reached the server"
    else begin
      Unix.sleepf 0.01;
      go (n - 1)
    end
  in
  go 1000

let test_service_admission_busy () =
  with_service ~max_active:1 ~queue:0 @@ fun ~socket ->
  O.clear_cache ();
  let busy_before = counter_value "campaign.service.busy_rejections" in
  let slow_result = ref None in
  let slow =
    Thread.create
      (fun () -> slow_result := Some (Svc.Client.submit ~socket slow_manifest))
      ()
  in
  await_submission_started ~socket;
  (* the slot is held and the queue is zero: a second submission gets
     the typed Busy response with a usable hint, not a hung connection *)
  (match Svc.Client.submit ~socket run_manifest with
  | exception Svc.Client.Busy { retry_after } ->
    Alcotest.(check bool) "retry hint is sane" true
      (retry_after > 0.0 && retry_after <= 60.0)
  | Ok _ -> Alcotest.fail "over-capacity submission must be rejected Busy"
  | Error m -> Alcotest.failf "expected Busy, got server error %s" m);
  Alcotest.(check bool) "busy_rejections counted" true
    (counter_value "campaign.service.busy_rejections" > busy_before);
  (* status and counters verbs are not subject to submission admission *)
  (match Svc.Client.request ~socket Pr.Status with
  | Pr.Status_report _ -> ()
  | _ -> Alcotest.fail "status must answer while the slot is held");
  (* a backoff-retrying client converges once the slot frees up *)
  (match
     Svc.Client.submit_retrying ~attempts:60 ~delay:0.05 ~socket run_manifest
   with
  | Ok o ->
    Alcotest.(check int) "retrying client ran the full plan" 2
      o.Svc.Client.planned
  | Error m -> Alcotest.failf "retrying client rejected: %s" m);
  Thread.join slow;
  match !slow_result with
  | Some (Ok o) ->
    Alcotest.(check int) "slow submission unharmed" 4 o.Svc.Client.planned;
    Alcotest.(check int) "slow submission clean" 0 o.Svc.Client.failed
  | Some (Error m) -> Alcotest.failf "slow submission rejected: %s" m
  | None -> Alcotest.fail "slow client never reported"

let test_service_graceful_drain () =
  (* one slot, held by the slow submission: a submission that arrives
     before the drainer thread flips the state (it does so
     asynchronously after Bye) queues, and the flip answers it
     Draining, so no wait is needed to make the answer certain *)
  with_service ~max_active:1 @@ fun ~socket ->
  O.clear_cache ();
  let draining_before = counter_value "campaign.service.draining_rejections" in
  let slow_result = ref None in
  let slow =
    Thread.create
      (fun () -> slow_result := Some (Svc.Client.submit ~socket slow_manifest))
      ()
  in
  await_submission_started ~socket;
  (* shutdown verb: the server flips to Draining while the submission
     is in flight *)
  (match Svc.Client.request ~socket Pr.Shutdown with
  | Pr.Bye -> ()
  | _ -> Alcotest.fail "expected bye");
  (* new submissions are rejected with the typed Draining response *)
  (match Svc.Client.submit ~socket run_manifest with
  | exception Svc.Client.Draining -> ()
  | Ok _ -> Alcotest.fail "draining server must reject new submissions"
  | Error m -> Alcotest.failf "expected Draining, got server error %s" m);
  Alcotest.(check bool) "draining_rejections counted" true
    (counter_value "campaign.service.draining_rejections" > draining_before);
  (* the in-flight submission finishes cleanly — drain, not abort *)
  Thread.join slow;
  (match !slow_result with
  | Some (Ok o) ->
    Alcotest.(check int) "in-flight submission drained to completion" 4
      o.Svc.Client.planned;
    Alcotest.(check int) "no failures" 0 o.Svc.Client.failed
  | Some (Error m) -> Alcotest.failf "in-flight submission rejected: %s" m
  | None -> Alcotest.fail "slow client never reported");
  (* once drained, the server is gone: connections are refused *)
  let rec await_exit n =
    if n = 0 then Alcotest.fail "server did not exit after draining"
    else
      match raw_connect socket with
      | fd ->
        Unix.close fd;
        Unix.sleepf 0.05;
        await_exit (n - 1)
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) -> ()
  in
  await_exit 100

let test_service_already_running () =
  with_service @@ fun ~socket ->
  (* a second daemon on a live socket must refuse, typed — and must NOT
     destroy the first daemon's socket *)
  with_store_dir @@ fun dir2 ->
  let store2 = St.open_ ~name:"svc-2" dir2 in
  (match
     Svc.create ~jobs:1 ~sandbox:false ~store:store2 ~socket_path:socket ()
   with
  | _ -> Alcotest.fail "second daemon must refuse a live socket"
  | exception Svc.Already_running p ->
    Alcotest.(check string) "names the socket" socket p);
  St.close store2;
  (* the first daemon is unharmed *)
  (match Svc.Client.request ~socket Pr.Status with
  | Pr.Status_report _ -> ()
  | _ -> Alcotest.fail "first daemon must survive the refused start");
  (* a stale socket file (owner dead) is reclaimed silently *)
  with_store_dir @@ fun dir3 ->
  let stale = Filename.temp_file "dramstress_stale" ".sock" in
  Sys.remove stale;
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX stale);
  Unix.close dead;
  (* bound then closed without listening: the file exists, nobody answers *)
  let store3 = St.open_ ~name:"svc-3" dir3 in
  let srv = Svc.create ~jobs:1 ~sandbox:false ~store:store3 ~socket_path:stale () in
  let th = Thread.create Svc.serve srv in
  (match Svc.Client.request ~socket:stale Pr.Status with
  | Pr.Status_report _ -> ()
  | _ -> Alcotest.fail "daemon on a reclaimed stale socket must serve");
  (match Svc.Client.request ~socket:stale Pr.Shutdown with
  | Pr.Bye -> ()
  | _ -> Alcotest.fail "expected bye");
  Thread.join th;
  try Sys.remove stale with Sys_error _ -> ()

let test_service_concurrent_dedup () =
  with_service @@ fun ~socket ->
  let c_sim = Tel.Counter.make "campaign.points_simulated" in
  let sim_before = Tel.Counter.value c_sim in
  O.clear_cache ();
  let results = Array.make 2 None in
  let client i = results.(i) <- Some (Svc.Client.submit ~socket run_manifest) in
  let ths = List.init 2 (fun i -> Thread.create client i) in
  List.iter Thread.join ths;
  let outs =
    Array.to_list results
    |> List.map (function
         | Some r -> ok_outcome r
         | None -> Alcotest.fail "client thread did not report")
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
  (* the acceptance criterion, counter-verified: two concurrent clients
     on the same manifest, every point simulated exactly once *)
  Alcotest.(check int) "each point simulated exactly once" 2
    (Tel.Counter.value c_sim - sim_before);
  Alcotest.(check int) "simulations split across the clients" 2
    (sum (fun o -> o.Svc.Client.simulated));
  Alcotest.(check int) "the other client's points came for free" 2
    (sum (fun o -> o.Svc.Client.deduped + o.Svc.Client.reused));
  List.iter
    (fun (o : Svc.Client.outcome) ->
      Alcotest.(check int) "full plan per client" 2 o.Svc.Client.planned;
      Alcotest.(check int) "no failures" 0 o.Svc.Client.failed;
      Alcotest.(check int) "per-client accounting closes" 2
        (o.Svc.Client.reused + o.Svc.Client.simulated
        + o.Svc.Client.deduped))
    outs

(* a warm resubmission is served on the connection's own thread *)
let test_service_warm_fans_out_nothing () =
  with_service @@ fun ~socket ->
  let cold = ok_outcome (Svc.Client.submit ~socket run_manifest) in
  Alcotest.(check int) "cold: everything simulated" 2 cold.Svc.Client.simulated;
  let sweeps = counter_value "util.par.sweeps" in
  let o = ok_outcome (Svc.Client.submit ~socket run_manifest) in
  Alcotest.(check int) "warm: everything reused" 2 o.Svc.Client.reused;
  Alcotest.(check int) "warm submission calls no fan-out" sweeps
    (counter_value "util.par.sweeps")

let test_service_merge_verb_and_diff () =
  (* build a second store with the low-vdd half of the plan, absorb it
     through the merge verb, and check the server now reuses it *)
  let half =
    {|
(campaign
  (name half-b)
  (defects (O1 true))
  (stress low-vdd (vdd 2.1))
  (detections (seq "w1 w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}
  in
  let other =
    {|
(campaign
  (name half-a)
  (defects (O1 true))
  (stress nominal)
  (detections (seq "w1 w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}
  in
  with_store_dir @@ fun src_dir ->
  let m_half = Manifest.of_string half in
  let src = St.open_ ~name:"half-b" src_dir in
  let r = Runner.run ~jobs:1 ~store:src m_half in
  St.close src;
  Alcotest.(check int) "source half computed" 1 r.Runner.simulated;
  with_service @@ fun ~socket ->
  (* cover the nominal half server-side first *)
  let o = ok_outcome (Svc.Client.submit ~socket other) in
  Alcotest.(check int) "nominal half simulated" 1 o.Svc.Client.simulated;
  (match Svc.Client.request ~socket (Pr.Merge src_dir) with
  | Pr.Merged { added; replaced; _ } ->
    Alcotest.(check bool) "merge brought records" true (added > 0);
    Alcotest.(check int) "no replacements across halves" 0 replaced
  | Pr.Error_msg m -> Alcotest.failf "merge refused: %s" m
  | _ -> Alcotest.fail "expected merge stats");
  (* the merged half is now served without simulation *)
  let o = ok_outcome (Svc.Client.submit ~socket run_manifest) in
  Alcotest.(check int) "both halves reused after merge" 2
    o.Svc.Client.reused;
  Alcotest.(check int) "nothing simulated after merge" 0
    o.Svc.Client.simulated;
  (* diff verb: both manifests against the server store, rendered *)
  match Svc.Client.request ~socket (Pr.Diff { a = other; b = half }) with
  | Pr.Diff_report text ->
    Alcotest.(check bool) "report rendered" true (String.length text > 0)
  | Pr.Error_msg m -> Alcotest.failf "diff refused: %s" m
  | _ -> Alcotest.fail "expected a diff report"

let test_store_merge_campaign_parity () =
  (* two sharded stores built by disjoint half-campaigns, merged, must
     be record-identical to one single-process run of the full plan *)
  let half name stress =
    Printf.sprintf
      {|
(campaign
  (name %s)
  (defects (O1 true))
  (stress %s)
  (detections (seq "w1 w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}
      name stress
  in
  with_store_dir @@ fun a_dir ->
  with_store_dir @@ fun b_dir ->
  with_store_dir @@ fun ref_dir ->
  let run ?shards dir src =
    let m = Manifest.of_string src in
    let s = St.open_ ?shards ~name:m.Manifest.name dir in
    let r = Runner.run ~jobs:1 ~store:s m in
    St.close s;
    Alcotest.(check int) "half-run clean" 0 (List.length r.Runner.failures)
  in
  run ~shards:4 a_dir (half "half-a" "nominal");
  run ~shards:4 b_dir (half "half-b" "low-vdd (vdd 2.1)");
  run ref_dir run_manifest;
  let dst = St.open_ ~name:"half-a" a_dir in
  let src = St.open_ ~name:"half-b" b_dir in
  let src_entries = St.entries src in
  let stats = St.merge ~src ~dst in
  St.close src;
  Alcotest.(check int) "disjoint halves: everything added" src_entries
    stats.St.added;
  Alcotest.(check int) "nothing replaced" 0 stats.St.replaced;
  let rs = St.open_ ~name:"ref" ref_dir in
  let m = Manifest.of_string run_manifest in
  List.iter
    (fun p ->
      let key = p.Plan.key in
      let merged = St.find dst ~key and reference = St.find rs ~key in
      Alcotest.(check bool) "point present on both sides" true
        (merged <> None && reference <> None);
      Alcotest.(check (option string))
        "merged sharded store record-identical to single-process run"
        reference merged)
    (Plan.points m);
  St.close rs;
  St.close dst

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dramstress_campaign"
    [
      ( "manifest",
        [
          tc "full example parses" test_manifest_full;
          tc "defaults" test_manifest_defaults;
          tc "diagnostics collected, not fail-fast"
            test_manifest_collects_diagnostics;
          tc "parse errors carry line numbers" test_manifest_parse_error_line;
          tc "range with min >= max diagnosed" test_manifest_range_min_ge_max;
          tc "log range touching zero diagnosed"
            test_manifest_range_log_crosses_zero;
          tc "extension axes sweep and label" test_manifest_extended_sweep;
          QCheck_alcotest.to_alcotest prop_manifest_mutated;
        ] );
      ( "plan",
        [
          tc "cross product and order" test_plan_cross_product;
          tc "address sensitivity" test_descriptor_sensitivity;
          tc "no collisions across the plan" test_descriptor_defect_injective;
          tc "address stable across domains" test_descriptor_domain_stable;
          tc "march and equivalent seq share records"
            test_march_seq_share_address;
          tc "strategy-aware record sharing" test_descriptor_strategy_sharing;
          tc "extension axes stamp addresses compatibly"
            test_descriptor_extension_suffix;
          tc "result codec round-trips" test_result_codec_roundtrip;
          tc "keys concatenate to the formatted text"
            test_keys_concatenate_as_formatted;
        ] );
      ( "runner",
        [
          tc "cold run then warm 100% reuse" test_runner_cold_then_warm;
          tc "failures recorded and retried, successes kept"
            test_runner_failure_retry;
          tc "adaptive planner: grid parity from fewer simulations"
            test_runner_adaptive_planner_parity;
          tc "pre-extension golden store fully reused"
            test_golden_store_reuse;
          tc "golden Table-1 store replays the paper's claims"
            test_golden_table1_claims;
          tc "Table-1 diff within a tolerance" test_table1_diff_tolerance;
          tc "a differing detection shifts a row" test_diff_agree_detection;
          tc "adaptive parity holds on the wait axis"
            test_adaptive_parity_wait_axis;
          tc "adaptive retention searches never escalate"
            test_adaptive_retention_no_escalation;
          tc "a result cut short by a deadline is not stored"
            test_deadline_result_not_stored;
          tc "stored chains walked inline, only missing ones fan out"
            test_runner_stored_chains_inline;
        ] );
      ( "diff",
        [
          tc "completed self-diff is empty" test_diff_self_empty;
          tc "stress pair matches direct search" test_diff_stress_pair_parity;
          tc "missing side reported, not shifted" test_diff_missing_side;
          tc "best point matches Sc_eval directly" test_best_point_parity;
          tc "cross-axis stress pair shifts the border"
            test_cross_axis_campaign_diff;
        ] );
      ( "protocol",
        [
          tc "sexp printer/parser round-trip" test_protocol_sexp_roundtrip;
          tc "request codec round-trips" test_protocol_request_roundtrip;
          tc "response codec round-trips" test_protocol_response_roundtrip;
          tc "framing: large, garbage, EOF" test_protocol_frames;
          tc "read deadline: stalled frame times out, prompt frame passes"
            test_protocol_frame_timeout;
          QCheck_alcotest.to_alcotest prop_sexp_mutated;
          QCheck_alcotest.to_alcotest prop_request_mutated;
          QCheck_alcotest.to_alcotest prop_response_mutated;
          QCheck_alcotest.to_alcotest prop_task_mutated;
        ] );
      ( "service",
        [
          tc "submit cold/warm + status/query/counters"
            test_service_submit_cold_warm;
          tc "broken manifest is a server-side error"
            test_service_bad_manifest_is_error;
          tc "garbage frames answered, server unharmed"
            test_service_garbage_frames;
          tc "slowloris half-frame dropped, honest clients served"
            test_service_slowloris_dropped;
          tc "over capacity: typed Busy, retrying client converges"
            test_service_admission_busy;
          tc "graceful drain: in-flight finishes, new work refused"
            test_service_graceful_drain;
          tc "second daemon refused on a live socket, stale reclaimed"
            test_service_already_running;
          tc "concurrent clients: one simulation per point"
            test_service_concurrent_dedup;
          tc "warm resubmission calls no fan-out"
            test_service_warm_fans_out_nothing;
          tc "merge verb absorbs a store, diff verb renders"
            test_service_merge_verb_and_diff;
          tc "merged sharded halves equal one full run"
            test_store_merge_campaign_parity;
        ] );
    ]
