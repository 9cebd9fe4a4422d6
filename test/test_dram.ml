(* Electrical behaviour tests of the DRAM column model: functional
   correctness of operations, defect responses and stress effects. *)

module S = Dramstress_dram.Stress
module T = Dramstress_dram.Tech
module Tm = Dramstress_dram.Timing
module O = Dramstress_dram.Ops
module D = Dramstress_defect.Defect

let nominal = S.nominal
let bits oc = String.concat "" (List.map string_of_int (O.sensed_bits oc))

(* ------------------------------------------------------------------ *)
(* Stress record                                                       *)
(* ------------------------------------------------------------------ *)

let test_stress_validate () =
  S.validate nominal;
  Alcotest.check_raises "bad duty" (Invalid_argument "Stress: duty not in (0,1)")
    (fun () -> S.validate (S.with_duty nominal 1.0));
  Alcotest.check_raises "bad tcyc" (Invalid_argument "Stress: tcyc <= 0")
    (fun () -> S.validate (S.with_tcyc nominal 0.0));
  Alcotest.check_raises "cold" (Invalid_argument "Stress: temperature below 0 K")
    (fun () -> S.validate (S.with_temp_c nominal (-300.0)));
  Alcotest.check_raises "negative wait" (Invalid_argument "Stress: wait < 0")
    (fun () -> S.validate (S.with_wait nominal (-1.0)));
  Alcotest.check_raises "negative hammer" (Invalid_argument "Stress: hammer < 0")
    (fun () -> S.validate (S.with_hammer nominal (-1)));
  Alcotest.check_raises "trim swallows the cycle"
    (Invalid_argument "Stress: |twr_trim| >= tcyc") (fun () ->
      S.validate (S.with_twr_trim nominal nominal.S.tcyc))

let test_stress_axes () =
  let sc = S.set nominal S.Supply_voltage 2.1 in
  Alcotest.(check (float 1e-9)) "set/get" 2.1 (S.get sc S.Supply_voltage);
  Alcotest.(check (float 1e-9)) "others untouched" nominal.S.tcyc
    (S.get sc S.Cycle_time);
  Alcotest.(check (float 1e-9)) "kelvin" 300.15 (S.temp_kelvin nominal);
  (* discrete extension axes decode from the float representation *)
  let sc = S.set nominal S.Hammer 99.6 in
  Alcotest.(check bool) "hammer rounds" true (sc.S.hammer = 100);
  let sc = S.set nominal S.Pattern 0.4 in
  Alcotest.(check bool) "pattern snaps to nearest" true
    (sc.S.pattern = S.Checkerboard);
  Alcotest.(check (float 1e-9)) "pattern reads back as float" 0.5
    (S.get sc S.Pattern)

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let test_timing_structure () =
  let ph = Tm.phases T.default nominal in
  Alcotest.(check bool) "ordering" true
    (ph.Tm.t_pre_off < ph.Tm.t_wl_on
    && ph.Tm.t_wl_on < ph.Tm.t_sense
    && ph.Tm.t_sense < ph.Tm.t_wr
    && ph.Tm.t_wr < ph.Tm.t_wl_off
    && ph.Tm.t_wl_off < ph.Tm.t_cyc)

let test_timing_write_window_shrinks_superlinearly () =
  let w tcyc = Tm.write_window (Tm.phases T.default (S.with_tcyc nominal tcyc)) in
  let w60 = w 60e-9 and w55 = w 55e-9 in
  Alcotest.(check bool) "5 ns cycle cut removes 5 ns of write window" true
    (w60 -. w55 > 4.9e-9 && w55 < 0.7 *. w60)

let test_timing_sense_fixed () =
  let s tcyc = (Tm.phases T.default (S.with_tcyc nominal tcyc)).Tm.t_sense in
  Alcotest.(check (float 1e-12)) "sense instant independent of tcyc"
    (s 60e-9) (s 55e-9)

let test_timing_duty_moves_wl_off () =
  let off duty = (Tm.phases T.default (S.with_duty nominal duty)).Tm.t_wl_off in
  Alcotest.(check bool) "higher duty holds the word line longer" true
    (off 0.65 > off 0.35)

let test_timing_too_short () =
  Alcotest.check_raises "unopenable word line"
    (Invalid_argument "Timing.phases: cycle too short to open the word line")
    (fun () -> ignore (Tm.phases T.default (S.with_tcyc nominal 5e-9)))

(* ------------------------------------------------------------------ *)
(* Operations on a healthy column                                      *)
(* ------------------------------------------------------------------ *)

let test_good_cell_functional () =
  let oc = O.run ~stress:nominal ~vc_init:0.0 [ O.W1; O.R; O.W0; O.R; O.W1; O.R ] in
  Alcotest.(check string) "reads" "101" (bits oc)

let test_good_cell_rails () =
  let oc = O.run ~stress:nominal ~vc_init:1.2 [ O.W1; O.W0 ] in
  (match oc.O.results with
  | [ a; b ] ->
    Alcotest.(check bool) "w1 reaches vdd" true (a.O.vc_end > 2.3);
    Alcotest.(check bool) "w0 reaches gnd" true (Float.abs b.O.vc_end < 0.05)
  | _ -> Alcotest.fail "expected two results")

let test_read_is_restoring () =
  (* a marginal-high cell is pulled to a full rail by the read *)
  let oc = O.run ~stress:nominal ~vc_init:2.0 [ O.R; O.R ] in
  match oc.O.results with
  | [ first; second ] ->
    Alcotest.(check (option int)) "reads 1" (Some 1) first.O.sensed;
    Alcotest.(check bool) "restored high" true (second.O.vc_end > 2.2)
  | _ -> Alcotest.fail "expected two results"

let test_read_destructive_below_threshold () =
  let oc = O.run ~stress:nominal ~vc_init:0.7 [ O.R ] in
  match oc.O.results with
  | [ r ] ->
    Alcotest.(check (option int)) "reads 0" (Some 0) r.O.sensed;
    Alcotest.(check bool) "written back low" true (r.O.vc_end < 0.2)
  | _ -> Alcotest.fail "expected one result"

let test_separation_healthy () =
  let oc = O.run ~stress:nominal ~vc_init:0.0 [ O.W1; O.R ] in
  match List.nth oc.O.results 1 with
  | { O.separation = Some s; _ } ->
    Alcotest.(check bool) "full-rail separation" true (s > 2.0)
  | _ -> Alcotest.fail "expected separation on read"

let test_pause_retains_recent_write () =
  let oc = O.run ~stress:nominal ~vc_init:0.0 [ O.W1; O.Pause 1e-4; O.R ] in
  Alcotest.(check string) "1 retained over 100 us" "1" (bits oc)

let test_empty_sequence_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Ops.run: empty sequence")
    (fun () -> ignore (O.run ~stress:nominal []))

let test_parse_seq () =
  Alcotest.(check bool) "round trip" true
    (O.parse_seq "w1 w1 w0 r" = [ O.W1; O.W1; O.W0; O.R ]);
  Alcotest.(check bool) "commas" true (O.parse_seq "w0,r" = [ O.W0; O.R ]);
  (match O.parse_seq "w1 p1e-3 r" with
  | [ O.W1; O.Pause p; O.R ] -> Alcotest.(check (float 1e-12)) "pause" 1e-3 p
  | _ -> Alcotest.fail "pause parse");
  Alcotest.(check string) "to_string" "w1 w0 r"
    (O.seq_to_string [ O.W1; O.W0; O.R ]);
  Alcotest.check_raises "junk" (Invalid_argument "Ops.parse_seq: unknown op x")
    (fun () -> ignore (O.parse_seq "x"))

(* ------------------------------------------------------------------ *)
(* Defective column behaviour                                          *)
(* ------------------------------------------------------------------ *)

let open_defect r = D.v (D.Open_cell D.At_bitline_contact) D.True_bl r

let test_open_blocks_w0 () =
  let vc r =
    let oc = O.run ~stress:nominal ~defect:(open_defect r) ~vc_init:2.4 [ O.W0 ] in
    (List.hd oc.O.results).O.vc_end
  in
  Alcotest.(check bool) "residual grows with R" true
    (vc 1e3 < 0.1 && vc 200e3 > 0.8 && vc 200e3 < vc 1e6)

let test_open_sites_equivalent () =
  (* O1, O2, O3 sit in the same series path: equal residuals *)
  let vc site =
    let d = D.v (D.Open_cell site) D.True_bl 200e3 in
    let oc = O.run ~stress:nominal ~defect:d ~vc_init:2.4 [ O.W0 ] in
    (List.hd oc.O.results).O.vc_end
  in
  let v1 = vc D.At_bitline_contact in
  let v2 = vc D.At_capacitor_contact in
  let v3 = vc D.At_plate_contact in
  Alcotest.(check bool)
    (Printf.sprintf "O1=%.3f O2=%.3f O3=%.3f" v1 v2 v3)
    true
    (Float.abs (v1 -. v2) < 0.05 && Float.abs (v1 -. v3) < 0.05)

let test_open_detected_by_paper_sequence () =
  let oc =
    O.run ~stress:nominal ~defect:(open_defect 400e3) ~vc_init:2.4
      [ O.W1; O.W1; O.W0; O.R ]
  in
  Alcotest.(check string) "fails r0" "1" (bits oc)

let test_open_escapes_when_small () =
  let oc =
    O.run ~stress:nominal ~defect:(open_defect 20e3) ~vc_init:2.4
      [ O.W1; O.W1; O.W0; O.R ]
  in
  Alcotest.(check string) "passes" "0" (bits oc)

let test_comp_placement_inverts_logic () =
  (* same physical behaviour, 0/1 interchanged: on the complementary
     line the open blocks the logical w1 instead *)
  let d = D.v (D.Open_cell D.At_bitline_contact) D.Comp_bl 400e3 in
  let oc = O.run ~stress:nominal ~defect:d ~vc_init:0.0 [ O.W0; O.W0; O.W1; O.R ] in
  Alcotest.(check string) "fails r1 with 0" "0" (bits oc)

let test_short_to_gnd_leaks_one () =
  let d = D.v D.Short_to_gnd D.True_bl 1e6 in
  let oc = O.run ~stress:nominal ~defect:d ~vc_init:0.0 [ O.W1; O.Pause 1e-3; O.R ] in
  Alcotest.(check string) "1 leaked away" "0" (bits oc)

let test_short_to_vdd_lifts_zero () =
  let d = D.v D.Short_to_vdd D.True_bl 1e6 in
  let oc = O.run ~stress:nominal ~defect:d ~vc_init:2.4 [ O.W0; O.Pause 1e-3; O.R ] in
  Alcotest.(check string) "0 pulled up" "1" (bits oc)

let test_short_harmless_when_huge () =
  let d = D.v D.Short_to_gnd D.True_bl 1e12 in
  let oc = O.run ~stress:nominal ~defect:d ~vc_init:0.0 [ O.W1; O.Pause 1e-3; O.R ] in
  Alcotest.(check string) "no effect" "1" (bits oc)

let test_bridge_weld_collapses_separation () =
  (* a hard bridge to the paired line keeps the latch from separating *)
  let d = D.v D.Bridge_to_paired_bl D.True_bl 2e3 in
  let oc = O.run ~stress:nominal ~defect:d ~vc_init:2.4 [ O.W1; O.W0; O.R ] in
  match List.nth oc.O.results 2 with
  | { O.separation = Some s; _ } ->
    Alcotest.(check bool) (Printf.sprintf "collapsed (%.2f V)" s) true (s < 0.5)
  | _ -> Alcotest.fail "expected separation"

let test_neighbour_bridge_couples_over_pause () =
  let d = D.v D.Bridge_to_neighbour D.True_bl 1e6 in
  (* victim written 0, aggressor holds vdd; a pause equilibrates them
     towards the shared mid-level (just below the sense threshold at
     room temperature -- the hot read in the next test tips it over) *)
  let oc =
    O.run ~stress:nominal ~defect:d ~vc_init:2.4 ~v_neighbour:2.4
      [ O.W0; O.Pause 1e-3; O.R ]
  in
  let vc_after_pause = (List.nth oc.O.results 1).O.vc_end in
  Alcotest.(check bool)
    (Printf.sprintf "victim pulled up to %.2f V" vc_after_pause)
    true
    (vc_after_pause > 0.8 && vc_after_pause < 1.6)

let test_neighbour_bridge_detected_hot () =
  let d = D.v D.Bridge_to_neighbour D.True_bl 30e6 in
  let hot = S.with_temp_c nominal 87.0 in
  let oc =
    O.run ~stress:hot ~defect:d ~vc_init:2.4 ~v_neighbour:2.4
      [ O.W0; O.Pause 1e-3; O.R ]
  in
  Alcotest.(check string) "coupling + hot leakage flips the 0" "1" (bits oc)

(* ------------------------------------------------------------------ *)
(* Stress effects (the paper's Figures 3-5 directions)                 *)
(* ------------------------------------------------------------------ *)

let residual_after_w0 stress =
  let oc = O.run ~stress ~defect:(open_defect 200e3) ~vc_init:stress.S.vdd [ O.W0 ] in
  (List.hd oc.O.results).O.vc_end

let test_shorter_cycle_stresses_w0 () =
  Alcotest.(check bool) "55 ns leaves more charge" true
    (residual_after_w0 (S.with_tcyc nominal 55e-9)
    > residual_after_w0 nominal +. 0.2)

let test_higher_vdd_stresses_w0 () =
  Alcotest.(check bool) "2.7 V leaves more charge" true
    (residual_after_w0 (S.with_vdd nominal 2.7)
    > residual_after_w0 (S.with_vdd nominal 2.1) +. 0.1)

let test_vdd_ratio_matches_paper () =
  (* the paper's residuals 0.9 / 1.0 / 1.2 V scale with Vdd; ours must
     preserve that proportionality within 10% *)
  let r21 = residual_after_w0 (S.with_vdd nominal 2.1) in
  let r27 = residual_after_w0 (S.with_vdd nominal 2.7) in
  let ratio = r27 /. r21 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f ~ 2.7/2.1" ratio)
    true
    (ratio > 1.15 && ratio < 1.45)

let test_temperature_leakage_direction () =
  (* a stored 0 drifts up through access-transistor leakage much faster
     when hot: the classic retention mechanism *)
  let drift temp_c =
    let st = S.with_temp_c nominal temp_c in
    let oc = O.run ~stress:st ~vc_init:0.0 [ O.Pause 10e-3; O.R ] in
    (List.hd oc.O.results).O.vc_end
  in
  Alcotest.(check bool) "hot leaks more" true (drift 87.0 > drift (-33.0))

(* ------------------------------------------------------------------ *)
(* Production engine vs the full-MNA reference                          *)
(* ------------------------------------------------------------------ *)

module E = Dramstress_engine
module Col = Dramstress_dram.Column

(* [trace] against its replay by the dense full-MNA reference
   (test/reference), which shares no layout, slot plan or sparse LU
   with the engine *)
let test_engine_matches_reference () =
  (* a full DRAM column with a defect, for both integrators, in a
     one-lane run and in a two-lane ensemble (where each lane's defect
     resistance is a resistor override), replayed by the reference from
     the same netlist, initial conditions and time points *)
  let ops = [ O.W1; O.R; O.W0; O.Pause 1e-5; O.R ] in
  let vc_init = 1.0 and vdd = nominal.S.vdd in
  (* the nominal stress's neighbours hold a 1 *)
  Alcotest.(check bool) "all-1 neighbours" true (nominal.S.pattern = S.All_1);
  List.iter
    (fun (integrator, rs) ->
      (* tight Newton tolerances: the fixed point is then unique to far
         below the 1e-9 comparison, so the check is about the assembly
         and the solve and not about where Newton happened to stop *)
      let sim =
        { E.Options.default with E.Options.integrator; tol_scale = 1e-6 }
      in
      let outcomes =
        List.map
          (function Ok oc -> oc | Error e -> raise e)
          (O.run_batch ~config:(Dramstress_dram.Sim_config.v ~sim ())
             ~cache:(O.Cache.create ~enabled:false ())
             ~stress:nominal
             ~lanes:
               (List.map
                  (fun r ->
                    { O.defect = Some (D.v D.Short_to_gnd D.True_bl r);
                      vc_init })
                  rs)
             ops)
      in
      let multi = List.length rs > 1 in
      List.iter2
        (fun r (oc : O.outcome) ->
          let built = oc.O.built and trace = oc.O.trace in
          let ref_ =
            Reference.replay built.Col.compiled
              ~opts:{ sim with E.Options.temp = S.temp_kelvin nominal }
              ?override:(if multi then Some ("r_defect", r) else None)
              ~ics:
                (Col.initial_conditions built ~vdd ~vc_init ~v_neighbour:vdd)
              ~probes:built.Col.probes ~times:trace.E.Transient.times ()
          in
          (* mid-trace points pass through sense-amp regeneration, whose
             positive feedback amplifies last-ulp summation-order
             differences before the rails collapse them again — hence
             the looser trace bound; trace equality at 1e-9 is covered
             by the engine-level pass-gate and fixed-node capacitor
             tests *)
          Reference.check ~eps_final:1e-9 ~eps_trace:1e-6
            ~what:(Printf.sprintf "%d lanes, r=%g" (List.length rs) r)
            ref_ trace)
        rs outcomes)
    [ (E.Options.Backward_euler, [ 500e3 ]);
      (E.Options.Trapezoidal, [ 500e3 ]);
      (E.Options.Backward_euler, [ 500e3; 2e6 ]) ]

let test_memo_cache_replays () =
  (* identical requests are served from the cache: run_count still counts
     them, but only the first one simulates *)
  O.Cache.resize O.Cache.default 64;
  (* fresh cache, stats zeroed *)
  let oc1 = O.run ~stress:nominal ~vc_init:0.0 [ O.W1; O.R ] in
  let oc2 = O.run ~stress:nominal ~vc_init:0.0 [ O.W1; O.R ] in
  Alcotest.(check int) "both requests counted" 2
    (O.Cache.stats O.Cache.default).O.Cache.requests;
  Alcotest.(check bool) "replayed outcome is shared" true (oc1 == oc2);
  let s = O.Cache.stats O.Cache.default in
  Alcotest.(check int) "one simulation" 1 s.O.Cache.misses;
  Alcotest.(check int) "one replay" 1 s.O.Cache.hits;
  (* a different request misses *)
  let oc3 = O.run ~stress:nominal ~vc_init:0.1 [ O.W1; O.R ] in
  Alcotest.(check bool) "different key simulates" true (oc3 != oc1);
  Alcotest.(check int) "second miss" 2 (O.Cache.stats O.Cache.default).O.Cache.misses;
  (* disabling caching bypasses the table entirely *)
  O.Cache.set_enabled O.Cache.default false;
  let oc4 = O.run ~stress:nominal ~vc_init:0.0 [ O.W1; O.R ] in
  Alcotest.(check bool) "bypass returns a fresh outcome" true (oc4 != oc1);
  Alcotest.(check int) "no new hit" 1 (O.Cache.stats O.Cache.default).O.Cache.hits;
  O.Cache.set_enabled O.Cache.default true;
  O.Cache.resize O.Cache.default 512

(* [Ops.simulations] is the paper's cost metric, so it counts with the
   memo cache off too: every bypassed lookup is a miss *)
let test_simulations_count_with_cache_off () =
  let was = O.Cache.is_enabled O.Cache.default in
  let sims0 = O.simulations () in
  O.Cache.set_enabled O.Cache.default false;
  Fun.protect
    ~finally:(fun () -> O.Cache.set_enabled O.Cache.default was)
    (fun () ->
      ignore (O.run ~stress:nominal ~vc_init:0.0 [ O.W1; O.R ]);
      ignore (O.run ~stress:nominal ~vc_init:0.0 [ O.W1; O.R ]));
  Alcotest.(check int) "both runs simulated" 2 (O.simulations () - sims0);
  let s = O.Cache.stats O.Cache.default in
  Alcotest.(check int) "requests = hits + misses" s.O.Cache.requests
    (s.O.Cache.hits + s.O.Cache.misses)

(* ------------------------------------------------------------------ *)
(* Retry / degradation ladder                                          *)
(* ------------------------------------------------------------------ *)

module Sc = Dramstress_dram.Sim_config

(* a Newton starved to a single iteration cannot converge anywhere — a
   deterministic solver failure for exercising the ladder without
   hunting for a pathological resistance *)
let tight_sim = { E.Options.default with E.Options.max_newton = 1 }

(* restores a workable iteration budget (1 * 100); max_step_v stays at
   the default, so the rescued solution matches a healthy run *)
let rescue_stage = Sc.Damped_newton { max_step_v = 1.0; max_newton_scale = 100 }

let run_tight ~retry () =
  O.run
    ~config:(Sc.v ~sim:tight_sim ~retry ())
    ~cache:(O.Cache.create ())
    ~stress:nominal ~defect:(open_defect 200e3) ~vc_init:2.4 [ O.W0 ]

let test_no_retry_propagates () =
  match run_tight ~retry:Sc.no_retry () with
  | _ -> Alcotest.fail "starved solver should not converge"
  | exception E.Newton.No_convergence _ -> ()

let test_retry_ladder_rescues () =
  let oc = run_tight ~retry:{ Sc.stages = [ rescue_stage ] } () in
  let rescued = (List.hd oc.O.results).O.vc_end in
  let healthy =
    O.run ~cache:(O.Cache.create ()) ~stress:nominal
      ~defect:(open_defect 200e3) ~vc_init:2.4 [ O.W0 ]
  in
  let reference = (List.hd healthy.O.results).O.vc_end in
  Alcotest.(check bool)
    (Printf.sprintf "rescued %.6f ~ healthy %.6f" rescued reference)
    true
    (Float.abs (rescued -. reference) < 1e-6)

let test_retry_ladder_exhausts () =
  match run_tight ~retry:{ Sc.stages = [ Sc.Halve_dt ] } () with
  | _ -> Alcotest.fail "halved dt cannot fix a starved Newton"
  | exception O.Exhausted_retries { attempts; stages; error } ->
    Alcotest.(check int) "one attempt" 1 attempts;
    Alcotest.(check (list string)) "stage names" [ "halve-dt" ] stages;
    (match error with
    | E.Newton.No_convergence _ -> ()
    | e -> Alcotest.failf "unexpected final error %s" (Printexc.to_string e));
    Alcotest.(check int) "retries_of reads attempts" 1
      (O.retries_of (O.Exhausted_retries { error; attempts; stages }));
    Alcotest.(check int) "retries_of ignores other exceptions" 0
      (O.retries_of Exit)

let test_retry_telemetry_reconciles () =
  let module Tel = Dramstress_util.Telemetry in
  let was = Tel.enabled () in
  Fun.protect
    ~finally:(fun () -> Tel.set_enabled was)
    (fun () ->
      Tel.set_enabled true;
      Tel.reset ();
      (* one rescued run (1 attempt, 1 degraded) and one exhausted run
         (1 attempt, 1 failed) *)
      ignore (run_tight ~retry:{ Sc.stages = [ rescue_stage ] } ());
      (try ignore (run_tight ~retry:{ Sc.stages = [ Sc.Halve_dt ] } ())
       with O.Exhausted_retries _ -> ());
      let snap = Tel.snapshot () in
      let counter name =
        match List.assoc_opt name snap.Tel.counters with
        | Some v -> v
        | None -> Alcotest.failf "counter %s missing from snapshot" name
      in
      Alcotest.(check int) "retry_attempts" 2
        (counter "dram.ops.retry_attempts");
      Alcotest.(check int) "degraded_runs" 1 (counter "dram.ops.degraded_runs");
      Alcotest.(check int) "failed_runs" 1 (counter "dram.ops.failed_runs"))

(* A high-resistance open leaves the node between the bit line and the
   access drain tied only by 1/R + gmin at the t = 0 quasi-static step,
   beside capacitor companions near 1e5 S. Judged against the matrix
   scale that well-posed row read as singular, and every retry stage
   (none touches the t = 0 step) failed the same way; judged against
   its own row it factors at once. *)
let test_high_r_open_solves_at_t0 () =
  let module Tel = Dramstress_util.Telemetry in
  let was = Tel.enabled () in
  Fun.protect
    ~finally:(fun () -> Tel.set_enabled was)
    (fun () ->
      Tel.set_enabled true;
      Tel.reset ();
      List.iter
        (fun r ->
          match
            O.run ~cache:(O.Cache.create ()) ~stress:nominal
              ~defect:(open_defect r) (O.parse_seq "w1 w1 w0 r0")
          with
          | oc ->
            Alcotest.(check int)
              (Printf.sprintf "R = %g: one sensed bit" r)
              1
              (List.length (O.sensed_bits oc))
          | exception e ->
            Alcotest.failf "R = %g: %s" r (Printexc.to_string e))
        [ 1e9; 1e10; 1e11 ];
      let counters = (Tel.snapshot ()).Tel.counters in
      let count name = Option.value ~default:0 (List.assoc_opt name counters) in
      Alcotest.(check int) "no singular LU" 0
        (count "engine.health.singular_lu");
      Alcotest.(check int) "no ladder stage" 0
        (count "dram.ops.retry_attempts"))

(* The sparse LU's column order keeps the column's factors on its own
   pattern: one system per Figure-7 entry x placement factors with no
   fill-in, and at most 25 scheduled multiply-adds per refactor (the
   natural column order reads 202-273 here). With the leak and coupling
   devices added, O1's pattern admits no fill-free pivot sequence at
   all, and the order fills 2 slots there; the others stay fill-free. *)
let test_column_lu_fill_free () =
  let module Col = Dramstress_dram.Column in
  let module W = Dramstress_circuit.Waveform in
  let tech = T.default and vdd = nominal.S.vdd in
  let on = W.dc 1.0 and off = W.dc 0.0 in
  let controls =
    { Col.wl = W.dc (vdd +. tech.T.wl_boost); wl_ref = off; wl_nb = off;
      pre = on; sae = off; wr_acc_hi = off; wr_acc_lo = off;
      wr_ref_hi = off; wr_ref_lo = off; colsel = off }
  in
  List.iter
    (fun (entry : D.entry) ->
      List.iter
        (fun placement ->
          List.iter
            (fun (leak_g, couple) ->
              let defect = D.v entry.D.kind placement 200e3 in
              let col =
                Col.build ~tech ~vdd ~controls ~leak_g ~couple ~defect ()
              in
              let sys = E.Mna.make col.Col.compiled in
              let ws = E.Mna.make_workspace sys in
              let reactive =
                { E.Mna.dt = 1e-10;
                  prev_v = Array.make (E.Mna.n_nodes sys) 0.0;
                  prev_cap_current = Array.make (E.Mna.n_capacitors sys) 0.0 }
              in
              E.Mna.eval_controls_into sys ws ~t_now:0.0;
              E.Mna.assemble_into_pre sys ws ~opts:E.Options.default
                ~x:(Array.make (E.Mna.size sys) 0.0) ~reactive;
              E.Mna.solve_in_place sys ws;
              let name =
                Format.asprintf "%s/%a%s" entry.D.id D.pp_placement placement
                  (if leak_g > 0.0 then " leak+couple" else "")
              in
              match E.Mna.lu_schedule ws with
              | None -> Alcotest.failf "%s: no schedule" name
              | Some sc ->
                let fill = sc.Dramstress_util.Sparse_lu.fill_in in
                if fill > (if leak_g > 0.0 then 2 else 0) then
                  Alcotest.failf "%s: %d fill-in slots" name fill;
                if sc.updates > 25 then
                  Alcotest.failf "%s: %d multiply-adds per refactor (limit 25)"
                    name sc.updates)
            [ (0.0, 0.0); (1e-12, 0.1 *. tech.T.c_cell) ])
        [ D.True_bl; D.Comp_bl ])
    D.catalog

(* ------------------------------------------------------------------ *)
(* Deadlines and chaos at the operation level                          *)
(* ------------------------------------------------------------------ *)

module Chaos = Dramstress_util.Chaos
module Par = Dramstress_util.Par
module Outcome = Dramstress_util.Outcome

let with_chaos f = Fun.protect ~finally:(fun () -> Chaos.disarm ()) f

(* a solver that can never converge (one Newton iteration) under a
   microscopic wall-clock budget: the run must die of Timeout — which
   the ladder deliberately does NOT retry — not of No_convergence *)
let test_deadline_timeout_propagates () =
  let module Tel = Dramstress_util.Telemetry in
  let was = Tel.enabled () in
  Fun.protect
    ~finally:(fun () -> Tel.set_enabled was)
    (fun () ->
      Tel.set_enabled true;
      Tel.reset ();
      let config =
        Sc.v ~sim:tight_sim ~retry:{ Sc.stages = [ rescue_stage ] }
          ~deadline:1e-9 ()
      in
      (match
         O.run ~config ~cache:(O.Cache.create ()) ~stress:nominal
           ~defect:(open_defect 200e3) ~vc_init:2.4 [ O.W0 ]
       with
      | _ -> Alcotest.fail "expected Timeout"
      | exception E.Newton.Timeout { budget_s; _ } ->
        Alcotest.(check (float 0.0)) "budget echoed" 1e-9 budget_s);
      let snap = Tel.snapshot () in
      Alcotest.(check (option int)) "deadline counter" (Some 1)
        (List.assoc_opt "dram.ops.deadline_exceeded" snap.Tel.counters))

(* under a deadline every lane of a batch is its own one-lane run with
   its own budget; an expired budget fails each lane with Timeout and
   never walks the retry ladder *)
let test_deadline_lanes_skip_ladder () =
  let module Tel = Dramstress_util.Telemetry in
  let was = Tel.enabled () in
  Fun.protect
    ~finally:(fun () -> Tel.set_enabled was)
    (fun () ->
      Tel.set_enabled true;
      Tel.reset ();
      let config = Sc.v ~deadline:1e-9 () in
      let lanes =
        List.map
          (fun r -> { O.defect = Some (open_defect r); vc_init = 2.4 })
          [ 1e5; 2e5; 4e5; 8e5 ]
      in
      List.iter
        (function
          | Error (E.Newton.Timeout _) -> ()
          | Error e ->
            Alcotest.failf "expected Timeout, got %s" (Printexc.to_string e)
          | Ok _ -> Alcotest.fail "expected Timeout")
        (O.run_batch ~config ~cache:(O.Cache.create ()) ~stress:nominal
           ~lanes [ O.W0 ]);
      let counters = (Tel.snapshot ()).Tel.counters in
      let count name = Option.value ~default:0 (List.assoc_opt name counters) in
      Alcotest.(check int) "one-lane ensembles" 4
        (count "engine.ensemble.batches");
      Alcotest.(check int) "no ladder stage" 0
        (count "dram.ops.retry_attempts");
      Alcotest.(check int) "no fallback" 0 (count "dram.ops.lane_fallbacks");
      Alcotest.(check int) "every lane counted" 4
        (count "dram.ops.deadline_exceeded"))

let test_deadline_generous_is_unobtrusive () =
  let config = Sc.v ~deadline:3600.0 () in
  let oc =
    O.run ~config ~cache:(O.Cache.create ()) ~stress:nominal ~vc_init:0.0
      [ O.W1; O.R ]
  in
  Alcotest.(check (list int)) "normal result" [ 1 ] (O.sensed_bits oc)

let test_deadline_validation () =
  Alcotest.check_raises "non-positive deadline"
    (Invalid_argument "Sim_config: deadline must be > 0") (fun () ->
      ignore (Sc.v ~deadline:0.0 ()))

let test_run_validates_config () =
  (* [Sc.v] is not the only way to build a config: a hand-built record
     meets the same checks where every simulation starts *)
  List.iter
    (fun (name, msg, config) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (O.run ~config ~stress:nominal [ O.W1 ])))
    [ ( "zero steps", "Sim_config: steps_per_cycle < 1",
        { Sc.default with Sc.steps_per_cycle = 0 } );
      ( "zero deadline", "Sim_config: deadline must be > 0",
        { Sc.default with Sc.deadline = Some 0.0 } );
      ( "bad retry stage", "Sim_config: Raise_steps factor < 2",
        { Sc.default with Sc.retry = { Sc.stages = [ Sc.Raise_steps 1 ] } } )
    ]

(* the acceptance scenario: one chaos-hung point is cut off by the
   deadline and reported as Failed {error = Timeout} while the rest of
   the sweep completes normally *)
let test_sweep_hung_point_cut_off () =
  with_chaos @@ fun () ->
  (* Once-mode: exactly the first Newton solve of the campaign ignores
     its convergence test; a huge iteration budget makes it effectively
     hang until the wall-clock deadline trips *)
  Chaos.configure ~seed:0 "force_newton_diverge@+1";
  let config =
    Sc.v
      ~sim:{ E.Options.default with E.Options.max_newton = 1_000_000_000 }
      ~retry:Sc.no_retry ~deadline:0.05 ()
  in
  let cache = O.Cache.create () in
  let points = [ 100e3; 200e3; 400e3; 800e3 ] in
  let outcomes =
    Par.parallel_map_outcomes ~jobs:1 ~retries_of:O.retries_of
      (fun r ->
        let oc =
          O.run ~config ~cache ~stress:nominal ~defect:(open_defect r)
            ~vc_init:2.4 [ O.W0; O.R ]
        in
        (List.hd oc.O.results).O.vc_end)
      points
  in
  Alcotest.(check int) "every slot kept" (List.length points)
    (List.length outcomes);
  (match outcomes with
  | Outcome.Failed { error = E.Newton.Timeout { budget_s; _ }; point; _ }
    :: rest ->
    Alcotest.(check (float 0.0)) "budget in error" 0.05 budget_s;
    Alcotest.(check (float 0.0)) "failed point identified" 100e3 point;
    List.iter
      (function
        | Outcome.Ok v ->
          Alcotest.(check bool) "finite voltage" true (Float.is_finite v)
        | Outcome.Failed f ->
          Alcotest.failf "later point failed: %s"
            (Printexc.to_string f.Outcome.error))
      rest
  | _ -> Alcotest.fail "first point should have timed out");
  Alcotest.(check int) "exactly one injection" 1
    (Chaos.injected Chaos.Force_newton_diverge)

(* a transient NaN (one poisoned solve) is rescued by the built-in
   step-halving retry: the campaign result is healthy and the injection
   is still accounted *)
let test_nan_once_rescued_by_halving () =
  with_chaos @@ fun () ->
  Chaos.configure ~seed:0 "inject_nan_state@+40";
  let oc =
    O.run ~cache:(O.Cache.create ()) ~stress:nominal ~vc_init:0.0 [ O.W1; O.R ]
  in
  Alcotest.(check (list int)) "healthy readback" [ 1 ] (O.sensed_bits oc);
  Alcotest.(check int) "one injection" 1 (Chaos.injected Chaos.Inject_nan_state);
  List.iter
    (fun r ->
      Alcotest.(check bool) "finite V_c" true (Float.is_finite r.O.vc_end))
    oc.O.results

(* a sweep under sustained jacobian sabotage completes with every
   injected failure as a structured outcome — no NaN ever reaches a
   reported V_c *)
let test_sweep_survives_singular_chaos () =
  with_chaos @@ fun () ->
  Chaos.configure ~seed:1 "perturb_jacobian@200";
  let config = Sc.v ~retry:Sc.no_retry () in
  let cache = O.Cache.create () in
  let points = [ 100e3; 200e3; 400e3; 800e3; 1600e3; 3200e3 ] in
  let outcomes =
    Par.parallel_map_outcomes ~jobs:1 ~retries_of:O.retries_of
      (fun r ->
        let oc =
          O.run ~config ~cache ~stress:nominal ~defect:(open_defect r)
            ~vc_init:2.4 [ O.W0 ]
        in
        (List.hd oc.O.results).O.vc_end)
      points
  in
  let oks, failures =
    List.partition (function Outcome.Ok _ -> true | _ -> false) outcomes
  in
  Alcotest.(check int) "campaign completes" (List.length points)
    (List.length oks + List.length failures);
  Alcotest.(check bool) "chaos did strike" true
    (Chaos.injected Chaos.Perturb_jacobian > 0);
  List.iter
    (function
      | Outcome.Ok v ->
        Alcotest.(check bool) "ok is finite" true (Float.is_finite v)
      | Outcome.Failed { error; _ } -> begin
        match error with
        | E.Newton.Numerical_health _ | E.Newton.No_convergence _
        | E.Transient.Step_failed _ ->
          ()
        | e -> Alcotest.failf "unstructured failure: %s" (Printexc.to_string e)
      end)
    outcomes

(* ------------------------------------------------------------------ *)
(* Lane parity: an N-lane ensemble against one-lane runs               *)
(* ------------------------------------------------------------------ *)

let rel_close eps a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let check_op_parity ~ctx (br : O.op_result) (sr : O.op_result) =
  Alcotest.(check bool)
    (ctx ^ ": vc_end matches one-lane")
    true
    (rel_close 1e-9 br.O.vc_end sr.O.vc_end);
  (match (br.O.sensed, sr.O.sensed) with
  | Some b, Some s -> Alcotest.(check int) (ctx ^ ": sensed bit") s b
  | None, None -> ()
  | _ -> Alcotest.failf "%s: sensed presence differs" ctx);
  match (br.O.separation, sr.O.separation) with
  | Some b, Some s ->
    Alcotest.(check bool) (ctx ^ ": separation") true (rel_close 1e-9 b s)
  | None, None -> ()
  | _ -> Alcotest.failf "%s: separation presence differs" ctx

(* one N-lane batch and N one-lane runs of one defect class, both with
   memoization off so every lane really simulates *)
let lanes_vs_one_lane ?(stress = nominal) ~tag ~kind ~placement ~rs ops =
  let lanes =
    List.mapi
      (fun i r ->
        {
          O.defect = Some (D.v kind placement r);
          vc_init = (if i mod 2 = 0 then 0.0 else 2.4);
        })
      rs
  in
  let bcache = O.Cache.create ~enabled:false () in
  let scache = O.Cache.create ~enabled:false () in
  let batched = O.run_batch ~cache:bcache ~stress ~lanes ops in
  List.iteri
    (fun i lane ->
      let ctx = Printf.sprintf "%s lane %d" tag i in
      let one_lane =
        O.run ~cache:scache ?defect:lane.O.defect ~vc_init:lane.O.vc_init
          ~stress ops
      in
      match List.nth batched i with
      | Error e -> Alcotest.failf "%s failed: %s" ctx (Printexc.to_string e)
      | Ok oc ->
        Alcotest.(check int)
          (ctx ^ ": op count")
          (List.length one_lane.O.results)
          (List.length oc.O.results);
        List.iter2 (check_op_parity ~ctx) oc.O.results one_lane.O.results)
    lanes

let test_lanes_match_one_lane_all_classes () =
  (* every defect class (and both placements for the open), through the
     paper's detection sequence: per-lane cycle-end voltages, sensed
     bits and sense separations agree with one-lane runs to 1e-9 *)
  let ops = [ O.W1; O.W1; O.W0; O.R ] in
  let rs = [ 1e4; 3e5; 1e7; 1e8 ] in
  List.iter
    (fun (tag, kind, placement) -> lanes_vs_one_lane ~tag ~kind ~placement ~rs ops)
    [
      ("O1", D.Open_cell D.At_bitline_contact, D.True_bl);
      ("O2", D.Open_cell D.At_capacitor_contact, D.True_bl);
      ("O3", D.Open_cell D.At_plate_contact, D.True_bl);
      ("Sg", D.Short_to_gnd, D.True_bl);
      ("Sv", D.Short_to_vdd, D.True_bl);
      ("B1", D.Bridge_to_paired_bl, D.True_bl);
      ("B2", D.Bridge_to_neighbour, D.True_bl);
      ("O1/comp", D.Open_cell D.At_bitline_contact, D.Comp_bl);
    ]

let test_lanes_match_one_lane_retention_stream () =
  (* a stream with an idle retention segment and two reads — the grid
     has multi-scale segments, the reads exercise the sense path twice *)
  let ops = [ O.W1; O.Pause 1e-4; O.R; O.W0; O.R ] in
  let rs = [ 2e5; 5e7 ] in
  lanes_vs_one_lane ~tag:"Sg/pause" ~kind:D.Short_to_gnd ~placement:D.True_bl
    ~rs ops;
  lanes_vs_one_lane ~tag:"B2/pause" ~kind:D.Bridge_to_neighbour
    ~placement:D.True_bl ~rs ops

(* the lane-fallback count is the [dram.ops.lane_fallbacks] counter *)
let with_fallback_count f =
  let module Tel = Dramstress_util.Telemetry in
  let c = Tel.Counter.make "dram.ops.lane_fallbacks" in
  let was = Tel.enabled () in
  Tel.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Tel.set_enabled was)
    (fun () ->
      let fb0 = Tel.Counter.value c in
      f (fun () -> Tel.Counter.value c - fb0))

let vc_ends_bitwise_equal ~ctx (c : O.outcome) (p : O.outcome) =
  List.iter2
    (fun (cr : O.op_result) (pr : O.op_result) ->
      Alcotest.(check bool) ctx true
        (Int64.equal
           (Int64.bits_of_float cr.O.vc_end)
           (Int64.bits_of_float pr.O.vc_end)))
    c.O.results p.O.results

let test_batch_exhausted_lane_isolated () =
  (* a lane with a non-finite initial state dies inside the ensemble,
     is retried alone through the ladder, exhausts it, and surfaces as an
     [Error] slot — its batch mates must be bit-identical to the same
     batch run without the doomed lane's poison *)
  let ops = [ O.W0; O.R ] in
  let mk i vc =
    {
      O.defect = Some (D.v D.Short_to_gnd D.True_bl (1e5 *. float_of_int (i + 1)));
      vc_init = vc;
    }
  in
  let clean_lanes = List.init 4 (fun i -> mk i 2.4) in
  let poisoned_lanes =
    List.mapi
      (fun i l -> if i = 2 then { l with O.vc_init = Float.infinity } else l)
      clean_lanes
  in
  with_fallback_count @@ fun fallbacks ->
  let clean =
    O.run_batch
      ~cache:(O.Cache.create ~enabled:false ())
      ~stress:nominal ~lanes:clean_lanes ops
  in
  Alcotest.(check int) "clean batch: no fallback" 0 (fallbacks ());
  let poisoned =
    O.run_batch
      ~cache:(O.Cache.create ~enabled:false ())
      ~stress:nominal ~lanes:poisoned_lanes ops
  in
  Alcotest.(check int)
    "exactly one lane fell back to the one-lane ladder" 1 (fallbacks ());
  List.iteri
    (fun i (c, p) ->
      match (i, c, p) with
      | 2, _, Error (O.Exhausted_retries _) -> ()
      | 2, _, Error e ->
        Alcotest.failf "doomed lane: unexpected error %s" (Printexc.to_string e)
      | 2, _, Ok _ -> Alcotest.fail "doomed lane unexpectedly converged"
      | _, Ok co, Ok po ->
        vc_ends_bitwise_equal
          ~ctx:(Printf.sprintf "lane %d vc_end bitwise-unaffected" i)
          co po
      | _, _, _ -> Alcotest.failf "lane %d failed unexpectedly" i)
    (List.combine clean poisoned)

(* one NaN, one lane: [inject_nan_state@+1] fires on the very first
   Newton chaos query of the run, lane 0's initial quasi-static solve,
   in a 16-lane w0 batch. The lane dies inside the ensemble and falls
   back to the one-lane ladder, where the spent one-shot fault lets it
   converge; every other lane finishes bitwise as in the clean batch. *)
let test_batch_nan_lane_falls_back () =
  let lanes =
    List.init 16 (fun i ->
        {
          O.defect =
            Some
              (D.v (D.Open_cell D.At_bitline_contact) D.True_bl
                 (1e3 *. Float.pow 10.0 (float_of_int i /. 5.0)));
          vc_init = 2.4;
        })
  in
  let batch () =
    O.run_batch
      ~cache:(O.Cache.create ~enabled:false ())
      ~stress:nominal ~lanes [ O.W0 ]
  in
  let clean = batch () in
  with_fallback_count @@ fun fallbacks ->
  let poisoned =
    with_chaos (fun () ->
        Chaos.configure ~seed:7 "inject_nan_state@+1";
        batch ())
  in
  Alcotest.(check int) "one injection" 1
    (Chaos.injected Chaos.Inject_nan_state);
  Alcotest.(check int) "one lane fell back" 1 (fallbacks ());
  List.iteri
    (fun i (c, p) ->
      match (c, p) with
      | Ok _, Ok _ when i = 0 -> ()
      | Ok co, Ok po ->
        vc_ends_bitwise_equal
          ~ctx:(Printf.sprintf "lane %d bitwise the clean batch" i)
          co po
      | _, Error e ->
        Alcotest.failf "lane %d failed: %s" i (Printexc.to_string e)
      | Error _, Ok _ -> Alcotest.failf "clean lane %d failed" i)
    (List.combine clean poisoned)

(* Per-lane allocation of the batched path, in minor words per lane per
   accepted time point, on a warm w0 batch with the memo cache off in
   one domain (Gc.minor_words is per-domain). Each limit is its input's
   reading plus 25%, rounded up: 16 lanes read 3.11 (limit 4), one lane
   reads 30.3 (limit 38). They read 21.5 and 67.7 while every control
   waveform was evaluated to a boxed float, each solve built its lanes'
   reactive records and each Newton iteration returned a boxed move.
   Two scratch mutations fail both inputs: allocating a 20x21 matrix in
   every [Newton.iterate], and copying the committed state row in every
   predicted step, so the limits also pin the Newton predictor as
   allocation-free per step. A path that allocates and factors a fresh
   dense system every Newton iteration read ~2,500. *)
let test_batch_minor_words_per_lane () =
  let words_per_lane_point resistances =
    let lanes =
      List.map
        (fun r ->
          {
            O.defect =
              Some (D.v (D.Open_cell D.At_bitline_contact) D.True_bl r);
            vc_init = 2.4;
          })
        resistances
    in
    let cache = O.Cache.create ~enabled:false () in
    let batch () = O.run_batch ~cache ~stress:nominal ~lanes [ O.W0 ] in
    let points =
      match batch () with
      | Ok oc :: _ -> Array.length oc.O.trace.E.Transient.times
      | _ -> Alcotest.fail "first lane failed"
    in
    let w0 = Gc.minor_words () in
    ignore (batch ());
    (Gc.minor_words () -. w0)
    /. float_of_int (List.length lanes * points)
  in
  List.iter
    (fun (resistances, limit) ->
      let words = words_per_lane_point resistances in
      Alcotest.(check bool)
        (Printf.sprintf
           "%d lanes: %.0f minor words per lane per point (limit %.0f)"
           (List.length resistances) words limit)
        true (words <= limit))
    [ (List.init 16 (fun i -> 1e3 *. Float.pow 10.0 (float_of_int i /. 5.0)),
       4.0);
      ([ 200e3 ], 38.0) ]

(* ------------------------------------------------------------------ *)
(* Extended stress axes: retention, disturb, timing trim               *)
(* ------------------------------------------------------------------ *)

let no_cache () = O.Cache.create ~enabled:false ()

let test_extension_neutral_identity () =
  (* a record spelling out every neutral default IS the nominal SC, and
     its electrical results are bit-identical *)
  let explicit =
    { nominal with
      S.wait = 0.0; pattern = S.All_1; hammer = 0; leak = 0.0; couple = 0.0;
      twr_trim = 0.0; tras_trim = 0.0 }
  in
  Alcotest.(check bool) "explicit neutral = nominal" true (explicit = nominal);
  Alcotest.(check string) "explicit neutral prints the nominal key"
    (S.key nominal) (S.key explicit);
  Alcotest.(check bool) "one moved axis prints a different key" true
    (S.key nominal <> S.key (S.with_wait nominal 1.0));
  let ops = [ O.W1; O.R; O.W0; O.R ] in
  let a = O.run ~cache:(no_cache ()) ~stress:nominal ~vc_init:0.0 ops in
  let b = O.run ~cache:(no_cache ()) ~stress:explicit ~vc_init:0.0 ops in
  List.iter2
    (fun (ra : O.op_result) (rb : O.op_result) ->
      Alcotest.(check bool) "vc_end bitwise-identical" true
        (Int64.equal
           (Int64.bits_of_float ra.O.vc_end)
           (Int64.bits_of_float rb.O.vc_end)))
    a.O.results b.O.results

let test_effective_ops_insertion () =
  let stress = S.with_hammer (S.with_wait nominal 0.5) 3 in
  (* the pause/hammer pair lands immediately before the FIRST read *)
  (match O.effective_ops ~stress [ O.W1; O.R; O.R ] with
  | [ O.W1; O.Pause w; O.Ham 3; O.R; O.R ] ->
    Alcotest.(check (float 0.0)) "wait carried" 0.5 w
  | _ -> Alcotest.fail "expected w1 p0.5 ham3 r r");
  (* wait alone, hammer alone *)
  (match O.effective_ops ~stress:(S.with_wait nominal 0.2) [ O.W0; O.R ] with
  | [ O.W0; O.Pause _; O.R ] -> ()
  | _ -> Alcotest.fail "expected w0 p r");
  (match O.effective_ops ~stress:(S.with_hammer nominal 7) [ O.W0; O.R ] with
  | [ O.W0; O.Ham 7; O.R ] -> ()
  | _ -> Alcotest.fail "expected w0 ham7 r");
  (* neutral stress and read-free sequences pass through untouched *)
  Alcotest.(check bool) "neutral is identity" true
    (O.effective_ops ~stress:nominal [ O.W1; O.R ] = [ O.W1; O.R ]);
  Alcotest.(check bool) "no read, nothing to stress" true
    (O.effective_ops ~stress [ O.W1; O.W0 ] = [ O.W1; O.W0 ])

let test_pattern_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "name round-trips" true
        (S.pattern_of_name (S.pattern_name p) = Some p);
      Alcotest.(check bool) "float round-trips" true
        (S.pattern_of_float (S.float_of_pattern p) = p))
    [ S.All_0; S.All_1; S.Checkerboard ];
  Alcotest.(check bool) "aliases accepted" true
    (S.pattern_of_name "all0" = Some S.All_0
    && S.pattern_of_name "all1" = Some S.All_1
    && S.pattern_of_name "checkerboard" = Some S.Checkerboard);
  Alcotest.(check bool) "garbage refused" true (S.pattern_of_name "zebra" = None)

let test_trim_moves_phases () =
  let ph = Tm.phases T.default nominal in
  let ph_wr = Tm.phases T.default (S.with_twr_trim nominal 5e-9) in
  Alcotest.(check (float 1e-15)) "tWR trim delays the write driver"
    (ph.Tm.t_wr +. 5e-9) ph_wr.Tm.t_wr;
  Alcotest.(check (float 1e-15)) "word line untouched by tWR trim"
    ph.Tm.t_wl_off ph_wr.Tm.t_wl_off;
  let ph_ras = Tm.phases T.default (S.with_tras_trim nominal (-5e-9)) in
  Alcotest.(check (float 1e-15)) "tRAS trim cuts word-line-off short"
    (ph.Tm.t_wl_off -. 5e-9) ph_ras.Tm.t_wl_off;
  Alcotest.check_raises "trim past cycle end rejected"
    (Invalid_argument "Timing.phases: tras_trim pushes word line past cycle end")
    (fun () -> ignore (Tm.phases T.default (S.with_tras_trim nominal 4e-9)))

let test_leak_wait_decay () =
  (* over a 10 ms decay delay the intrinsic cell (tau ~ 0.1 s) still
     reads back its 1; adding the leakage-conductance stress
     (tau = c_cell/g_leak ~ 80 us << wait) loses it — the retention
     pair working end to end through [effective_ops] *)
  let run leak =
    let stress = S.with_leak (S.with_wait nominal 0.01) leak in
    let ops = O.effective_ops ~stress [ O.W1; O.R ] in
    bits (O.run ~cache:(no_cache ()) ~stress ~vc_init:0.0 ops)
  in
  Alcotest.(check string) "intrinsic cell retains over 10 ms" "1" (run 0.0);
  Alcotest.(check string) "leaky cell decays to 0" "0" (run 1e-9)

let test_couple_hammer_disturb () =
  (* hammering the aggressor row with an all-0 background drags a
     coupled victim's stored 1 down; an uncoupled victim shrugs it off *)
  let vc_after_hammer couple =
    let stress =
      S.with_pattern (S.with_couple nominal couple) S.All_0
    in
    let oc =
      O.run ~cache:(no_cache ()) ~stress ~vc_init:0.0
        [ O.W1; O.Ham 20 ]
    in
    (List.nth oc.O.results 1).O.vc_end
  in
  let uncoupled = vc_after_hammer 0.0 in
  let coupled = vc_after_hammer 0.5 in
  Alcotest.(check bool) "uncoupled victim holds its 1" true (uncoupled > 2.2);
  Alcotest.(check bool)
    (Printf.sprintf "coupling bleeds charge (%.3f < %.3f)" coupled uncoupled)
    true
    (coupled < uncoupled -. 0.05)

let test_lanes_match_one_lane_extended_stress () =
  (* N-lane/one-lane parity must survive every extension hook at once:
     leakage devices, coupling elements, pattern-driven neighbour
     state, and the inserted pause/hammer ops *)
  let stress =
    { nominal with
      S.wait = 1e-3; pattern = S.Checkerboard; hammer = 3; leak = 1e-11;
      couple = 0.2 }
  in
  let ops = O.effective_ops ~stress [ O.W1; O.W0; O.R ] in
  lanes_vs_one_lane ~stress ~tag:"O1/ext" ~kind:(D.Open_cell D.At_bitline_contact)
    ~placement:D.True_bl ~rs:[ 1e5; 1e7 ] ops;
  lanes_vs_one_lane ~stress ~tag:"B2/ext" ~kind:D.Bridge_to_neighbour
    ~placement:D.True_bl ~rs:[ 2e5; 5e7 ] ops

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let prop_healthy_readback =
  (* over the whole operable SC envelope, a healthy cell returns what
     was last written *)
  QCheck.Test.make ~count:15 ~name:"healthy cell reads back last write"
    QCheck.(
      quad (float_range 58e-9 90e-9) (float_range 2.1 2.7)
        (float_range (-20.0) 70.0) (int_range 0 1))
    (fun (tcyc, vdd, temp_c, first_bit) ->
      let stress = { S.nominal with S.tcyc; vdd; temp_c; duty = 0.5 } in
      let w b = if b = 1 then O.W1 else O.W0 in
      let ops = [ w first_bit; O.R; w (1 - first_bit); O.R ] in
      let oc = O.run ~stress ~vc_init:(vdd /. 2.0) ops in
      O.sensed_bits oc = [ first_bit; 1 - first_bit ])

let prop_open_residual_monotone =
  (* the residual after a failed w0 grows monotonically with the open *)
  QCheck.Test.make ~count:20 ~name:"w0 residual monotone in R"
    QCheck.(pair (float_range 2e4 8e5) (float_range 1.2 2.5))
    (fun (r, factor) ->
      let residual r =
        let oc =
          O.run ~stress:nominal ~defect:(open_defect r) ~vc_init:2.4 [ O.W0 ]
        in
        (List.hd oc.O.results).O.vc_end
      in
      residual (r *. factor) >= residual r -. 5e-3)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dramstress_dram"
    [
      ( "stress+timing",
        [
          tc "stress validation" test_stress_validate;
          tc "axis set/get" test_stress_axes;
          tc "phase ordering" test_timing_structure;
          tc "write window shrinks super-linearly"
            test_timing_write_window_shrinks_superlinearly;
          tc "sense instant fixed" test_timing_sense_fixed;
          tc "duty moves word-line close" test_timing_duty_moves_wl_off;
          tc "too-short cycle rejected" test_timing_too_short;
        ] );
      ( "healthy column",
        [
          tc "functional read/write" test_good_cell_functional;
          tc "full-rail writes" test_good_cell_rails;
          tc "read restores" test_read_is_restoring;
          tc "read writes back 0" test_read_destructive_below_threshold;
          tc "healthy separation" test_separation_healthy;
          tc "retention over 100 us" test_pause_retains_recent_write;
          tc "empty sequence rejected" test_empty_sequence_rejected;
          tc "sequence parsing" test_parse_seq;
        ] );
      ( "defects",
        [
          tc "open blocks w0" test_open_blocks_w0;
          tc "O1/O2/O3 equivalent" test_open_sites_equivalent;
          tc "paper sequence detects open" test_open_detected_by_paper_sequence;
          tc "small open escapes" test_open_escapes_when_small;
          tc "complementary placement inverts" test_comp_placement_inverts_logic;
          tc "Sg leaks a stored 1" test_short_to_gnd_leaks_one;
          tc "Sv lifts a stored 0" test_short_to_vdd_lifts_zero;
          tc "huge short harmless" test_short_harmless_when_huge;
          tc "hard bridge collapses separation" test_bridge_weld_collapses_separation;
          tc "neighbour bridge couples" test_neighbour_bridge_couples_over_pause;
          tc "neighbour bridge detected hot" test_neighbour_bridge_detected_hot;
        ] );
      ( "stress directions",
        [
          tc "shorter cycle stresses w0" test_shorter_cycle_stresses_w0;
          tc "higher Vdd stresses w0" test_higher_vdd_stresses_w0;
          tc "Vdd residual proportionality" test_vdd_ratio_matches_paper;
          tc "temperature leakage direction" test_temperature_leakage_direction;
        ] );
      ( "engine integration",
        [
          tc "engine matches the reference" test_engine_matches_reference;
          tc "memo cache replays identical runs" test_memo_cache_replays;
          tc "simulations count with the cache off"
            test_simulations_count_with_cache_off;
          tc "column LU factors without fill-in" test_column_lu_fill_free;
        ] );
      ( "retry ladder",
        [
          tc "empty policy propagates the error" test_no_retry_propagates;
          tc "damped stage rescues the run" test_retry_ladder_rescues;
          tc "exhausted ladder raises" test_retry_ladder_exhausts;
          tc "telemetry counters reconcile" test_retry_telemetry_reconciles;
          tc "high-R open solves its t=0 step" test_high_r_open_solves_at_t0;
        ] );
      ( "deadlines+chaos",
        [
          tc "timeout propagates untried" test_deadline_timeout_propagates;
          tc "deadline lanes skip the ladder" test_deadline_lanes_skip_ladder;
          tc "generous deadline unobtrusive"
            test_deadline_generous_is_unobtrusive;
          tc "deadline validation" test_deadline_validation;
          tc "run validates hand-built configs" test_run_validates_config;
          tc "hung point cut off, sweep finishes" test_sweep_hung_point_cut_off;
          tc "transient NaN rescued by halving" test_nan_once_rescued_by_halving;
          tc "sweep survives singular chaos" test_sweep_survives_singular_chaos;
        ] );
      ( "lane parity",
        [
          tc "all classes match one lane" test_lanes_match_one_lane_all_classes;
          tc "retention matches one lane"
            test_lanes_match_one_lane_retention_stream;
          tc "exhausted lane isolated" test_batch_exhausted_lane_isolated;
          tc "NaN lane falls back, batch mates bitwise"
            test_batch_nan_lane_falls_back;
          tc "batched allocation per lane within budget"
            test_batch_minor_words_per_lane;
        ] );
      ( "extended stress axes",
        [
          tc "explicit neutral = nominal, bit for bit"
            test_extension_neutral_identity;
          tc "pause/hammer inserted before first read"
            test_effective_ops_insertion;
          tc "pattern codec round-trips" test_pattern_roundtrip;
          tc "timing trims move the right phases" test_trim_moves_phases;
          tc "leak + wait decays a stored 1" test_leak_wait_decay;
          tc "coupled hammer disturbs the victim" test_couple_hammer_disturb;
          tc "batch parity under every extension hook"
            test_lanes_match_one_lane_extended_stress;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_healthy_readback;
          QCheck_alcotest.to_alcotest prop_open_residual_monotone;
        ] );
    ]
