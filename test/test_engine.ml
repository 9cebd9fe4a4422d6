(* Engine validation against analytic circuit solutions. *)

module W = Dramstress_circuit.Waveform
module N = Dramstress_circuit.Netlist
module M = Dramstress_circuit.Mosfet
module E = Dramstress_engine
module U = Dramstress_util.Units

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let check_float ?(eps = 1e-6) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* ------------------------------------------------------------------ *)
(* DC operating point                                                  *)
(* ------------------------------------------------------------------ *)

(* one simulation is a one-lane run of the integrator; the lane's error
   surfaces as the exception it carries *)
let run1 c ?opts ?deadline_at ~segments ~ics ~probes () =
  match
    E.Ensemble.run c ?opts ?deadline_at ~segments
      ~lanes:[| { E.Ensemble.ics; override = None } |]
      ~probes ()
  with
  | [| Ok r |] -> r
  | [| Error e |] -> raise e
  | _ -> assert false

(* A circuit without capacitors has no state, so every time point of a
   transient is its DC operating point: [dc c node] is [node]'s voltage
   at each point of a short run. *)
let dc c node =
  (run1 c ~segments:[ (2e-9, 1e-9) ] ~ics:[] ~probes:[ node ] ())
    .E.Transient.probe_values.(0)

let test_dcop_divider () =
  let nl = N.create () in
  N.vsource nl ~name:"v" "in" "0" (W.dc 10.0);
  N.resistor nl ~name:"r1" "in" "mid" 1000.0;
  N.resistor nl ~name:"r2" "mid" "0" 3000.0;
  let c = N.compile nl in
  Array.iter (check_float "divider" 7.5) (dc c "mid")

let test_dcop_current_source () =
  let nl = N.create () in
  N.isource nl ~name:"i" "0" "out" (W.dc 1e-3);
  N.resistor nl ~name:"r" "out" "0" 2000.0;
  let c = N.compile nl in
  (* 1 mA into "out" through 2 kOhm -> 2 V *)
  Array.iter (check_float "i*r" 2.0) (dc c "out")

let test_dcop_diode_connected_nmos () =
  (* Vdd -- R -- drain=gate (diode-connected) -- source=gnd.
     The solution must satisfy (Vdd - V) / R = Id(V). *)
  let model = M.nmos ~name:"n" ~vt0:0.5 ~kp:2e-4 () in
  let nl = N.create () in
  N.vsource nl ~name:"vdd" "vdd" "0" (W.dc 2.4);
  N.resistor nl ~name:"r" "vdd" "d" 10000.0;
  N.mosfet nl ~name:"m" ~d:"d" ~g:"d" ~s:"0" ~model ();
  let c = N.compile nl in
  Array.iter
    (fun vd ->
      Alcotest.(check bool) "above threshold" true (vd > 0.5 && vd < 2.4);
      let e =
        M.ids model ~temp:E.Options.default.E.Options.temp ~vgs:vd ~vds:vd
      in
      check_float ~eps:1e-3 "KCL at drain" ((2.4 -. vd) /. 10000.0) e.M.id)
    (dc c "d")

(* ------------------------------------------------------------------ *)
(* Transient                                                           *)
(* ------------------------------------------------------------------ *)

let rc_circuit ~r ~c_farad =
  let nl = N.create () in
  N.vsource nl ~name:"v" "in" "0" (W.dc 1.0);
  N.resistor nl ~name:"r" "in" "out" r;
  N.capacitor nl ~name:"c" "out" "0" c_farad;
  N.compile nl

let test_rc_charge () =
  (* tau = 1 us; after 1 tau the capacitor reaches 1 - e^-1 *)
  let c = rc_circuit ~r:1000.0 ~c_farad:1e-9 in
  let res =
    run1 c
      ~segments:[ (1e-6, 1e-9) ]
      ~ics:[ ("out", 0.0) ]
      ~probes:[ "out" ] ()
  in
  let v_end = E.Transient.value_at res "out" 1e-6 in
  check_float ~eps:2e-3 "1 - 1/e" (1.0 -. exp (-1.0)) v_end

let test_rc_discharge_ic () =
  let nl = N.create () in
  N.resistor nl ~name:"r" "out" "0" 1000.0;
  N.capacitor nl ~name:"c" "out" "0" 1e-9;
  let c = N.compile nl in
  let res =
    run1 c
      ~segments:[ (2e-6, 1e-9) ]
      ~ics:[ ("out", 2.0) ]
      ~probes:[ "out" ] ()
  in
  check_float ~eps:3e-3 "after 2 tau" (2.0 *. exp (-2.0))
    (E.Transient.value_at res "out" 2e-6)

let test_rc_trapezoidal_more_accurate () =
  let c = rc_circuit ~r:1000.0 ~c_farad:1e-9 in
  let run integrator =
    let opts = { E.Options.default with E.Options.integrator } in
    let res =
      run1 c ~opts
        ~segments:[ (1e-6, 2e-8) ]  (* coarse on purpose *)
        ~ics:[ ("out", 0.0) ]
        ~probes:[ "out" ] ()
    in
    E.Transient.value_at res "out" 1e-6
  in
  let exact = 1.0 -. exp (-1.0) in
  let err_be = Float.abs (run E.Options.Backward_euler -. exact) in
  let err_tr = Float.abs (run E.Options.Trapezoidal -. exact) in
  Alcotest.(check bool) "trapezoidal beats BE on coarse grid" true
    (err_tr < err_be)

let test_initial_consistency () =
  (* a resistive node with no IC must be solved consistently at t = 0 *)
  let nl = N.create () in
  N.vsource nl ~name:"v" "in" "0" (W.dc 4.0);
  N.resistor nl ~name:"r1" "in" "mid" 1000.0;
  N.resistor nl ~name:"r2" "mid" "0" 1000.0;
  N.capacitor nl ~name:"c" "mid" "0" 1e-15;
  let c = N.compile nl in
  let res =
    run1 c
      ~segments:[ (1e-9, 1e-10) ]
      ~ics:[]
      ~probes:[ "mid" ] ()
  in
  (* the tiny capacitor was pinned at 0 initially; after a few tau
     (tau = 0.5 ps << 1 ns) the node must sit at the divider value *)
  check_float ~eps:1e-3 "settles to divider" 2.0
    (E.Transient.value_at res "mid" 1e-9)

let test_pulse_through_switch () =
  (* switch closes at t = 5 ns and connects a source to a capacitor *)
  let nl = N.create () in
  N.vsource nl ~name:"v" "in" "0" (W.dc 1.5);
  N.switch nl ~name:"s" "in" "out"
    ~ctrl:(W.pwl_steps ~t_edge:1e-10 0.0 [ (5e-9, 1.0) ])
    ~g_on:1e-2 ~g_off:1e-15 ();
  N.capacitor nl ~name:"c" "out" "0" 1e-13;
  let c = N.compile nl in
  let res =
    run1 c
      ~segments:[ (2e-8, 1e-11) ]
      ~ics:[ ("out", 0.0) ]
      ~probes:[ "out" ] ()
  in
  check_float ~eps:1e-3 "held before close" 0.0
    (E.Transient.value_at res "out" 4.9e-9);
  (* tau after close = 100 fF / 10 mS = 10 ps; fully charged by 20 ns *)
  check_float ~eps:1e-3 "charged after close" 1.5
    (E.Transient.value_at res "out" 2e-8)

let test_nmos_pass_gate_writes_degraded_one () =
  (* NMOS pass gate: gate at 2.4 V, input at 2.4 V, output capacitor.
     The output must charge to roughly Vg - Vth, the classic degraded 1. *)
  let model = M.nmos ~name:"n" ~vt0:0.5 ~kp:2e-4 () in
  let nl = N.create () in
  N.vsource nl ~name:"vbl" "bl" "0" (W.dc 2.4);
  N.vsource nl ~name:"vwl" "wl" "0" (W.dc 2.4);
  N.mosfet nl ~name:"acc" ~d:"bl" ~g:"wl" ~s:"cell" ~model ();
  N.capacitor nl ~name:"cs" "cell" "0" 1e-13;
  let c = N.compile nl in
  let res =
    run1 c
      ~segments:[ (2e-7, 1e-10) ]
      ~ics:[ ("cell", 0.0) ]
      ~probes:[ "cell" ] ()
  in
  let v_end = E.Transient.value_at res "cell" 2e-7 in
  Alcotest.(check bool)
    (Printf.sprintf "degraded 1 (got %.3f)" v_end)
    true
    (v_end > 1.5 && v_end < 2.2)

let test_nmos_pass_gate_writes_full_zero () =
  let model = M.nmos ~name:"n" ~vt0:0.5 ~kp:2e-4 () in
  let nl = N.create () in
  N.vsource nl ~name:"vbl" "bl" "0" (W.dc 0.0);
  N.vsource nl ~name:"vwl" "wl" "0" (W.dc 2.4);
  N.mosfet nl ~name:"acc" ~d:"bl" ~g:"wl" ~s:"cell" ~model ();
  N.capacitor nl ~name:"cs" "cell" "0" 1e-13;
  let c = N.compile nl in
  let res =
    run1 c
      ~segments:[ (2e-7, 1e-10) ]
      ~ics:[ ("cell", 2.4) ]
      ~probes:[ "cell" ] ()
  in
  let v_end = E.Transient.value_at res "cell" 2e-7 in
  Alcotest.(check bool)
    (Printf.sprintf "full 0 (got %.3f)" v_end)
    true
    (Float.abs v_end < 0.05)

let test_segmented_timestep () =
  (* long retention pause with coarse steps must agree with the analytic
     decay: 1 ms through 1 Gohm on 100 fF -> tau = 100 us *)
  let nl = N.create () in
  N.resistor nl ~name:"leak" "cell" "0" 1e9;
  N.capacitor nl ~name:"cs" "cell" "0" 1e-13;
  let c = N.compile nl in
  let res =
    run1 c
      ~segments:[ (1e-9, 1e-10); (1e-4, 1e-7) ]
      ~ics:[ ("cell", 2.0) ]
      ~probes:[ "cell" ] ()
  in
  check_float ~eps:2e-3 "one tau decay" (2.0 *. exp (-1.0))
    (E.Transient.value_at res "cell" 1e-4)

let test_probe_errors () =
  let c = rc_circuit ~r:1.0 ~c_farad:1e-12 in
  Alcotest.check_raises "bad probe"
    (Invalid_argument "Ensemble.run: unknown probe node nope") (fun () ->
      ignore
        (run1 c ~segments:[ (1e-9, 1e-10) ] ~ics:[]
           ~probes:[ "nope" ] ()));
  Alcotest.check_raises "bad segments"
    (Invalid_argument "Ensemble.run: no segments") (fun () ->
      ignore (run1 c ~segments:[] ~ics:[] ~probes:[] ()))

let prop_rc_matches_analytic =
  QCheck.Test.make ~count:25 ~name:"RC decay matches exp() for random tau"
    QCheck.(pair (float_range 100.0 10000.0) (float_range 0.5 3.0))
    (fun (r, v0) ->
      let nl = N.create () in
      N.resistor nl ~name:"r" "out" "0" r;
      N.capacitor nl ~name:"c" "out" "0" 1e-9;
      let c = N.compile nl in
      let tau = r *. 1e-9 in
      let t_end = tau in
      let res =
        run1 c
          ~segments:[ (t_end, tau /. 400.0) ]
          ~ics:[ ("out", v0) ]
          ~probes:[ "out" ] ()
      in
      let v = E.Transient.value_at res "out" t_end in
      Float.abs (v -. (v0 *. exp (-1.0))) < 0.01 *. v0)

let test_step_failed_context () =
  (* with a single Newton iteration the solver cannot track the pulse
     edge: each halved retry still moves the source by more than the
     tolerance in one step, so the retry budget runs out and the failure
     must surface as Step_failed with the segment context attached *)
  let nl = N.create () in
  N.vsource nl ~name:"vp" "in" "0"
    (W.pulse ~v0:0.0 ~v1:1.0 ~delay:5e-10 ~rise:1e-10 ~width:1e-9 ~fall:1e-10
       ());
  N.resistor nl ~name:"r" "in" "out" 1000.0;
  N.capacitor nl ~name:"c" "out" "0" 1e-12;
  let c = N.compile nl in
  let opts = { E.Options.default with E.Options.max_newton = 1 } in
  match
    run1 c ~opts
      ~segments:[ (2e-9, 1e-10) ]
      ~ics:[] ~probes:[ "out" ] ()
  with
  | _ -> Alcotest.fail "expected Step_failed"
  | exception E.Transient.Step_failed
      { seg_start; seg_end; t; dt; retries; iterations; worst } ->
    check_float "seg_start" 0.0 seg_start;
    check_float "seg_end" 2e-9 seg_end;
    Alcotest.(check bool) "t inside segment" true (t > 0.0 && t <= 2e-9);
    Alcotest.(check bool) "dt was halved" true (dt < 1e-10 && dt > 0.0);
    Alcotest.(check int) "retry budget reported" 4 retries;
    Alcotest.(check int) "iterations spent" 1 iterations;
    Alcotest.(check bool) "worst update reported" true (worst > 0.0)

(* Production against the dense full-MNA reference (test/reference),
   which replays the production run's own time points and shares none
   of its layout, slot plan or sparse LU. Tight Newton tolerances make
   each step's fixed point unique to far below the comparison, so a
   difference is in the assembly or the solve, not in where Newton
   stopped. *)
let tight integrator =
  { E.Options.default with E.Options.integrator; tol_scale = 1e-6 }

let check_reference c ~opts ~ics (r : E.Transient.result) =
  Reference.check ~eps_final:1e-9 ~eps_trace:1e-9 ~what:"engine vs reference"
    (Reference.replay c ~opts ~ics
       ~probes:(Array.to_list r.E.Transient.probe_names)
       ~times:r.E.Transient.times ())
    r

let test_pass_gate_matches_reference () =
  (* a nonlinear switching circuit: a pulsed word line opens an NMOS
     pass gate onto a storage capacitor *)
  let model = M.nmos ~name:"n" ~vt0:0.5 ~kp:2e-4 () in
  let nl = N.create () in
  N.vsource nl ~name:"vbl" "bl" "0" (W.dc 2.4);
  N.vsource nl ~name:"vwl" "wl" "0"
    (W.pulse ~v0:0.0 ~v1:2.4 ~delay:1e-9 ~rise:1e-9 ~width:20e-9 ~fall:1e-9 ());
  N.mosfet nl ~name:"acc" ~d:"bl" ~g:"wl" ~s:"cell" ~model ();
  N.capacitor nl ~name:"cs" "cell" "0" 1e-13;
  let c = N.compile nl in
  let ics = [ ("cell", 0.0) ] in
  List.iter
    (fun integrator ->
      let opts = tight integrator in
      let r =
        run1 c ~opts ~segments:[ (3e-8, 5e-11) ] ~ics ~probes:[ "cell"; "bl" ]
          ()
      in
      check_reference c ~opts ~ics r;
      (* the gate opened: the cell charged to about Vdd - Vt *)
      Alcotest.(check bool) "the cell charged" true
        (r.E.Transient.final_v.(N.compiled_node c "cell") > 1.0))
    [ E.Options.Backward_euler; E.Options.Trapezoidal ]

(* A capacitor from a ramping grounded source to a free node: its
   companion conductance sits in a coupling slot and its history reads
   the fixed node's voltage, which the DRAM column never exercises.
   Production must match the reference, and also with the source
   floating on a 0 V grounded one, so that [in] keeps its unknown and
   the source its branch row. *)
let test_fixed_cap_matches_reference () =
  let circuit ~floating =
    let nl = N.create () in
    let ramp = W.pwl_steps ~t_edge:2e-9 0.0 [ (1e-9, 1.5); (6e-9, 0.3) ] in
    if floating then begin
      N.vsource nl ~name:"vin" "in" "g" ramp;
      N.vsource nl ~name:"vg" "g" "0" (W.dc 0.0)
    end
    else N.vsource nl ~name:"vin" "in" "0" ramp;
    N.capacitor nl ~name:"c" "in" "out" 2e-13;
    N.resistor nl ~name:"r" "out" "0" 5000.0;
    N.capacitor nl ~name:"cl" "out" "0" 1e-13;
    N.compile nl
  in
  let run ~floating integrator =
    let c = circuit ~floating and opts = tight integrator in
    let r =
      run1 c ~opts ~segments:[ (1e-8, 5e-11) ] ~ics:[] ~probes:[ "out"; "in" ]
        ()
    in
    check_reference c ~opts ~ics:[] r;
    r
  in
  List.iter
    (fun integrator ->
      let b = run ~floating:false integrator in
      let f = run ~floating:true integrator in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun k v ->
              check_float ~eps:1e-6 "branch-row trace match" v
                f.E.Transient.probe_values.(i).(k))
            row)
        b.E.Transient.probe_values;
      (* the ramp is seen through the capacitor *)
      Alcotest.(check bool) "the ramp couples to out" true
        (Array.exists (fun v -> v > 0.1) b.E.Transient.probe_values.(0)))
    [ E.Options.Backward_euler; E.Options.Trapezoidal ]

(* ------------------------------------------------------------------ *)
(* Numerical health guards                                             *)
(* ------------------------------------------------------------------ *)

module Chaos = Dramstress_util.Chaos

let rc_fixture () =
  let nl = N.create () in
  N.vsource nl ~name:"v" "in" "0" (W.dc 1.0);
  N.resistor nl ~name:"r" "in" "out" 1000.0;
  N.capacitor nl ~name:"c" "out" "0" 1e-12;
  N.compile nl

let run_rc ?deadline_at c =
  run1 c ?deadline_at
    ~segments:[ (5e-9, 1e-10) ]
    ~ics:[] ~probes:[ "out" ] ()

let with_chaos f = Fun.protect ~finally:(fun () -> Chaos.disarm ()) f

let test_health_nan_state_detected () =
  with_chaos @@ fun () ->
  Chaos.configure ~seed:0 "inject_nan_state";
  let c = rc_fixture () in
  (match run_rc c with
  | _ -> Alcotest.fail "expected Numerical_health"
  | exception E.Newton.Numerical_health { t; iterations; what } ->
    Alcotest.(check bool) "time context" true (t >= 0.0);
    Alcotest.(check bool) "iteration context" true (iterations >= 1);
    Alcotest.(check bool) "names the symptom" true
      (String.length what > 0));
  Alcotest.(check bool) "injections recorded" true
    (Chaos.injected Chaos.Inject_nan_state > 0)

(* the scan judges the state by running sums and searches only a sick
   state, so check every length, position and kind of bad value, and
   a second bad value behind the first, against the index it names *)
let test_health_scan_names_first_bad () =
  let finite = [| -0.0; Float.max_float; -.Float.max_float; 4e-324; 1.0 |] in
  for n = 0 to 5 do
    let x = Array.sub finite 0 n in
    E.Newton.check_finite ~t_now:0.0 ~iter:1 x;
    for p = 0 to n - 1 do
      List.iter
        (fun bad ->
          List.iter
            (fun second ->
              let x = Array.copy x in
              x.(p) <- bad;
              if p + 1 < n then x.(n - 1) <- second;
              match E.Newton.check_finite ~t_now:0.0 ~iter:1 x with
              | () -> Alcotest.failf "n=%d: %h at %d not detected" n bad p
              | exception E.Newton.Numerical_health { what; _ } ->
                Alcotest.(check string) "names the first bad unknown"
                  (Printf.sprintf "non-finite state (%h at unknown %d)" bad p)
                  what)
            [ 1.0; Float.nan ])
        [ Float.nan; Float.infinity; Float.neg_infinity ]
    done
  done

let test_health_singular_lu_detected () =
  with_chaos @@ fun () ->
  Chaos.configure ~seed:0 "perturb_jacobian";
  let c = rc_fixture () in
  (match run_rc c with
  | _ -> Alcotest.fail "expected Numerical_health"
  | exception E.Newton.Numerical_health { what; _ } ->
    Alcotest.(check bool) "names the singular system" true
      (String.length what >= 8 && String.sub what 0 8 = "singular"));
  Alcotest.(check bool) "injections recorded" true
    (Chaos.injected Chaos.Perturb_jacobian > 0)

let test_health_forced_divergence_is_structured () =
  (* a solve that refuses to converge must surface as the existing
     Step_failed (after halving retries), never as garbage voltages *)
  with_chaos @@ fun () ->
  Chaos.configure ~seed:0 "force_newton_diverge";
  let c = rc_fixture () in
  match run_rc c with
  | _ -> Alcotest.fail "expected a structured convergence failure"
  | exception E.Transient.Step_failed { retries; _ } ->
    Alcotest.(check int) "halving retries were spent" 4 retries
  | exception E.Newton.No_convergence _ ->
    (* the initial consistency solve diverges first; it has no halving
       retries but still fails with the typed exception *)
    ()

let test_deadline_cuts_solve () =
  let c = rc_fixture () in
  (* a deadline already in the past: the very first Newton iteration
     must give up with the budget in the payload *)
  let deadline_at = (Unix.gettimeofday () -. 1.0, 0.25) in
  match run_rc ~deadline_at c with
  | _ -> Alcotest.fail "expected Timeout"
  | exception E.Newton.Timeout { t; budget_s } ->
    Alcotest.(check bool) "time context" true (t >= 0.0);
    Alcotest.(check (float 0.0)) "budget echoed" 0.25 budget_s

let test_deadline_generous_budget_unobtrusive () =
  let c = rc_fixture () in
  let deadline_at = (Unix.gettimeofday () +. 3600.0, 3600.0) in
  let a = run_rc ~deadline_at c and b = run_rc c in
  Array.iteri
    (fun i v -> check_float ~eps:0.0 "identical trace" v b.E.Transient.final_v.(i))
    a.E.Transient.final_v

(* an already expired budget is noticed by the amortized poll within
   16 lane-iterations, whatever the lane count: every iteration factors
   once, so the LU counter bounds the iterations spent *)
let test_expired_deadline_within_16_iterations () =
  let module Tel = Dramstress_util.Telemetry in
  let c = rc_fixture () in
  let was = Tel.enabled () in
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
  Tel.set_enabled true;
  List.iter
    (fun n_lanes ->
      Tel.reset ();
      let deadline_at = (Unix.gettimeofday () -. 1.0, 0.5) in
      (match
         E.Ensemble.run c ~deadline_at
           ~segments:[ (5e-9, 1e-10) ]
           ~lanes:
             (Array.init n_lanes (fun i ->
                  { E.Ensemble.ics = [ ("out", 0.1 *. float_of_int i) ];
                    override = None }))
           ~probes:[ "out" ] ()
       with
      | _ -> Alcotest.failf "%d lanes: expected Timeout" n_lanes
      | exception E.Newton.Timeout { budget_s; _ } ->
        Alcotest.(check (float 0.0)) "budget echoed" 0.5 budget_s);
      let factors =
        Option.value ~default:0
          (List.assoc_opt "engine.mna.lu_factors"
             (Tel.snapshot ()).Tel.counters)
      in
      if factors > 16 then
        Alcotest.failf "%d lanes: %d iterations before the timeout" n_lanes
          factors)
    [ 1; 4 ]

(* a run that dies at t=0 must not pay for its grid: the words it
   allocates are the same for a 10-step and a 10^6-step plan. The minor
   words come from [Gc.minor_words]: OCaml 5.1's [Gc.counters] counts
   the words in the current minor heap an eighth of their number, so a
   minor collection inside the window read as ~229k words of it *)
let test_dead_at_t0_allocates_no_grid () =
  let c = rc_fixture () in
  let words steps =
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    (match
       E.Ensemble.run c
         ~segments:[ (1e-10 *. float_of_int steps, 1e-10) ]
         ~lanes:[| { E.Ensemble.ics = [ ("out", Float.nan) ]; override = None } |]
         ~probes:[ "out" ] ()
     with
    | [| Error (E.Newton.Numerical_health _) |] -> ()
    | _ -> Alcotest.fail "expected a health failure at t=0");
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  ignore (words 10);
  let small = words 10 and big = words 1_000_000 in
  if Float.abs (big -. small) > 64.0 then
    Alcotest.failf "10 steps: %.0f words, 10^6 steps: %.0f words" small big

(* ------------------------------------------------------------------ *)
(* Bitwise pins                                                        *)
(* ------------------------------------------------------------------ *)

module O = Dramstress_dram.Ops
module Sc = Dramstress_dram.Sim_config
module D = Dramstress_defect.Defect

let bits = Array.map Int64.bits_of_float

(* [Newton.update], the one pass [Newton.iterate] makes per iteration,
   clamps and takes maxima with hand-written comparisons; they must
   return what [Float.min]/[Float.max] return, NaN and signed zeros
   included, and count a clamp exactly when the clamped move differs *)
let test_newton_update_matches_float_minmax () =
  let specials =
    [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0;
      1e-300; -1e-300; 0.25; -0.25; 1.0; -1.0; Float.succ 1.0;
      Float.pred (-1.0); 3.0; -3.0 ]
  in
  let fmax seed a =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) seed a
  in
  List.iter
    (fun m ->
      List.iter
        (fun dx ->
          let x = [| 0.0; 5.0 |] and acc = [| Float.nan; 0.5; Float.nan |] in
          let n =
            E.Newton.update ~max_step_v:m ~n_free:1 x [| dx; dx |] acc
          in
          let c = Float.max (-.m) (Float.min m dx) in
          let clamped = 0.0 +. c in
          let name what = Printf.sprintf "m=%h dx=%h %s" m dx what in
          Alcotest.(check (array int64)) (name "update")
            (bits [| clamped; dx |]) (bits x);
          Alcotest.(check (array int64)) (name "worst, max")
            (bits [| Float.max 0.0 (Float.abs dx); fmax 0.5 [| clamped; dx |] |])
            (bits [| acc.(0); acc.(1) |]);
          Alcotest.(check bool) (name "finite sum")
            (Float.is_finite clamped && Float.is_finite dx)
            (acc.(2) = 0.0);
          Alcotest.(check int) (name "clamps")
            (if c <> dx then 1 else 0)
            n)
        specials)
    [ 0.0; 0.25; 1.0; Float.infinity ];
  (* the maximum starts from the fixed node voltages' one; a NaN, once
     seen, sticks *)
  List.iter
    (fun (seed, x_new) ->
      let x = Array.map (fun _ -> 0.0) x_new and acc = [| 1.0; seed; 1.0 |] in
      let n = E.Newton.update ~max_step_v:0.0 ~n_free:0 x x_new acc in
      Alcotest.(check (array int64)) "branch currents copied" (bits x_new)
        (bits x);
      Alcotest.(check (array int64)) "no node move, max"
        (bits [| 0.0; fmax seed x_new |])
        (bits [| acc.(0); acc.(1) |]);
      Alcotest.(check int) "branch currents never clamp" 0 n)
    [
      (0.0, [| 1.0; Float.nan; 2.0 |]);
      (4.0, [| -3.0; 0.5; -0.0 |]);
      (0.0, [| Float.neg_infinity; 1.0 |]);
      (Float.nan, [| 1.0; 2.0 |]);
      (3.0, [| -1.0 |]);
    ]

let digest_traces traces =
  let b = Buffer.create 65536 in
  let add a =
    Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) a
  in
  List.iter
    (fun (r : E.Transient.result) ->
      add r.E.Transient.times;
      Array.iter add r.E.Transient.probe_values;
      add r.E.Transient.final_v)
    traces;
  Digest.to_hex (Digest.string (Buffer.contents b))

let o1 r = D.v (D.Open_cell D.At_bitline_contact) D.True_bl r

(* Digests of the times, probe samples and final state of two reference
   runs, one entry per numerics epoch ([Options.epoch], printed into
   every store key), the current epoch last. Pivot revalidation in the
   sparse LU and the allocation-free Newton iteration moved no bit of
   them. Before epochs were kept, the linear Newton predictor moved
   every sample within the Newton tolerance (old digests 662b40b7...
   and bc32c800...), the sparse LU's Markowitz column order moved
   samples at the rounding level (05141282... and 32a56ec6...), and the
   one-exp EKV evaluation with the second-order predictor moved them
   again (fdb58a7f... and 6ec78c51...), none moving a stored border. A
   change that moves these records the new digests as a new entry,
   which moves the epoch and with it every store key: results of the
   earlier numerics are then simulated afresh instead of reused. Epoch
   2 solves for the free nodes only: grounded sources fix their nodes,
   which leave the unknowns, and the Newton iterates move within the
   tolerance. *)
let epochs =
  [ (1, "813c59fa6797eb11f92719c108b7d4dd", "6206fe7f8d10077e935c941af223b5dd");
    (2, "71b8c97f13ab0b8f88711b622fbc35ee", "185ebc6726055c66e7de1d00d4ae2139") ]

let current_epoch =
  List.iteri
    (fun i (e, _, _) ->
      if e <> i + 1 then failwith "epochs must count 1, 2, ... in order")
    epochs;
  List.nth epochs (List.length epochs - 1)

let retention_run () =
  let oc =
    O.run ~config:(Sc.v ~deadline:600.0 ())
      ~cache:(O.Cache.create ~enabled:false ())
      ~stress:Dramstress_dram.Stress.nominal ~defect:(o1 200e3) ~vc_init:0.0
      [ O.W1; O.Pause 2.0; O.R ]
  in
  [ oc.O.trace ]

let ensemble_run () =
  let lanes =
    List.map
      (fun r -> { O.defect = Some (o1 r); vc_init = 0.0 })
      [ 50e3; 150e3; 400e3; 1e6 ]
  in
  List.map
    (function Ok oc -> oc.O.trace | Error e -> raise e)
    (O.run_batch ~cache:(O.Cache.create ~enabled:false ())
       ~stress:Dramstress_dram.Stress.nominal ~lanes
       [ O.W1; O.W1; O.W0; O.R ])

let test_retention_waveform_pinned () =
  let epoch, retention, _ = current_epoch in
  Alcotest.(check (pair int string)) "epoch and scalar retention digest"
    (epoch, retention)
    (E.Options.epoch, digest_traces (retention_run ()))

let test_ensemble_waveform_pinned () =
  let epoch, _, ensemble = current_epoch in
  Alcotest.(check (pair int string)) "epoch and 4-lane ensemble digest"
    (epoch, ensemble)
    (E.Options.epoch, digest_traces (ensemble_run ()))

(* ------------------------------------------------------------------ *)
(* Free-node layout                                                    *)
(* ------------------------------------------------------------------ *)

(* the column's 15 nodes and its 5 grounded sources (supply, three word
   lines, reference mid-level): 10 free nodes and no branch current *)
let test_column_free_nodes () =
  let module Col = Dramstress_dram.Column in
  let module T = Dramstress_dram.Tech in
  let dc = W.dc 0.0 in
  let controls =
    { Col.wl = dc; wl_ref = dc; wl_nb = dc; pre = dc; sae = dc;
      wr_acc_hi = dc; wr_acc_lo = dc; wr_ref_hi = dc; wr_ref_lo = dc;
      colsel = dc }
  in
  let col =
    Col.build ~tech:T.default ~vdd:2.4 ~controls ~defect:(o1 200e3) ()
  in
  let sys = E.Mna.make col.Col.compiled in
  Alcotest.(check (pair int int)) "nodes with ground, unknowns" (16, 10)
    (E.Mna.n_nodes sys, E.Mna.size sys);
  Alcotest.(check int) "all unknowns are node voltages" 10
    (E.Mna.n_free_nodes sys)

(* ------------------------------------------------------------------ *)
(* Newton predictor                                                    *)
(* ------------------------------------------------------------------ *)

(* [counted f] runs [f] with telemetry on and returns a reader of the
   counters it moved *)
let counted f =
  let module Tel = Dramstress_util.Telemetry in
  let was = Tel.enabled () in
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
  Tel.set_enabled true;
  Tel.reset ();
  f ();
  let counters = (Tel.snapshot ()).Tel.counters in
  fun name -> Option.value ~default:0 (List.assoc_opt name counters)

let run_ops ?config ~stress ops =
  ignore
    (O.run ?config ~cache:(O.Cache.create ~enabled:false ()) ~stress
       ~defect:(o1 200e3) ~vc_init:0.0 ops)

(* Each step's Newton solve starts from the state extrapolated through
   the lane's last accepted states. On the Figure-6 stressed SC (t_cyc
   55 ns, +87 C, 2.1 V) w1 w1 w0 r took 2.08 iterations per accepted
   step when every step started from the previous state, 1.31 with a
   linear predictor and 1.27 with the quadratic one (limit 1.5). The two
   nominal sequences pin the quadratic predictor at its reading plus 5%:
   the linear one reads 1.511 and 1.305 there, the quadratic one 1.259
   and 1.168. *)
let test_predictor_cuts_iterations () =
  let module S = Dramstress_dram.Stress in
  let fig6 =
    S.with_vdd (S.with_temp_c (S.with_tcyc S.nominal 55e-9) 87.0) 2.1
  in
  List.iter
    (fun (what, stress, ops, limit) ->
      let count = counted (fun () -> run_ops ~stress ops) in
      let per_step =
        float_of_int (count "engine.newton.iterations")
        /. float_of_int (count "engine.transient.steps_accepted")
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: %.3f Newton iterations per accepted step (limit %.3f)" what
           per_step limit)
        true (per_step <= limit))
    [ ("Fig-6 SC w1 w1 w0 r", fig6, [ O.W1; O.W1; O.W0; O.R ], 1.5);
      ("w1 w1 w0 r", S.nominal, [ O.W1; O.W1; O.W0; O.R ], 1.322);
      ("w1 w0 p0.03 r", S.nominal,
       [ O.W1; O.W0; O.Pause 0.03; O.R ], 1.226) ]

(* The step after an active cycle is ~2e7 times longer when a pause
   follows; extrapolating across that jump lands so far off that every
   retry stage fails. A step that grows starts from the previous state,
   so both retention sequences run without a rejected step or a retry. *)
let test_no_extrapolation_across_jump () =
  List.iter
    (fun (what, config, ops) ->
      let count =
        counted (fun () ->
            run_ops ?config ~stress:Dramstress_dram.Stress.nominal ops)
      in
      Alcotest.(check (pair int int))
        (what ^ ": rejected steps, retry attempts")
        (0, 0)
        (count "engine.transient.steps_rejected",
         count "dram.ops.retry_attempts"))
    [ ("w1 p2.0 r under a deadline", Some (Sc.v ~deadline:600.0 ()),
       [ O.W1; O.Pause 2.0; O.R ]);
      ("w1 w0 p3 r0", None, [ O.W1; O.W0; O.Pause 3.0; O.R ]) ]

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Minor words per accepted time point (per lane) of the two digest runs,
   memo cache and telemetry off, in this domain (Gc.minor_words is
   per-domain); a first run warms up anything built once. Each run's
   setup (netlist, MNA plans, symbolic LU) is included. Each limit is
   the reading plus 25%: the scalar retention run reads 10.33 (limit
   13.0), the 4-lane batch 3.19 (limit 4.0). What is left per step is
   the step's time and length, boxed once per time point to pass them
   on. Before the control waveforms were evaluated once each into a
   float array, the Newton verdict became a bool and each lane kept one
   reactive record, the runs read 47.6 and 27.2. *)
let test_minor_words_per_step () =
  let module Tel = Dramstress_util.Telemetry in
  let was = Tel.enabled () in
  Fun.protect ~finally:(fun () -> Tel.set_enabled was) @@ fun () ->
  Tel.set_enabled false;
  List.iter
    (fun (what, run, limit) ->
      ignore (run ());
      let w0 = Gc.minor_words () in
      let traces = run () in
      let words = Gc.minor_words () -. w0 in
      let steps =
        List.fold_left
          (fun acc (r : E.Transient.result) ->
            acc + Array.length r.E.Transient.times - 1)
          0 traces
      in
      let per_step = words /. float_of_int steps in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per accepted step (limit %.1f)"
           what per_step limit)
        true (per_step <= limit))
    [ ("scalar retention", retention_run, 13.0);
      ("4-lane ensemble", ensemble_run, 4.0) ]

(* ------------------------------------------------------------------ *)
(* DC sweep                                                            *)
(* ------------------------------------------------------------------ *)

(* a capacitor-free divider driven by a stepped source: every point of
   the run is the divider's operating point at that instant *)
let test_sweep_divider () =
  let nl = N.create () in
  N.vsource nl ~name:"vin" "in" "0"
    (W.pwl_steps ~t_edge:1e-10 0.0 [ (1e-9, 1.0); (2e-9, 2.0); (3e-9, 3.0) ]);
  N.resistor nl ~name:"r1" "in" "mid" 1000.0;
  N.resistor nl ~name:"r2" "mid" "0" 1000.0;
  let c = N.compile nl in
  let r =
    run1 c ~segments:[ (4e-9, 5e-11) ] ~ics:[] ~probes:[ "in"; "mid" ] ()
  in
  let vin = r.E.Transient.probe_values.(0) in
  Array.iteri
    (fun k mid -> check_float ~eps:1e-6 "half" (vin.(k) /. 2.0) mid)
    r.E.Transient.probe_values.(1);
  check_float "the source reached 3 V" 3.0 vin.(Array.length vin - 1)

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dramstress_engine"
    [
      ( "dcop",
        [
          tc "resistive divider" test_dcop_divider;
          tc "current source" test_dcop_current_source;
          tc "diode-connected nmos" test_dcop_diode_connected_nmos;
        ] );
      ( "transient",
        [
          tc "rc charge" test_rc_charge;
          tc "rc discharge from IC" test_rc_discharge_ic;
          tc "trapezoidal accuracy" test_rc_trapezoidal_more_accurate;
          tc "initial consistency solve" test_initial_consistency;
          tc "switch-gated charge" test_pulse_through_switch;
          tc "pass gate degraded 1" test_nmos_pass_gate_writes_degraded_one;
          tc "pass gate full 0" test_nmos_pass_gate_writes_full_zero;
          tc "segmented retention pause" test_segmented_timestep;
          tc "probe and segment validation" test_probe_errors;
          tc "step failure carries context" test_step_failed_context;
          tc "pass gate matches the full-MNA reference"
            test_pass_gate_matches_reference;
          QCheck_alcotest.to_alcotest prop_rc_matches_analytic;
          tc "fixed-node capacitor matches reference"
            test_fixed_cap_matches_reference;
        ] );
      ( "layout",
        [
          tc "the O1 column solves for 10 free nodes" test_column_free_nodes;
        ] );
      ( "health",
        [
          tc "NaN state detected" test_health_nan_state_detected;
          (* second, so the cases after it keep their indices *)
          tc "t=0 failure allocates no grid" test_dead_at_t0_allocates_no_grid;
          tc "singular LU detected" test_health_singular_lu_detected;
          tc "forced divergence is structured"
            test_health_forced_divergence_is_structured;
          tc "deadline cuts the solve" test_deadline_cuts_solve;
          tc "generous deadline unobtrusive"
            test_deadline_generous_budget_unobtrusive;
          tc "expired deadline stops 1 and 4 lanes within 16 iterations"
            test_expired_deadline_within_16_iterations;
          tc "health scan names the first non-finite unknown"
            test_health_scan_names_first_bad;
        ] );
      ( "bitwise",
        [
          tc "Newton update matches Float.min/max"
            test_newton_update_matches_float_minmax;
          tc "scalar retention waveform pinned" test_retention_waveform_pinned;
          tc "4-lane ensemble waveform pinned" test_ensemble_waveform_pinned;
        ] );
      ( "sweep",
        [
          tc "divider tracks the source" test_sweep_divider;
        ] );
      ( "predictor",
        [
          tc "predictor cuts Newton iterations" test_predictor_cuts_iterations;
          tc "no extrapolation across a step-size jump"
            test_no_extrapolation_across_jump;
        ] );
      ( "alloc",
        [ tc "minor words per accepted step" test_minor_words_per_step ] );
    ]
