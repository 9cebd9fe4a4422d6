(* Tests for waveforms, the MOSFET model and netlist editing. *)

module W = Dramstress_circuit.Waveform
module M = Dramstress_circuit.Mosfet
module D = Dramstress_circuit.Device
module N = Dramstress_circuit.Netlist

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Waveform                                                            *)
(* ------------------------------------------------------------------ *)

let test_dc () = check_float "dc" 2.4 (W.eval (W.dc 2.4) 123.0)

let test_pulse_shape () =
  let p =
    W.pulse ~v0:0.0 ~v1:1.0 ~delay:10.0 ~rise:2.0 ~width:5.0 ~fall:2.0 ()
  in
  check_float "before" 0.0 (W.eval p 5.0);
  check_float "mid rise" 0.5 (W.eval p 11.0);
  check_float "plateau" 1.0 (W.eval p 13.0);
  check_float "mid fall" 0.5 (W.eval p 18.0);
  check_float "after" 0.0 (W.eval p 25.0)

let test_pulse_periodic () =
  let p =
    W.pulse ~period:20.0 ~v0:0.0 ~v1:1.0 ~delay:0.0 ~rise:1.0 ~width:4.0
      ~fall:1.0 ()
  in
  check_float "first plateau" 1.0 (W.eval p 2.0);
  check_float "second plateau" 1.0 (W.eval p 22.0);
  check_float "gap" 0.0 (W.eval p 10.0);
  check_float "second gap" 0.0 (W.eval p 30.0)

let test_pulse_invalid () =
  Alcotest.check_raises "negative rise"
    (Invalid_argument "Waveform.pulse: negative duration") (fun () ->
      ignore
        (W.pulse ~v0:0.0 ~v1:1.0 ~delay:0.0 ~rise:(-1.0) ~width:1.0 ~fall:0.0
           ()))

let test_pwl () =
  let p = W.pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 0.0) ] in
  check_float "hold before" 0.0 (W.eval p (-1.0));
  check_float "rise" 1.0 (W.eval p 0.5);
  check_float "fall" 1.0 (W.eval p 2.0);
  check_float "hold after" 0.0 (W.eval p 10.0)

let test_pwl_invalid () =
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Waveform.pwl: breakpoints must strictly increase")
    (fun () -> ignore (W.pwl [ (1.0, 0.0); (1.0, 1.0) ]))

let test_pwl_steps () =
  let p = W.pwl_steps ~t_edge:1.0 0.0 [ (10.0, 2.0); (20.0, 0.5) ] in
  check_float "initial" 0.0 (W.eval p 5.0);
  check_float "after first step" 2.0 (W.eval p 15.0);
  check_float "after second step" 0.5 (W.eval p 25.0);
  check_float "mid edge" 1.0 (W.eval p 10.5)

let test_shift () =
  let p = W.shift 5.0 (W.pwl [ (0.0, 0.0); (1.0, 1.0) ]) in
  check_float "shifted" 0.0 (W.eval p 4.9);
  check_float "shifted end" 1.0 (W.eval p 6.0)

let test_breakpoints () =
  let p =
    W.pulse ~v0:0.0 ~v1:1.0 ~delay:10.0 ~rise:2.0 ~width:5.0 ~fall:2.0 ()
  in
  Alcotest.(check (list (float 1e-9)))
    "pulse corners" [ 10.0; 12.0; 17.0; 19.0 ]
    (W.breakpoints ~until:100.0 p);
  Alcotest.(check (list (float 1e-9))) "dc" [] (W.breakpoints ~until:1.0 (W.dc 1.0))

let prop_pulse_bounded =
  QCheck.Test.make ~count:200 ~name:"pulse value stays within [v0, v1]"
    QCheck.(float_range 0.0 100.0)
    (fun t ->
      let p =
        W.pulse ~period:25.0 ~v0:(-1.0) ~v1:3.0 ~delay:2.0 ~rise:1.5
          ~width:6.0 ~fall:2.5 ()
      in
      let v = W.eval p t in
      v >= -1.0 -. 1e-12 && v <= 3.0 +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Mosfet                                                              *)
(* ------------------------------------------------------------------ *)

let nmos = M.nmos ~name:"n" ~vt0:0.5 ~kp:1e-4 ()
let pmos = M.pmos ~name:"p" ~vt0:0.5 ~kp:1e-4 ()
let temp = 300.15

(* the Newton stamp loop evaluates through [prepare] + [ids_into]; it
   must reproduce [ids] to the bit, reverse bias and both polarities
   included *)
let test_mosfet_prepared_bitwise () =
  let bits e = List.map Int64.bits_of_float [ e.M.id; e.M.gm; e.M.gds ] in
  let out = Array.make 3 0.0 in
  let levels = List.init 13 (fun i -> -2.4 +. (0.4 *. float_of_int i)) in
  List.iter
    (fun model ->
      List.iter
        (fun temp ->
          let p = M.prepare model ~temp in
          List.iter
            (fun vs ->
              List.iter
                (fun vg ->
                  List.iter
                    (fun vd ->
                      M.ids_into p [| vd; vg; vs |] ~d:0 ~g:1 ~s:2 out;
                      let e =
                        M.ids model ~temp ~vgs:(vg -. vs) ~vds:(vd -. vs)
                      in
                      Alcotest.(check (list int64))
                        (Printf.sprintf "%s T=%g vg=%g vd=%g vs=%g"
                           model.M.name temp vg vd vs)
                        (bits e)
                        (bits { M.id = out.(0); gm = out.(1); gds = out.(2) }))
                    levels)
                levels)
            [ 0.0; 0.7 ])
        [ 233.15; 300.15; 398.15 ])
    [ nmos; pmos ]

let test_mosfet_off () =
  let e = M.ids nmos ~temp ~vgs:0.0 ~vds:1.0 in
  Alcotest.(check bool) "leakage small" true (e.M.id < 1e-9 && e.M.id >= 0.0)

let test_mosfet_on_saturation () =
  let e = M.ids nmos ~temp ~vgs:1.5 ~vds:2.0 in
  (* square-law estimate kp/(2 n) (vgs-vt)^2 = 1e-4 / 2.8 ~ 3.6e-5 *)
  Alcotest.(check bool) "order of magnitude" true (e.M.id > 1e-5 && e.M.id < 2e-4);
  Alcotest.(check bool) "gm positive" true (e.M.gm > 0.0);
  Alcotest.(check bool) "gds positive" true (e.M.gds > 0.0)

let test_mosfet_triode_vs_saturation () =
  let tri = M.ids nmos ~temp ~vgs:2.0 ~vds:0.1 in
  let sat = M.ids nmos ~temp ~vgs:2.0 ~vds:2.0 in
  Alcotest.(check bool) "triode smaller" true (tri.M.id < sat.M.id)

let test_mosfet_symmetry () =
  (* swapping source and drain reverses the current *)
  let fwd = M.ids nmos ~temp ~vgs:1.5 ~vds:1.0 in
  let rev = M.ids nmos ~temp ~vgs:0.5 ~vds:(-1.0) in
  (* rev has vgd = 0.5 - (-1.0) = 1.5 as the mirrored vgs *)
  check_float ~eps:1e-9 "mirror current" (-.fwd.M.id) rev.M.id

let test_pmos_mirror () =
  let n = M.ids nmos ~temp ~vgs:1.5 ~vds:1.0 in
  let p = M.ids pmos ~temp ~vgs:(-1.5) ~vds:(-1.0) in
  check_float "pmos mirrors nmos" (-.n.M.id) p.M.id

let test_mosfet_temperature_mobility () =
  (* strong inversion: hotter -> lower current (mobility dominates) *)
  let cold = M.ids nmos ~temp:(273.15 -. 33.0) ~vgs:2.0 ~vds:2.0 in
  let hot = M.ids nmos ~temp:(273.15 +. 87.0) ~vgs:2.0 ~vds:2.0 in
  Alcotest.(check bool) "Ion falls with T" true (cold.M.id > hot.M.id)

let test_mosfet_temperature_leakage () =
  (* sub-threshold: hotter -> much higher leakage *)
  let cold = M.ids nmos ~temp:(273.15 -. 33.0) ~vgs:0.0 ~vds:1.0 in
  let hot = M.ids nmos ~temp:(273.15 +. 87.0) ~vgs:0.0 ~vds:1.0 in
  Alcotest.(check bool) "leakage rises with T" true
    (hot.M.id > 100.0 *. cold.M.id)

let test_mosfet_vth_temperature () =
  let vth_cold = M.vth nmos ~temp:(273.15 -. 33.0) in
  let vth_hot = M.vth nmos ~temp:(273.15 +. 87.0) in
  Alcotest.(check bool) "Vth falls with T" true (vth_cold > vth_hot)

let fd_derivative f x =
  let h = 1e-6 in
  (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

let prop_gm_matches_fd =
  QCheck.Test.make ~count:200 ~name:"gm matches finite differences"
    QCheck.(pair (float_range (-0.5) 2.5) (float_range (-2.0) 2.5))
    (fun (vgs, vds) ->
      let e = M.ids nmos ~temp ~vgs ~vds in
      let fd = fd_derivative (fun v -> (M.ids nmos ~temp ~vgs:v ~vds).M.id) vgs in
      Float.abs (e.M.gm -. fd) <= 1e-6 +. (1e-3 *. Float.abs fd))

let prop_gds_matches_fd =
  QCheck.Test.make ~count:200 ~name:"gds matches finite differences"
    QCheck.(pair (float_range (-0.5) 2.5) (float_range (-2.0) 2.5))
    (fun (vgs, vds) ->
      let e = M.ids nmos ~temp ~vgs ~vds in
      let fd = fd_derivative (fun v -> (M.ids nmos ~temp ~vgs ~vds:v).M.id) vds in
      Float.abs (e.M.gds -. fd) <= 1e-6 +. (1e-3 *. Float.abs fd))

let prop_current_sign =
  QCheck.Test.make ~count:200 ~name:"NMOS current sign follows vds"
    QCheck.(pair (float_range 0.0 2.5) (float_range (-2.5) 2.5))
    (fun (vgs, vds) ->
      let e = M.ids nmos ~temp ~vgs ~vds in
      if vds > 1e-9 then e.M.id >= 0.0
      else if vds < -1e-9 then e.M.id <= 0.0
      else Float.abs e.M.id < 1e-9)

(* ------------------------------------------------------------------ *)
(* Netlist                                                             *)
(* ------------------------------------------------------------------ *)

let test_netlist_nodes () =
  let nl = N.create () in
  let a = N.node nl "a" in
  let a' = N.node nl "a" in
  Alcotest.(check int) "interned" a a';
  Alcotest.(check int) "ground id" 0 N.ground;
  Alcotest.(check string) "name" "a" (N.node_name nl a);
  Alcotest.(check (option int)) "find" (Some a) (N.find_node nl "a");
  Alcotest.(check (option int)) "missing" None (N.find_node nl "zz")

let test_netlist_duplicate_device () =
  let nl = N.create () in
  N.resistor nl ~name:"r1" "a" "0" 100.0;
  Alcotest.check_raises "dup" (Invalid_argument "Netlist.add: duplicate device \"r1\"")
    (fun () -> N.resistor nl ~name:"r1" "b" "0" 100.0)

let test_netlist_compile_counts () =
  let nl = N.create () in
  N.vsource nl ~name:"vdd" "vdd" "0" (W.dc 2.4);
  N.resistor nl ~name:"r1" "vdd" "out" 1000.0;
  N.capacitor nl ~name:"c1" "out" "0" 1e-12;
  let c = N.compile nl in
  Alcotest.(check int) "nodes (gnd, vdd, out)" 3 c.N.n_nodes;
  Alcotest.(check int) "one vsource" 1 c.N.n_vsources;
  Alcotest.(check int) "devices" 3 (Array.length c.N.devices)

let test_netlist_dangling () =
  let nl = N.create () in
  ignore (N.node nl "floating");
  N.resistor nl ~name:"r1" "a" "0" 1.0;
  Alcotest.check_raises "dangling"
    (N.Invalid [ N.Floating_node { node = "floating" } ])
    (fun () -> ignore (N.compile nl))

let test_netlist_diagnostics_collected () =
  (* one compile reports every problem, not just the first symptom *)
  let nl = N.create () in
  ignore (N.node nl "floating");
  (* raw add bypasses the smart-constructor finiteness/positivity checks *)
  N.add nl
    (D.Resistor { name = "r_nan"; a = N.node nl "a"; b = 0; r = Float.nan });
  N.add nl (D.Capacitor { name = "c_zero"; a = N.node nl "a"; b = 0; c = 0.0 });
  match N.compile nl with
  | _ -> Alcotest.fail "expected Netlist.Invalid"
  | exception N.Invalid diags ->
    let has p = List.exists p diags in
    Alcotest.(check int) "all three diagnostics" 3 (List.length diags);
    Alcotest.(check bool) "floating" true
      (has (function N.Floating_node { node } -> node = "floating" | _ -> false));
    Alcotest.(check bool) "non-finite r" true
      (has (function
        | N.Non_finite_param { device = "r_nan"; param = "r"; value } ->
          Float.is_nan value
        | _ -> false));
    Alcotest.(check bool) "zero capacitance" true
      (has (function
        | N.Zero_capacitance { device = "c_zero" } -> true
        | _ -> false))

let test_netlist_nonfinite_dc_source () =
  let nl = N.create () in
  N.vsource nl ~name:"vdd" "vdd" "0" (W.dc Float.infinity);
  N.resistor nl ~name:"r" "vdd" "0" 1000.0;
  match N.compile nl with
  | _ -> Alcotest.fail "expected Netlist.Invalid"
  | exception N.Invalid [ N.Non_finite_param { device; param; _ } ] ->
    Alcotest.(check string) "device" "vdd" device;
    Alcotest.(check string) "param" "v.dc" param
  | exception N.Invalid _ -> Alcotest.fail "expected a single diagnostic"

let test_insert_series () =
  let nl = N.create () in
  N.vsource nl ~name:"v" "in" "0" (W.dc 1.0);
  N.resistor nl ~name:"r" "in" "out" 1000.0;
  N.capacitor nl ~name:"c" "out" "0" 1e-12;
  N.insert_series nl ~name:"r_open" ~device:"r" ~terminal:D.Term_b ~r:5e5;
  let c = N.compile nl in
  Alcotest.(check int) "extra node" 4 c.N.n_nodes;
  (* the original resistor must no longer touch "out" directly *)
  let r_dev =
    Array.to_list c.N.devices
    |> List.find (fun d -> D.name d = "r")
  in
  let out_id = N.compiled_node c "out" in
  Alcotest.(check bool) "rewired" false (List.mem out_id (D.nodes r_dev))

let test_insert_series_missing () =
  let nl = N.create () in
  Alcotest.check_raises "missing"
    (N.Invalid
       [ N.Unknown_device { context = "Netlist.insert_series"; device = "none" } ])
    (fun () ->
      N.insert_series nl ~name:"x" ~device:"none" ~terminal:D.Term_a ~r:1.0)

let test_replace_remove () =
  let nl = N.create () in
  N.resistor nl ~name:"r" "a" "0" 1000.0;
  N.replace_device nl "r" (D.Resistor { name = "r"; a = N.node nl "a"; b = 0; r = 2000.0 });
  (match N.find_device nl "r" with
  | Some (D.Resistor { r; _ }) -> check_float "replaced" 2000.0 r
  | Some _ | None -> Alcotest.fail "expected replaced resistor");
  N.remove_device nl "r";
  Alcotest.(check bool) "removed" true (N.find_device nl "r" = None)

let test_terminal_ops () =
  let m =
    D.Mosfet { name = "m"; d = 1; g = 2; s = 3; model = nmos; m = 1.0 }
  in
  Alcotest.(check int) "drain" 1 (D.terminal_node m D.Term_a);
  Alcotest.(check int) "gate" 2 (D.terminal_node m D.Term_gate);
  Alcotest.(check int) "source" 3 (D.terminal_node m D.Term_b);
  let m' = D.with_terminal m D.Term_gate 9 in
  Alcotest.(check int) "rewired gate" 9 (D.terminal_node m' D.Term_gate);
  let r = D.Resistor { name = "r"; a = 1; b = 2; r = 1.0 } in
  Alcotest.check_raises "gate on resistor"
    (Invalid_argument "Device.terminal_node: Term_gate on a two-terminal device")
    (fun () -> ignore (D.terminal_node r D.Term_gate))

(* ------------------------------------------------------------------ *)
(* Spice deck parser                                                   *)
(* ------------------------------------------------------------------ *)

module Sp = Dramstress_circuit.Spice

let value s =
  match Sp.parse_value s with
  | Ok v -> v
  | Error m -> Alcotest.failf "%S: %s" s m

let test_parse_value () =
  check_float "kilo" 2.0e5 (value "200k");
  check_float "femto" 1e-13 (value "100f");
  check_float "meg" 3e6 (value "3meg");
  check_float "plain" 42.0 (value "42");
  check_float "negative nano" (-6e-8) (value "-60n");
  check_float "volts unit" 2.4 (value "2.4v");
  check_float "nano with unit" 6e-8 (value "60ns");
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is a typed error" s)
        true
        (Result.is_error (Sp.parse_value s)))
    [ "xyz"; ""; "  "; "nan"; "inf"; "-inf"; "1e400"; "1e300t"; "k" ]

(* the decks the parser tests read, and the seeds of the mutation
   property below *)
let deck_basic =
  {|* a divider with a capacitor
Vdd vdd 0 DC 2.4
R1 vdd mid 1k
R2 mid 0 3k  ; load
C1 mid 0 100f
|}

let deck_sources =
  {|Vp a 0 PULSE(0 3.2 6n 0.5n 48n 0.5n 60n)
Vw b 0 PWL(0 0 1n 1 2n 0)
Ix a b DC 1m
R1 a b 1k
|}

let deck_mosfet =
  {|.MODEL nch NMOS (VT0=0.7 KP=1e-4 TC=1m MU=2)
Vd d 0 DC 2.4
M1 d g s nch
Ms d g s2 nch M=2
S1 s 0 PULSE(0 1 10n 1n 20n 1n) GON=1e-3 GOFF=1e-12
C1 s 0 1p
C2 s2 0 1p
Vg g 0 DC 2.4
|}

let deck_rc = {|V1 in 0 DC 1
R1 in out 1k
C1 out 0 1n
|}

let test_parse_basic_deck () =
  let nl = Sp.parse deck_basic in
  let c = N.compile nl in
  Alcotest.(check int) "devices" 4 (Array.length c.N.devices);
  Alcotest.(check int) "nodes" 3 c.N.n_nodes;
  match N.find_device nl "R2" with
  | Some (D.Resistor { r; _ }) -> check_float "r2" 3000.0 r
  | _ -> Alcotest.fail "R2 missing"

let test_parse_sources () =
  let nl = Sp.parse deck_sources in
  (match N.find_device nl "Vp" with
  | Some (D.Vsource { wave; _ }) ->
    check_float "pulse plateau" 3.2 (W.eval wave 10e-9);
    check_float "pulse periodic" 3.2 (W.eval wave 70e-9)
  | _ -> Alcotest.fail "Vp missing");
  match N.find_device nl "Vw" with
  | Some (D.Vsource { wave; _ }) -> check_float "pwl mid" 0.5 (W.eval wave 0.5e-9)
  | _ -> Alcotest.fail "Vw missing"

let test_parse_mosfet_and_switch () =
  let nl = Sp.parse deck_mosfet in
  (match N.find_device nl "M1" with
  | Some (D.Mosfet { model; m; _ }) ->
    check_float "vt0" 0.7 model.M.vt0;
    check_float "tempco" 1e-3 model.M.vt_tc;
    check_float "mult" 1.0 m
  | _ -> Alcotest.fail "M1 missing");
  (match N.find_device nl "Ms" with
  | Some (D.Mosfet { m; _ }) -> check_float "mult 2" 2.0 m
  | _ -> Alcotest.fail "Ms missing");
  match N.find_device nl "S1" with
  | Some (D.Switch { g_on; threshold; _ }) ->
    check_float "gon" 1e-3 g_on;
    check_float "default vt" 0.5 threshold
  | _ -> Alcotest.fail "S1 missing"

(* every malformed card raises [Parse_error] naming its own line *)
let test_parse_errors () =
  let expect_error ?(line = 1) deck =
    match Sp.parse deck with
    | exception Sp.Parse_error { line = l; _ } ->
      Alcotest.(check int) (Printf.sprintf "line of %S" deck) line l
    | _ -> Alcotest.failf "deck should not parse: %s" deck
  in
  expect_error "R1 a b";
  expect_error "Vx a 0 PULSE(1 2)";
  expect_error "M1 d g s unknown_model";
  expect_error "Q1 a b c";
  expect_error ".tran 1n 60n";
  expect_error "R1 a b -1k";
  expect_error "C1 a 0 0";
  expect_error "V1 a 0 DC junk";
  expect_error "V1 a 0 junk";
  expect_error "V1 a 0 PWL(1n 0 0 1)";
  expect_error "V1 a 0 PULSE(0 1 -1n 1n 1n 1n)";
  expect_error "V1 a 0 PULSE(0 1 x 1n 1n 1n)";
  expect_error ".MODEL n NMOS (KP=-1)";
  expect_error ".MODEL n NMOS (VT0=abc)";
  expect_error ~line:2 ".MODEL n NMOS\nM1 d g s n M=x";
  expect_error ~line:2 "R1 a b 1k\nR1 a b 2k";
  expect_error "R1 a b nan";
  expect_error "I1 a 0 PWL(0 nan)"

let test_parse_roundtrip_simulation () =
  (* the parsed deck must simulate identically to a built netlist *)
  let c = N.compile (Sp.parse deck_rc) in
  Alcotest.(check int) "compiled" 3 c.N.n_nodes

(* Mutated decks: whatever comes out of {!Mutate.mutate}, [parse]
   returns a netlist or raises [Parse_error] — any other exception fails
   the property — and it returns promptly. *)
let prop_parse_mutated_decks =
  Mutate.prop ~name:"spice: mutated decks parse or raise Parse_error, promptly"
    [ deck_basic; deck_sources; deck_mosfet; deck_rc ]
    (fun deck ->
      match Sp.parse deck with _ -> () | exception Sp.Parse_error _ -> ())

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dramstress_circuit"
    [
      ( "waveform",
        [
          tc "dc" test_dc;
          tc "pulse shape" test_pulse_shape;
          tc "periodic pulse" test_pulse_periodic;
          tc "pulse validation" test_pulse_invalid;
          tc "pwl" test_pwl;
          tc "pwl validation" test_pwl_invalid;
          tc "pwl_steps" test_pwl_steps;
          tc "shift" test_shift;
          tc "breakpoints" test_breakpoints;
          QCheck_alcotest.to_alcotest prop_pulse_bounded;
        ] );
      ( "mosfet",
        [
          tc "prepared evaluation bitwise" test_mosfet_prepared_bitwise;
          tc "off leakage" test_mosfet_off;
          tc "saturation magnitude" test_mosfet_on_saturation;
          tc "triode vs saturation" test_mosfet_triode_vs_saturation;
          tc "source/drain symmetry" test_mosfet_symmetry;
          tc "pmos mirrors nmos" test_pmos_mirror;
          tc "mobility falls with T" test_mosfet_temperature_mobility;
          tc "leakage rises with T" test_mosfet_temperature_leakage;
          tc "Vth falls with T" test_mosfet_vth_temperature;
          QCheck_alcotest.to_alcotest prop_gm_matches_fd;
          QCheck_alcotest.to_alcotest prop_gds_matches_fd;
          QCheck_alcotest.to_alcotest prop_current_sign;
        ] );
      ( "spice",
        [
          tc "value suffixes" test_parse_value;
          tc "basic deck" test_parse_basic_deck;
          tc "pulse and pwl sources" test_parse_sources;
          tc "mosfet models and switches" test_parse_mosfet_and_switch;
          tc "error reporting" test_parse_errors;
          tc "compiles for simulation" test_parse_roundtrip_simulation;
          QCheck_alcotest.to_alcotest prop_parse_mutated_decks;
        ] );
      ( "netlist",
        [
          tc "node interning" test_netlist_nodes;
          tc "duplicate device rejected" test_netlist_duplicate_device;
          tc "compile counts" test_netlist_compile_counts;
          tc "dangling node rejected" test_netlist_dangling;
          tc "diagnostics collected in one report"
            test_netlist_diagnostics_collected;
          tc "non-finite DC level rejected" test_netlist_nonfinite_dc_source;
          tc "series insertion (open defect)" test_insert_series;
          tc "series insertion on missing device" test_insert_series_missing;
          tc "replace and remove" test_replace_remove;
          tc "terminal accessors" test_terminal_ops;
        ] );
    ]
