(* Tests for the fault-analysis core: detection conditions, border
   resistance, result planes, stress probes and SC evaluation. *)

module S = Dramstress_dram.Stress
module O = Dramstress_dram.Ops
module D = Dramstress_defect.Defect
module C = Dramstress_core

let nominal = S.nominal
let open_kind = D.Open_cell D.At_bitline_contact

(* ------------------------------------------------------------------ *)
(* Detection                                                           *)
(* ------------------------------------------------------------------ *)

let test_detection_standard_shape () =
  let cond = C.Detection.standard ~victim:0 ~primes:2 in
  Alcotest.(check bool) "steps" true
    (cond.C.Detection.steps
    = [ C.Detection.Write 1; C.Detection.Write 1; C.Detection.Write 0;
        C.Detection.Read 0 ]);
  Alcotest.(check string) "notation" "{... w1, w1, w0, r0 ...}"
    (C.Detection.to_string cond)

let test_detection_validation () =
  Alcotest.check_raises "bad bit" (Invalid_argument "Detection.v: bit not 0/1")
    (fun () -> ignore (C.Detection.v [ C.Detection.Write 2 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Detection.v: empty")
    (fun () -> ignore (C.Detection.v []));
  Alcotest.check_raises "primes" (Invalid_argument "Detection.standard: primes < 1")
    (fun () -> ignore (C.Detection.standard ~victim:0 ~primes:0))

let test_detection_of_string () =
  let open C.Detection in
  let good =
    [
      ("w1 w1 w0 r0", [ Write 1; Write 1; Write 0; Read 0 ]);
      ("W1 W0 R0", [ Write 1; Write 0; Read 0 ]);
      ("w1,w0,r", [ Write 1; Write 0; Read 0 ]);
      ("  w0 ,, w1  r ", [ Write 0; Write 1; Read 1 ]);
      ("r", [ Read 0 ]);
      ("w1 p1e-3 r1", [ Write 1; Wait 1e-3; Read 1 ]);
      ("w0 ham r0", [ Write 0; Hammer 1; Read 0 ]);
      ("w0 ham12 r0", [ Write 0; Hammer 12; Read 0 ]);
    ]
  in
  List.iter
    (fun (text, steps) ->
      match of_string text with
      | Ok d -> Alcotest.(check bool) text true (d.steps = steps)
      | Error msg -> Alcotest.failf "%S rejected: %s" text msg)
    good;
  let bad =
    [ ""; " , "; "w2"; "w1 x r0"; "w1 pjunk r0"; "w1 p r0"; "w1 p0 r0";
      "w1 p-1 r0"; "w1 pnan r0"; "w1 pinf r0"; "w1 ham0 r0"; "w1 ham-2 r0";
      "w1 hamx r0"; "r2"; "w1 w0 r0x" ]
  in
  List.iter
    (fun text ->
      match of_string text with
      | Ok d -> Alcotest.failf "%S accepted as %s" text (to_string d)
      | Error msg ->
        Alcotest.(check bool) (text ^ " has a message") true (msg <> "")
      | exception e ->
        Alcotest.failf "%S raised %s" text (Printexc.to_string e))
    bad

let test_detection_lowering () =
  let cond = C.Detection.retention ~victim:1 ~pause:1e-3 in
  (match C.Detection.ops cond with
  | [ O.W1; O.Pause p; O.R ] -> Alcotest.(check (float 0.0)) "pause" 1e-3 p
  | _ -> Alcotest.fail "lowering");
  Alcotest.(check (list int)) "expected reads" [ 1 ]
    (C.Detection.expected_reads cond)

let test_detection_initial_vc () =
  let cond = C.Detection.standard ~victim:0 ~primes:2 in
  (* first write is w1: start from its complement, physical 0 *)
  let d_true = D.v open_kind D.True_bl 1e5 in
  Alcotest.(check (float 0.0)) "true placement" 0.0
    (C.Detection.initial_vc cond ~stress:nominal ~defect:d_true);
  let d_comp = D.v open_kind D.Comp_bl 1e5 in
  Alcotest.(check (float 0.0)) "comp placement" nominal.S.vdd
    (C.Detection.initial_vc cond ~stress:nominal ~defect:d_comp)

let test_detects_open () =
  let cond = C.Detection.standard ~victim:0 ~primes:2 in
  let big = D.v open_kind D.True_bl 500e3 in
  let small = D.v open_kind D.True_bl 10e3 in
  Alcotest.(check bool) "500k detected" true
    (C.Detection.detects ~stress:nominal ~defect:big cond);
  Alcotest.(check bool) "10k escapes" false
    (C.Detection.detects ~stress:nominal ~defect:small cond)

(* ------------------------------------------------------------------ *)
(* Border                                                              *)
(* ------------------------------------------------------------------ *)

(* the default window capped at 100 MOhm *)
let window_1e8 = C.Border.Window.v ~r_max:1e8 ()

let test_border_open () =
  let cond = C.Detection.standard ~victim:0 ~primes:2 in
  match
    C.Border.search ~window:window_1e8 ~stress:nominal ~kind:open_kind
      ~placement:D.True_bl cond
  with
  | C.Border.Br r ->
    Alcotest.(check bool)
      (Printf.sprintf "BR %.0f kOhm in the paper's regime" (r /. 1e3))
      true
      (r > 80e3 && r < 400e3)
  | other ->
    Alcotest.failf "expected Br, got %s"
      (Format.asprintf "%a" C.Border.pp_result other)

let test_border_true_comp_symmetry () =
  let br placement victim =
    let cond = C.Detection.standard ~victim ~primes:2 in
    C.Border.search ~window:window_1e8 ~stress:nominal ~kind:open_kind ~placement cond
  in
  match (br D.True_bl 0, br D.Comp_bl 1) with
  | C.Border.Br a, C.Border.Br b ->
    Alcotest.(check bool)
      (Printf.sprintf "true %.0fk ~ comp %.0fk" (a /. 1e3) (b /. 1e3))
      true
      (Float.abs (a -. b) /. a < 0.05)
  | _ -> Alcotest.fail "expected boundaries on both placements"

let test_border_band_for_neighbour_bridge () =
  (* only an interior resistance band is detectable: a hard bridge zeroes
     the aggressor during the victim write, a weak one cannot couple in
     time. Needs the hot SC -- at room temperature B2 escapes entirely. *)
  let cond = C.Detection.retention ~victim:0 ~pause:1e-3 in
  match
    C.Border.search ~stress:(S.with_temp_c nominal 87.0)
      ~kind:D.Bridge_to_neighbour ~placement:D.True_bl cond
  with
  | C.Border.Faulty_band { lo; hi } ->
    Alcotest.(check bool) "interior band" true (lo > 1e3 && hi < 1e11 && lo < hi)
  | other ->
    Alcotest.failf "expected a band, got %s"
      (Format.asprintf "%a" C.Border.pp_result other)

let test_border_helpers () =
  let pol = D.High_r_fails in
  Alcotest.(check bool) "lower BR better for opens" true
    (C.Border.better pol (C.Border.Br 1e5) (C.Border.Br 2e5));
  Alcotest.(check bool) "always beats Br" true
    (C.Border.better pol C.Border.Always_faulty (C.Border.Br 1e5));
  Alcotest.(check bool) "never loses" true
    (C.Border.better pol (C.Border.Br 1e5) C.Border.Never_faulty);
  (match
     C.Border.improvement pol ~nominal:(C.Border.Br 2e5)
       ~stressed:(C.Border.Br 5e4)
   with
  | Some f -> Alcotest.(check (float 1e-9)) "4x" 4.0 f
  | None -> Alcotest.fail "expected improvement");
  (match
     C.Border.improvement D.Low_r_fails ~nominal:(C.Border.Br 1e6)
       ~stressed:(C.Border.Br 1e9)
   with
  | Some f -> Alcotest.(check (float 1e-6)) "1000x" 1000.0 f
  | None -> Alcotest.fail "expected improvement");
  Alcotest.(check bool) "never -> none" true
    (C.Border.improvement pol ~nominal:C.Border.Never_faulty
       ~stressed:(C.Border.Br 1e5)
    = None);
  (match
     C.Border.covered_range D.Low_r_fails (C.Border.Br 1e6) ~r_min:1e3
       ~r_max:1e9
   with
  | Some (lo, hi) ->
    Alcotest.(check (float 0.0)) "lo" 1e3 lo;
    Alcotest.(check (float 0.0)) "hi" 1e6 hi
  | None -> Alcotest.fail "expected range")

(* classification core: a synthetic [refine] that bisects geometrically,
   so expected edge positions are computable in the test *)
let geo_refine r0 r1 = C.Border.Exact (sqrt (r0 *. r1))

let of_samples = C.Border.of_samples ~refine:geo_refine ~r_min:1e3 ~r_max:1e9

let test_of_samples_single_edges () =
  (* detected from r_min up to one edge: the band touches the range
     start, so the honest summary is a single boundary *)
  (match
     of_samples
       [ (1e3, Some true); (1e4, Some true); (1e5, Some false);
         (1e6, Some false) ]
   with
  | C.Border.Br e ->
    Alcotest.(check (float 0.0)) "edge between the flip" (sqrt (1e4 *. 1e5)) e
  | other ->
    Alcotest.failf "expected Br, got %a" C.Border.pp_result other);
  (* detected from one edge up to r_max *)
  (match
     of_samples [ (1e3, Some false); (1e4, Some false); (1e5, Some true) ]
   with
  | C.Border.Br e ->
    Alcotest.(check (float 0.0)) "edge" (sqrt (1e4 *. 1e5)) e
  | other -> Alcotest.failf "expected Br, got %a" C.Border.pp_result other);
  (* degenerate grids *)
  Alcotest.(check bool) "all detected" true
    (of_samples [ (1e3, Some true); (1e6, Some true) ] = C.Border.Always_faulty);
  Alcotest.(check bool) "none detected" true
    (of_samples [ (1e3, Some false); (1e6, Some false) ]
    = C.Border.Never_faulty);
  Alcotest.(check bool) "no known sample" true
    (of_samples [ (1e3, None); (1e6, None) ] = C.Border.Unsampled)

let test_of_samples_interior_band () =
  match
    of_samples
      [ (1e3, Some false); (1e4, Some true); (1e5, Some true);
        (1e6, Some false) ]
  with
  | C.Border.Faulty_band { lo; hi } ->
    Alcotest.(check (float 0.0)) "lower edge" (sqrt (1e3 *. 1e4)) lo;
    Alcotest.(check (float 0.0)) "upper edge" (sqrt (1e5 *. 1e6)) hi
  | other ->
    Alcotest.failf "expected Faulty_band, got %a" C.Border.pp_result other

let test_of_samples_two_bands () =
  (* detected / undetected / detected: the multi-edge shape older
     revisions collapsed into a single bogus [Br last] *)
  match
    of_samples
      [ (1e3, Some true); (1e4, Some false); (1e5, Some false);
        (1e6, Some true); (1e7, Some true) ]
  with
  | C.Border.Bands [ b1; b2 ] ->
    Alcotest.(check bool) "first band opens at r_min" true
      (b1.C.Border.b_lo = C.Border.Exact 1e3);
    Alcotest.(check bool) "first band closes at the first flip" true
      (b1.C.Border.b_hi = C.Border.Exact (sqrt (1e3 *. 1e4)));
    Alcotest.(check bool) "second band opens at the second flip" true
      (b2.C.Border.b_lo = C.Border.Exact (sqrt (1e5 *. 1e6)));
    Alcotest.(check bool) "second band runs to r_max" true
      (b2.C.Border.b_hi = C.Border.Exact 1e9)
  | other -> Alcotest.failf "expected two bands, got %a" C.Border.pp_result other

let test_of_samples_skips_failed () =
  (* a failed sample between two known ones: the transition is taken
     between the KNOWN neighbours, not dropped and not fatal *)
  match
    of_samples [ (1e3, Some true); (1e4, None); (1e5, Some false) ]
  with
  | C.Border.Br e ->
    Alcotest.(check (float 0.0)) "edge brackets skip the failed point"
      (sqrt (1e3 *. 1e5)) e
  | other -> Alcotest.failf "expected Br, got %a" C.Border.pp_result other

let test_of_samples_unknown_edge () =
  (* refinement failure: the edge degrades to its bracketing samples and
     the band surfaces as Bands so the uncertainty is visible *)
  let unknown_refine r0 r1 = C.Border.Unknown { lo = r0; hi = r1 } in
  (match
     C.Border.of_samples ~refine:unknown_refine ~r_min:1e3 ~r_max:1e9
       [ (1e3, Some false); (1e4, Some true); (1e5, Some false) ]
   with
  | C.Border.Bands
      [
        {
          b_lo = C.Border.Unknown { lo = l1; hi = h1 };
          b_hi = C.Border.Unknown { lo = l2; hi = h2 };
        };
      ] ->
    Alcotest.(check (float 0.0)) "lo bracket lo" 1e3 l1;
    Alcotest.(check (float 0.0)) "lo bracket hi" 1e4 h1;
    Alcotest.(check (float 0.0)) "hi bracket lo" 1e4 l2;
    Alcotest.(check (float 0.0)) "hi bracket hi" 1e5 h2
  | other ->
    Alcotest.failf "expected one unknown-edged band, got %a" C.Border.pp_result
      other);
  Alcotest.(check (float 0.0)) "edge_mid is geometric" (sqrt (1e3 *. 1e5))
    (C.Border.edge_mid (C.Border.Unknown { lo = 1e3; hi = 1e5 }))

let test_border_codec_roundtrip () =
  let results =
    [
      C.Border.Br 1.234e5;
      C.Border.Faulty_band { lo = 3.7e3; hi = 9.81e7 };
      C.Border.Bands
        [
          { b_lo = C.Border.Exact 1e3;
            b_hi = C.Border.Unknown { lo = 2e3; hi = 5e3 } };
          { b_lo = C.Border.Exact 4.44e6; b_hi = C.Border.Exact 1e9 };
        ];
      C.Border.Always_faulty;
      C.Border.Never_faulty;
      C.Border.Unsampled;
    ]
  in
  List.iter
    (fun r ->
      let s = C.Border.encode_result r in
      match C.Border.decode_result s with
      | Some r' ->
        Alcotest.(check bool) (Printf.sprintf "roundtrip %s" s) true (r = r')
      | None -> Alcotest.failf "decode failed on %s" s)
    results;
  Alcotest.(check bool) "foreign string rejected" true
    (C.Border.decode_result "garbage 1 2 3" = None);
  Alcotest.(check bool) "empty rejected" true (C.Border.decode_result "" = None)

let test_improvement_log_decades () =
  (* regression for the linear-width fallback: band growth must be
     measured in log decades, like the BR-ratio case. 1e4..1e5 ->
     1e4..1e7 is 3x in decades; the old linear (hi - lo) ratio said
     ~111x *)
  let pol = D.High_r_fails in
  (match
     C.Border.improvement pol
       ~nominal:(C.Border.Faulty_band { lo = 1e4; hi = 1e5 })
       ~stressed:(C.Border.Faulty_band { lo = 1e4; hi = 1e7 })
   with
  | Some f -> Alcotest.(check (float 1e-9)) "3 decades / 1 decade" 3.0 f
  | None -> Alcotest.fail "expected improvement");
  (* mixed Br / band shapes are commensurable on the same axis: Br 1e5
     covers 1e5..1e11 = 6 decades, the band 1e3..1e9 also 6 decades *)
  (match
     C.Border.improvement pol ~nominal:(C.Border.Br 1e5)
       ~stressed:(C.Border.Faulty_band { lo = 1e3; hi = 1e9 })
   with
  | Some f -> Alcotest.(check (float 1e-9)) "equal coverage" 1.0 f
  | None -> Alcotest.fail "expected improvement");
  (* Unsampled behaves like Never_faulty: no comparison is honest *)
  Alcotest.(check bool) "unsampled -> none" true
    (C.Border.improvement pol ~nominal:C.Border.Unsampled
       ~stressed:(C.Border.Br 1e5)
    = None);
  (* multi-band coverage sums the decades of every band *)
  let two_bands =
    C.Border.Bands
      [
        { b_lo = C.Border.Exact 1e3; b_hi = C.Border.Exact 1e4 };
        { b_lo = C.Border.Exact 1e6; b_hi = C.Border.Exact 1e8 };
      ]
  in
  Alcotest.(check (float 1e-9)) "1 + 2 decades" 3.0
    (C.Border.coverage_width pol two_bands)

(* ------------------------------------------------------------------ *)
(* Planes                                                              *)
(* ------------------------------------------------------------------ *)

let small_rops = Dramstress_util.Grid.logspace 1e3 1e6 6

let test_vmp_reasonable () =
  let v = C.Plane.vmp ~stress:nominal () in
  Alcotest.(check bool) (Printf.sprintf "vmp %.2f" v) true (v > 0.5 && v < 1.9)

let test_vsa_declines_with_r () =
  let vsa r =
    C.Plane.vsa ~stress:nominal ~defect:(D.v open_kind D.True_bl r) ()
  in
  match (vsa 1e3, vsa 300e3) with
  | C.Plane.Vsa low_r, C.Plane.Vsa high_r ->
    Alcotest.(check bool)
      (Printf.sprintf "%.2f -> %.2f" low_r high_r)
      true (high_r < low_r)
  | C.Plane.Vsa _, C.Plane.Reads_all_1 -> ()  (* collapsed: also declining *)
  | _ -> Alcotest.fail "unexpected saturation at low R"

let test_vsa_collapses_to_all_1 () =
  (* the paper's footnote: at large opens a stored 0 cannot pull the
     precharged bit line down, everything reads 1 *)
  match
    C.Plane.vsa ~stress:nominal ~defect:(D.v open_kind D.True_bl 1e8) ()
  with
  | C.Plane.Reads_all_1 -> ()
  | other ->
    Alcotest.failf "expected Reads_all_1, got %s"
      (match other with
      | C.Plane.Vsa v -> Printf.sprintf "Vsa %.2f" v
      | C.Plane.Reads_all_0 -> "Reads_all_0"
      | C.Plane.Reads_all_1 -> assert false)

let test_write_plane_structure () =
  let plane =
    C.Plane.write_plane ~n_ops:3 ~rops:small_rops ~stress:nominal
      ~kind:open_kind ~placement:D.True_bl ~op:O.W0 ()
  in
  Alcotest.(check int) "three curves" 3 (List.length plane.C.Plane.curves);
  List.iter
    (fun (c : C.Plane.curve) ->
      Alcotest.(check int) "one point per R" (List.length small_rops)
        (List.length c.C.Plane.points))
    plane.C.Plane.curves;
  (* successive w0 curves must be monotone: each op discharges further *)
  match plane.C.Plane.curves with
  | first :: second :: _ ->
    List.iter2
      (fun (p1 : C.Plane.point) (p2 : C.Plane.point) ->
        Alcotest.(check bool) "second w0 lower" true
          (p2.C.Plane.vc <= p1.C.Plane.vc +. 1e-3))
      first.C.Plane.points second.C.Plane.points
  | _ -> Alcotest.fail "missing curves"

let test_write_plane_rejects_read () =
  Alcotest.check_raises "read op"
    (Invalid_argument "Plane.write_plane: op must be a write") (fun () ->
      ignore
        (C.Plane.write_plane ~stress:nominal ~kind:open_kind
           ~placement:D.True_bl ~op:O.R ()))

let test_br_geometric_matches_search () =
  let plane =
    C.Plane.write_plane ~n_ops:2
      ~rops:(Dramstress_util.Grid.logspace 3e4 2e6 10)
      ~stress:nominal ~kind:open_kind ~placement:D.True_bl ~op:O.W0 ()
  in
  match C.Plane.br_geometric plane with
  | Some br_geo ->
    let cond = C.Detection.standard ~victim:0 ~primes:2 in
    (match
       C.Border.search ~window:window_1e8 ~stress:nominal ~kind:open_kind
         ~placement:D.True_bl cond
     with
    | C.Border.Br br_search ->
      Alcotest.(check bool)
        (Printf.sprintf "geometric %.0fk vs search %.0fk" (br_geo /. 1e3)
           (br_search /. 1e3))
        true
        (br_geo /. br_search < 3.0 && br_search /. br_geo < 3.0)
    | _ -> Alcotest.fail "search found no boundary")
  | None -> Alcotest.fail "no geometric intersection"

let test_read_plane_structure () =
  let plane =
    C.Plane.read_plane ~n_ops:2 ~rops:small_rops ~stress:nominal
      ~kind:open_kind ~placement:D.True_bl ()
  in
  (* two seeds x two ops *)
  Alcotest.(check int) "four curves" 4 (List.length plane.C.Plane.curves)

let test_plane_survives_injected_failure () =
  (* the acceptance shape of the resilience tentpole: one point that can
     never be simulated (negative resistance -> Defect.v raises) must
     leave exactly one [Failed] slot and a plane built from the rest *)
  let bad_r = -1.0 in
  let rops = [ 1e3; bad_r; 1e5; 1e6 ] in
  let plane =
    C.Plane.write_plane ~config:(Dramstress_dram.Sim_config.v ~jobs:1 ())
      ~n_ops:2 ~rops ~stress:nominal ~kind:open_kind ~placement:D.True_bl
      ~op:Dramstress_dram.Ops.W0 ()
  in
  let module Out = Dramstress_util.Outcome in
  (match plane.C.Plane.failures with
  | [ f ] ->
    Alcotest.(check (float 0.0)) "failed point recorded" bad_r f.Out.point;
    Alcotest.(check int) "no retries for a non-solver error" 0 f.Out.retries;
    (match f.Out.error with
    | Invalid_argument _ -> ()
    | e -> Alcotest.failf "unexpected error %s" (Printexc.to_string e))
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs));
  Alcotest.(check (list (float 0.0))) "survivors in order" [ 1e3; 1e5; 1e6 ]
    plane.C.Plane.rops;
  List.iter
    (fun (c : C.Plane.curve) ->
      Alcotest.(check int) "curves skip the failed point" 3
        (List.length c.C.Plane.points))
    plane.C.Plane.curves;
  Alcotest.(check int) "vsa curve too" 3 (List.length plane.C.Plane.vsa_curve)

let test_plane_all_points_failed_renders () =
  (* regression: a campaign whose every point times out must still
     render and report. The shared defect-free V_mp probe is exempt
     from the per-point deadline, and the geometric BR degrades to "no
     crossing" instead of crashing on empty curves. *)
  let module Sc = Dramstress_dram.Sim_config in
  let config = Sc.v ~jobs:1 ~retry:Sc.no_retry ~deadline:1e-9 () in
  let rops = [ 1e3; 1e5; 1e6 ] in
  let rendered, failures =
    C.Report.figure2_with_failures ~config ~rops ~stress:nominal
      ~kind:open_kind ~placement:D.True_bl ()
  in
  Alcotest.(check int) "every point of all three planes failed"
    (3 * List.length rops)
    (List.length failures);
  List.iter
    (fun f ->
      match f.Dramstress_util.Outcome.error with
      | Dramstress_engine.Newton.Timeout _ -> ()
      | e ->
        Alcotest.failf "expected a timeout failure, got %s"
          (Printexc.to_string e))
    failures;
  let contains sub =
    let n = String.length rendered and m = String.length sub in
    let rec go i = i + m <= n && (String.sub rendered i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "failed points are listed, not hidden" true
    (contains "point(s) failed");
  Alcotest.(check bool) "BR degrades to no-crossing" true
    (contains "no crossing")

let test_plane_checkpoint_resume_identical () =
  let path = Filename.temp_file "dramstress_plane" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let module Ck = Dramstress_util.Checkpoint in
      let sweep ?checkpoint () =
        C.Plane.write_plane ~config:(Dramstress_dram.Sim_config.v ~jobs:1 ())
          ~n_ops:2 ~rops:small_rops ?checkpoint ~stress:nominal ~kind:open_kind
          ~placement:D.True_bl ~op:Dramstress_dram.Ops.W0 ()
      in
      let reference = sweep () in
      let ck = Ck.open_ path in
      let full = sweep ~checkpoint:ck () in
      Ck.close ck;
      Alcotest.(check bool) "checkpointed run matches plain run" true
        (full = reference);
      (* simulate a mid-sweep kill: keep only half the records *)
      let lines =
        let ic = open_in path in
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file ->
            close_in ic;
            List.rev acc
        in
        go []
      in
      Alcotest.(check int) "one record per point" (List.length small_rops)
        (List.length lines);
      let keep = List.filteri (fun i _ -> i < 3) lines in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) keep;
      close_out oc;
      (* resume: recomputes the dropped tail, serves the kept head *)
      let ck = Ck.open_ path in
      Alcotest.(check int) "partial store" 3 (Ck.entries ck);
      let resumed = sweep ~checkpoint:ck () in
      Ck.close ck;
      Alcotest.(check bool) "resumed plane identical to uninterrupted" true
        (resumed = reference);
      let ck = Ck.open_ path in
      Alcotest.(check int) "store complete again" (List.length small_rops)
        (Ck.entries ck);
      Ck.close ck)

(* a campaign store is the one place a CLI sweep persists to; these
   pin that a bare record file migrates into one by a copy, and that
   the same sweep resumes through a sharded store *)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let with_tmp_dir f =
  let dir = Filename.temp_dir "dramstress_store" "" in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

let plane_config = Dramstress_dram.Sim_config.v ~jobs:1 ()

let plane_sweep ?checkpoint () =
  C.Plane.write_plane ~config:plane_config ~n_ops:2 ~rops:small_rops
    ?checkpoint ~stress:nominal ~kind:open_kind ~placement:D.True_bl
    ~op:O.W0 ()

(* the sweep through [dir]'s store, as [dramstress plane --store dir]
   routes it, with the simulations its points spent from a cold cache
   (the plane's V_mp bisection is not a sweep point and is warmed
   first) *)
let plane_sweep_in_store dir =
  let module St = Dramstress_util.Store in
  O.clear_cache ();
  ignore (C.Plane.vmp ~config:plane_config ~stress:nominal ());
  let before = O.simulations () in
  let st = St.open_ ~name:"plane" dir in
  let plane =
    Fun.protect ~finally:(fun () -> St.close st) (fun () ->
        plane_sweep ~checkpoint:(St.checkpoint_for st ~key:"plane") ())
  in
  (plane, O.simulations () - before)

let test_plane_checkpoint_file_migrates_to_store () =
  let module Ck = Dramstress_util.Checkpoint in
  with_tmp_dir @@ fun tmp ->
  let old_file = Filename.concat tmp "plane_ck.jsonl" in
  let ck = Ck.open_ old_file in
  let recorded = plane_sweep ~checkpoint:ck () in
  Ck.close ck;
  let dir = Filename.concat tmp "store" in
  Sys.mkdir dir 0o755;
  write_lines (Filename.concat dir "records.jsonl") (read_lines old_file);
  let replayed, sims = plane_sweep_in_store dir in
  Alcotest.(check int) "zero new simulations" 0 sims;
  Alcotest.(check bool) "replayed plane identical" true (replayed = recorded)

let test_plane_sharded_store_resume () =
  with_tmp_dir @@ fun dir ->
  let module St = Dramstress_util.Store in
  St.close (St.open_ ~shards:4 ~name:"plane" dir);
  let cold, cold_sims = plane_sweep_in_store dir in
  let shard_files =
    let root = Filename.concat dir "shards" in
    Sys.readdir root |> Array.to_list
    |> List.map (fun sh ->
           Filename.concat (Filename.concat root sh) "records.jsonl")
    |> List.filter Sys.file_exists
  in
  (* every record routes through the one handle "plane" names *)
  let file =
    match shard_files with
    | [ f ] -> f
    | fs -> Alcotest.failf "expected one shard file, found %d" (List.length fs)
  in
  let lines = read_lines file in
  Alcotest.(check int) "one record per point" (List.length small_rops)
    (List.length lines);
  write_lines file (List.filteri (fun i _ -> 2 * i < List.length lines) lines);
  let resumed, resumed_sims = plane_sweep_in_store dir in
  Alcotest.(check bool) "resumed plane identical" true (resumed = cold);
  Alcotest.(check bool)
    (Printf.sprintf "only the cut half re-simulated: 0 < %d < %d" resumed_sims
       cold_sims)
    true
    (resumed_sims > 0 && resumed_sims < cold_sims);
  Alcotest.(check int) "store complete again" (List.length small_rops)
    (List.length (read_lines file))

(* ------------------------------------------------------------------ *)
(* Stressor                                                            *)
(* ------------------------------------------------------------------ *)

let detection_for kind placement =
  C.Detection.standard ~victim:(D.logical_victim kind placement) ~primes:2

let test_probe_cycle_time () =
  let p =
    C.Stressor.probe_axis ~stress:nominal ~kind:open_kind
      ~placement:D.True_bl
      ~detection:(detection_for open_kind D.True_bl)
      S.Cycle_time [ 55e-9; 60e-9 ]
  in
  (* shorter cycle leaves a larger residual: the metric falls with the
     axis, so the stressful direction is "decrease" *)
  Alcotest.(check bool) "verdict decrease" true
    (p.C.Stressor.verdict = C.Stressor.Decrease);
  Alcotest.(check bool) "write direction decrease" true
    (p.C.Stressor.write_direction = C.Stressor.Decrease)

let test_probe_vdd_resolves_by_br () =
  let p =
    C.Stressor.probe_axis ~stress:nominal ~kind:open_kind
      ~placement:D.True_bl
      ~detection:(detection_for open_kind D.True_bl)
      S.Supply_voltage [ 2.1; 2.4; 2.7 ]
  in
  (* the paper's conflict: the write wants Vdd up, the read wants it
     down; the verdict must come from a BR comparison *)
  Alcotest.(check bool) "conflicting probes" true
    (p.C.Stressor.write_direction = C.Stressor.Increase);
  Alcotest.(check bool) "resolved via BR" true
    (p.C.Stressor.br_at_extremes <> [])

let test_probe_validation () =
  Alcotest.check_raises "one value"
    (Invalid_argument "Stressor.probe_axis: need at least two values")
    (fun () ->
      ignore
        (C.Stressor.probe_axis ~stress:nominal ~kind:open_kind
           ~placement:D.True_bl
           ~detection:(detection_for open_kind D.True_bl)
           S.Cycle_time [ 60e-9 ]))

let test_apply_verdict () =
  let p =
    C.Stressor.probe_axis ~stress:nominal ~kind:open_kind
      ~placement:D.True_bl
      ~detection:(detection_for open_kind D.True_bl)
      S.Cycle_time [ 55e-9; 60e-9 ]
  in
  let sc = C.Stressor.apply_verdict p ~stress:nominal in
  Alcotest.(check (float 1e-12)) "tcyc nudged down" 55e-9 sc.S.tcyc

let test_default_values () =
  (match C.Stressor.default_values S.Temperature ~stress:nominal with
  | [ a; b; c ] ->
    Alcotest.(check (float 1e-9)) "-33" (-33.0) a;
    Alcotest.(check (float 1e-9)) "27" 27.0 b;
    Alcotest.(check (float 1e-9)) "87" 87.0 c
  | _ -> Alcotest.fail "temperature candidates");
  match C.Stressor.default_values S.Cycle_time ~stress:nominal with
  | [ a; b ] ->
    Alcotest.(check (float 1e-12)) "55 ns" 55e-9 a;
    Alcotest.(check (float 1e-12)) "60 ns" 60e-9 b
  | _ -> Alcotest.fail "tcyc candidates"

(* ------------------------------------------------------------------ *)
(* SC evaluation + Table 1                                             *)
(* ------------------------------------------------------------------ *)

let test_sc_eval_open () =
  let e =
    C.Sc_eval.evaluate ~nominal ~kind:open_kind ~placement:D.True_bl ()
  in
  (match (e.C.Sc_eval.nominal_br, e.C.Sc_eval.stressed_br) with
  | C.Border.Br nom, C.Border.Br str ->
    Alcotest.(check bool)
      (Printf.sprintf "stressed %.0fk < nominal %.0fk" (str /. 1e3)
         (nom /. 1e3))
      true (str < nom)
  | _ -> Alcotest.fail "expected boundaries");
  (match e.C.Sc_eval.improvement with
  | Some f -> Alcotest.(check bool) "coverage grew" true (f > 1.2)
  | None -> Alcotest.fail "expected improvement");
  (* the stressed SC must include the shorter cycle *)
  Alcotest.(check bool) "tcyc reduced" true
    (e.C.Sc_eval.stressed.S.tcyc < nominal.S.tcyc)

let test_sc_eval_short_uses_retention () =
  let e =
    C.Sc_eval.evaluate ~nominal ~kind:D.Short_to_gnd ~placement:D.True_bl ()
  in
  let has_pause cond =
    List.exists
      (function C.Detection.Wait _ -> true | _ -> false)
      cond.C.Detection.steps
  in
  Alcotest.(check bool) "nominal pause-free" false
    (has_pause e.C.Sc_eval.nominal_detection);
  Alcotest.(check bool) "stressed uses retention" true
    (has_pause e.C.Sc_eval.stressed_detection);
  match e.C.Sc_eval.improvement with
  | Some f ->
    Alcotest.(check bool)
      (Printf.sprintf "orders of magnitude (%.0fx)" f)
      true (f > 100.0)
  | None -> Alcotest.fail "expected improvement"

let test_candidate_detections_placement () =
  let conds =
    C.Sc_eval.candidate_detections ~allow_pause:false ~placement:D.Comp_bl
      open_kind
  in
  (* comp placement: victims invert, so the victim write is w1 *)
  List.iter
    (fun (c : C.Detection.t) ->
      let has_r1 =
        List.exists (function C.Detection.Read 1 -> true | _ -> false)
          c.C.Detection.steps
      in
      Alcotest.(check bool) "reads expect 1" true has_r1)
    conds

let test_exhaustive_small_grid () =
  let detection = C.Detection.standard ~victim:0 ~primes:2 in
  let requests () = Dramstress_dram.Ops.(Cache.stats Cache.default).requests in
  let before = requests () in
  let result =
    C.Exhaustive.optimize ~tcyc_values:[ 55e-9; 60e-9 ] ~temp_values:[ 27.0 ]
      ~vdd_values:[ 2.4 ] ~nominal ~kind:open_kind ~placement:D.True_bl
      detection
  in
  Alcotest.(check int) "grid size" 2 result.C.Exhaustive.grid_size;
  Alcotest.(check int) "ranking size" 2
    (List.length result.C.Exhaustive.ranking);
  Alcotest.(check bool) "simulations counted" true
    (result.C.Exhaustive.simulations > 0
    && requests () - before >= result.C.Exhaustive.simulations);
  (* the shorter cycle must win for an open *)
  Alcotest.(check (float 1e-12)) "best tcyc" 55e-9
    result.C.Exhaustive.best.S.tcyc;
  match result.C.Exhaustive.best_br with
  | C.Border.Br r -> Alcotest.(check bool) "finite BR" true (r > 1e4)
  | _ -> Alcotest.fail "expected a boundary"

let test_run_counter () =
  let requests () = Dramstress_dram.Ops.(Cache.stats Cache.default).requests in
  let before = requests () in
  ignore (Dramstress_dram.Ops.run ~stress:nominal [ Dramstress_dram.Ops.W0 ]);
  ignore (Dramstress_dram.Ops.run ~stress:nominal [ Dramstress_dram.Ops.R ]);
  Alcotest.(check int) "two runs" 2 (requests () - before)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let test_report_figure2 () =
  let out =
    C.Report.figure2
      ~rops:(Dramstress_util.Grid.logspace 1e4 1e6 5)
      ~stress:nominal ~kind:open_kind ~placement:D.True_bl ()
  in
  Alcotest.(check bool) "w0 panel" true (contains out "(a) Plane of w0");
  Alcotest.(check bool) "w1 panel" true (contains out "(b) Plane of w1");
  Alcotest.(check bool) "r panel" true (contains out "(c) Plane of r");
  Alcotest.(check bool) "vsa legend" true (contains out "[S] Vsa");
  Alcotest.(check bool) "geometric BR line" true (contains out "geometric BR")

let test_report_panels () =
  let out =
    C.Report.figure_st_panels ~stress:nominal ~axis:S.Cycle_time
      ~values:[ 55e-9; 60e-9 ] ~kind:open_kind ~placement:D.True_bl ()
  in
  Alcotest.(check bool) "write panel" true (contains out "Vc during a w0");
  Alcotest.(check bool) "read panel" true (contains out "marginal cell");
  Alcotest.(check bool) "legend per value" true (contains out "t_cyc=5.5e-08")

let test_plane_csv () =
  let plane =
    C.Plane.write_plane ~n_ops:2 ~rops:small_rops ~stress:nominal
      ~kind:open_kind ~placement:D.True_bl ~op:O.W0 ()
  in
  let csv = C.Report.plane_csv plane in
  Alcotest.(check bool) "header" true (contains csv "r_ohm");
  Alcotest.(check bool) "vsa column" true (contains csv "vsa");
  (* one data row per resistance plus the header *)
  let lines =
    String.split_on_char '\n' (String.trim csv) |> List.length
  in
  Alcotest.(check int) "rows" (1 + List.length small_rops) lines

let test_table1_probes_honour_config () =
  (* the stress probes run under the caller's config, like the border
     searches: under a deadline no simulation can meet, every border
     sample is skipped (a [Timeout] is a skipped sample there), so the
     row can only fail in the probe phase, on the probe's own timeout *)
  O.clear_cache ();
  let entries =
    List.filter (fun (e : D.entry) -> e.D.id = "O1") D.catalog
  in
  let table =
    C.Table1.generate
      ~config:(Dramstress_dram.Sim_config.v ~deadline:1e-9 ())
      ~entries ~placements:[ D.True_bl ] ~axes:[ S.Cycle_time ] ()
  in
  Alcotest.(check int) "no row" 0 (List.length table.C.Table1.rows);
  match table.C.Table1.failures with
  | [ { Dramstress_util.Outcome.error = Dramstress_engine.Newton.Timeout _;
        _ } ] ->
    ()
  | fs ->
    Alcotest.failf "expected one Timeout failure, got %d failure(s)"
      (List.length fs)

let test_table1_quick () =
  let entries =
    List.filter (fun (e : D.entry) -> e.D.id = "O1") D.catalog
  in
  let table = C.Table1.generate ~entries ~placements:[ D.True_bl ] () in
  Alcotest.(check int) "one row" 1 (List.length table.C.Table1.rows);
  let text = C.Table1.render table in
  let csv = C.Table1.to_csv table in
  Alcotest.(check bool) "render has header" true
    (String.length text > 100);
  Alcotest.(check bool) "csv header" true
    (String.length csv > 50 && String.sub csv 0 6 = "defect")

(* ------------------------------------------------------------------ *)
(* Lane parity: sweeps at ensemble width 8 against width 1             *)
(* ------------------------------------------------------------------ *)

let test_lane_sweeps_match_one_lane () =
  (* with memoization off so both configurations really simulate, a
     border search and a write plane must come out identical whether
     every point runs as its own one-lane ensemble (lanes = 1) or as a
     lane of an 8-lane ensemble *)
  let module Sc = Dramstress_dram.Sim_config in
  let one_lane = Sc.v ~jobs:1 ~lanes:1 () in
  let batched = Sc.v ~jobs:1 ~lanes:8 () in
  O.Cache.set_enabled O.Cache.default false;
  Fun.protect ~finally:(fun () -> O.Cache.set_enabled O.Cache.default true)
  @@ fun () ->
  let cond = C.Detection.standard ~victim:0 ~primes:2 in
  let br config =
    C.Border.search ~config ~window:window_1e8 ~stress:nominal ~kind:open_kind
      ~placement:D.True_bl cond
  in
  Alcotest.(check bool) "border search identical" true
    (C.Border.equal_result (br one_lane) (br batched));
  let plane config =
    C.Plane.write_plane ~config ~n_ops:2
      ~rops:[ 1e4; 1e5; 1e6; 1e7 ] ~stress:nominal ~kind:D.Short_to_gnd
      ~placement:D.True_bl ~op:O.W0 ()
  in
  let ps = plane one_lane and pb = plane batched in
  (* the shared-ensemble LU uses one pivot order for the whole batch
     while each one-lane point factors with its own, so voltages agree
     to rounding (1e-9), not bit-exactly; the grid itself is exact *)
  Alcotest.(check (float 1e-9)) "vmp matches" ps.C.Plane.vmp pb.C.Plane.vmp;
  Alcotest.(check (list (float 0.0)))
    "surviving resistances identical" ps.C.Plane.rops pb.C.Plane.rops;
  List.iter2
    (fun (cs : C.Plane.curve) (cb : C.Plane.curve) ->
      Alcotest.(check string) "curve label" cs.C.Plane.label cb.C.Plane.label;
      List.iter2
        (fun (p : C.Plane.point) (q : C.Plane.point) ->
          Alcotest.(check (float 0.0)) "point r" p.C.Plane.r q.C.Plane.r;
          Alcotest.(check (float 1e-9)) "point vc" p.C.Plane.vc q.C.Plane.vc)
        cs.C.Plane.points cb.C.Plane.points)
    ps.C.Plane.curves pb.C.Plane.curves

(* ------------------------------------------------------------------ *)
(* Adaptive border search                                               *)
(* ------------------------------------------------------------------ *)

let coarse = C.Border.Window.coarse_points

(* drive [adaptive_scan] over a synthetic boolean curve; indices listed
   in [fail] probe as unsimulatable *)
let scan_curve ?(fail = []) ?(seeds = []) curve =
  let n = Array.length curve in
  C.Border.adaptive_scan ~n ~coarse ~seeds (fun idxs ->
      List.map
        (fun i -> (i, if List.mem i fail then None else Some curve.(i)))
        idxs)

(* classify sampled indices through [of_samples] on a synthetic grid;
   the pure refine means equal bracket pairs give equal results — the
   same argument that makes the electrical strategies bit-identical *)
let classify n samples =
  let r_of i = float_of_int (i + 1) in
  C.Border.of_samples
    ~refine:(fun r0 r1 -> C.Border.Exact (sqrt (r0 *. r1)))
    ~r_min:(r_of 0) ~r_max:(r_of (n - 1))
    (List.map (fun (i, v) -> (r_of i, v)) samples)

let grid_samples curve =
  List.init (Array.length curve) (fun i -> (i, Some curve.(i)))

(* the provable curve class: at most one detection transition per
   skeleton interval — every maximal run of equal values touches a
   skeleton index. Includes non-monotone multi-band curves (up to one
   flip per gap = up to two interior bands). On this class adaptive
   equals grid EXACTLY, whatever extra seeds are mixed in. *)
let provable_curve_gen =
  let open QCheck.Gen in
  let seq gens =
    List.fold_right
      (fun g acc -> g >>= fun x -> acc >>= fun xs -> return (x :: xs))
      gens (return [])
  in
  int_range coarse 64 >>= fun n ->
  bool >>= fun init ->
  let skeleton = List.init coarse (fun k -> k * (n - 1) / (coarse - 1)) in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  let gap_gen (a, b) =
    if b <= a + 1 then return None
    else
      frequency
        [ (1, return None); (2, map Option.some (int_range (a + 1) b)) ]
  in
  seq (List.map gap_gen (pairs skeleton)) >>= fun flips ->
  let flips = List.filter_map Fun.id flips in
  return
    (Array.init n (fun i ->
         let crossed = List.length (List.filter (fun t -> t <= i) flips) in
         if crossed mod 2 = 0 then init else not init))

let test_adaptive_scan_parity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"adaptive == grid on the provable class, under any seeds"
       (QCheck.make
          QCheck.Gen.(
            pair provable_curve_gen (small_list (int_range (-3) 80))))
       (fun (curve, seeds) ->
         let n = Array.length curve in
         let adaptive = classify n (scan_curve ~seeds curve) in
         let grid = classify n (grid_samples curve) in
         C.Border.equal_result adaptive grid))

let test_adaptive_scan_probes_sparse_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"adaptive probes strictly fewer points on featureless curves"
       (QCheck.make (QCheck.Gen.int_range 16 64))
       (fun n ->
         (* a flat curve needs the skeleton only *)
         let curve = Array.make n false in
         List.length (scan_curve curve) = coarse))

let test_adaptive_scan_escalates_on_failure () =
  (* one lost probe makes the sparse skip pattern untrustworthy: the
     scan must fall back to the full grid so failure-path semantics
     (skipped samples, Unknown edges) match the oracle exactly *)
  let curve = Array.init 33 (fun i -> i >= 20) in
  let sampled = scan_curve ~fail:[ 8 ] curve in
  Alcotest.(check int) "all indices probed" 33 (List.length sampled);
  Alcotest.(check bool) "failed index is None" true
    (List.assoc 8 sampled = None);
  Alcotest.(check bool) "classification matches oracle with same failure"
    true
    (C.Border.equal_result
       (classify 33 sampled)
       (classify 33
          (List.init 33 (fun i ->
               (i, if i = 8 then None else Some curve.(i))))))

let test_adaptive_scan_seeds_reveal_narrow_band () =
  (* the documented caveat, pinned: a band narrower than the skeleton
     spacing hides from a cold adaptive scan (grid stays the oracle),
     but a warm-start seed inside it restores full grid parity *)
  let n = 17 in
  let curve = Array.init n (fun i -> i = 6) in
  let cold = classify n (scan_curve curve) in
  let seeded = classify n (scan_curve ~seeds:[ 6 ] curve) in
  let grid = classify n (grid_samples curve) in
  Alcotest.(check bool) "cold adaptive misses the hidden band" true
    (C.Border.equal_result cold C.Border.Never_faulty);
  Alcotest.(check bool) "seeded adaptive equals grid" true
    (C.Border.equal_result seeded grid)

(* capped at 1e8: beyond ~4e8 the solver legitimately fails on opens,
   and a failed skeleton probe escalates the adaptive scan to the full
   grid (parity still holds, but the sparseness assertions would be
   vacuous) *)
let parity_window strategy =
  C.Border.Window.v ~r_min:1e3 ~r_max:1e8 ~grid_points:9 ~rel_tol:0.05
    ~strategy ()

let test_border_adaptive_matches_grid_catalog () =
  (* every defect class and placement in the catalog must report the
     same border under both strategies — the electrical face of the
     parity property *)
  List.iter
    (fun (entry : D.entry) ->
      List.iter
        (fun placement ->
          let cond =
            C.Detection.standard
              ~victim:(D.logical_victim entry.D.kind placement) ~primes:2
          in
          let br strategy =
            C.Border.search
              ~window:(parity_window strategy)
              ~stress:nominal ~kind:entry.D.kind ~placement cond
          in
          let g = br C.Border.Window.Grid in
          let a = br C.Border.Window.Adaptive in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: %s == %s" entry.D.id
               (Format.asprintf "%a" D.pp_placement placement)
               (Format.asprintf "%a" C.Border.pp_result g)
               (Format.asprintf "%a" C.Border.pp_result a))
            true (C.Border.equal_result g a))
        [ D.True_bl; D.Comp_bl ])
    D.catalog;
  (* the banded case too: B2 retention at the hot corner yields an
     interior band under grid mode; adaptive must agree exactly *)
  let cond = C.Detection.retention ~victim:0 ~pause:1e-3 in
  let br strategy =
    C.Border.search
      ~window:
        (C.Border.Window.v ~r_min:1e3 ~r_max:1e11 ~grid_points:13
           ~rel_tol:0.05 ~strategy ())
      ~stress:(S.with_temp_c nominal 87.0)
      ~kind:D.Bridge_to_neighbour ~placement:D.True_bl cond
  in
  let g = br C.Border.Window.Grid in
  Alcotest.(check bool) "banded result and parity" true
    ((match g with C.Border.Faulty_band _ -> true | _ -> false)
    && C.Border.equal_result g (br C.Border.Window.Adaptive))

let test_border_hint_invariance () =
  (* warm-start hints add probes, never change the answer: a good hint,
     a wrong hint and an out-of-window hint all report the cold result *)
  let cond = C.Detection.standard ~victim:0 ~primes:2 in
  let br hint =
    C.Border.search
      ~window:(parity_window C.Border.Window.Adaptive)
      ~hint ~stress:nominal ~kind:open_kind ~placement:D.True_bl cond
  in
  let cold = br [] in
  List.iter
    (fun hint ->
      Alcotest.(check bool) "hinted equals cold" true
        (C.Border.equal_result cold (br hint)))
    [ [ 2e5 ]; [ 1e8 ]; [ 1e-2 ]; [ 2e5; 1e7 ] ]

let test_border_adaptive_simulates_fewer () =
  (* the point of the strategy: on a dense window the adaptive scan
     must take well under half the grid's probes (the bench tripwire
     enforces the full >=5x claim on the campaign scale) *)
  let module Tel = Dramstress_util.Telemetry in
  let c_probes = Tel.Counter.make "core.border.probes" in
  Tel.set_enabled true;
  Fun.protect ~finally:(fun () -> Tel.set_enabled false) @@ fun () ->
  O.Cache.set_enabled O.Cache.default false;
  Fun.protect ~finally:(fun () -> O.Cache.set_enabled O.Cache.default true) @@ fun () ->
  let cond = C.Detection.standard ~victim:0 ~primes:2 in
  let probes strategy =
    let before = Tel.Counter.value c_probes in
    ignore
      (C.Border.search
         ~window:
           (C.Border.Window.v ~r_min:1e3 ~r_max:1e8 ~grid_points:33
              ~rel_tol:0.05 ~strategy ())
         ~stress:nominal ~kind:open_kind ~placement:D.True_bl cond);
    Tel.Counter.value c_probes - before
  in
  let g = probes C.Border.Window.Grid in
  let a = probes C.Border.Window.Adaptive in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %d probes < half of grid %d" a g)
    true
    (a > 0 && 2 * a < g)

let test_border_adaptive_checkpoint_resume () =
  (* kill mid-refinement: drop the whole-result record and the last
     edge record, resume, and assert the result is identical while only
     the unfinished bracket re-simulates *)
  let module Tel = Dramstress_util.Telemetry in
  let module Ck = Dramstress_util.Checkpoint in
  let c_probes = Tel.Counter.make "core.border.probes" in
  let path = Filename.temp_file "dramstress_adaptive" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Tel.set_enabled true;
      Fun.protect ~finally:(fun () -> Tel.set_enabled false) @@ fun () ->
      let cond = C.Detection.standard ~victim:0 ~primes:2 in
      let search checkpoint =
        let before = Tel.Counter.value c_probes in
        let r =
          C.Border.search ?checkpoint
            ~window:
              (C.Border.Window.v ~r_min:1e3 ~r_max:1e8 ~grid_points:17
                 ~rel_tol:0.05 ~strategy:C.Border.Window.Adaptive ())
            ~stress:nominal ~kind:open_kind ~placement:D.True_bl cond
        in
        (r, Tel.Counter.value c_probes - before)
      in
      let ck = Ck.open_ path in
      let cold, cold_probes = search (Some ck) in
      Ck.close ck;
      let lines =
        let ic = open_in path in
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file ->
            close_in ic;
            List.rev acc
        in
        go []
      in
      Alcotest.(check bool) "cold run wrote probe + edge + result records"
        true
        (List.length lines > 3);
      let keep = List.filteri (fun i _ -> i < List.length lines - 2) lines in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) keep;
      close_out oc;
      let ck = Ck.open_ path in
      let resumed, resumed_probes = search (Some ck) in
      Ck.close ck;
      Alcotest.(check bool) "resumed result identical" true
        (C.Border.equal_result cold resumed);
      Alcotest.(check bool)
        (Printf.sprintf "resume re-simulated only the lost bracket: %d < %d"
           resumed_probes cold_probes)
        true
        (resumed_probes > 0 && resumed_probes < cold_probes);
      (* a third run replays the completed whole-result record: free *)
      let ck = Ck.open_ path in
      let replayed, replay_probes = search (Some ck) in
      Ck.close ck;
      Alcotest.(check bool) "warm replay is free and identical" true
        (C.Border.equal_result cold replayed && replay_probes = 0))

let test_window_smart_constructors () =
  let module W = C.Border.Window in
  Alcotest.check_raises "r_min >= r_max rejected"
    (Invalid_argument "Border.Window.v: need 0 < r_min < r_max") (fun () ->
      ignore (W.v ~r_min:1e6 ~r_max:1e3 ()));
  Alcotest.check_raises "grid_points < 2 rejected"
    (Invalid_argument "Border.Window.v: grid_points < 2") (fun () ->
      ignore (W.v ~grid_points:1 ()));
  Alcotest.check_raises "rel_tol <= 0 rejected"
    (Invalid_argument "Border.Window.v: rel_tol <= 0") (fun () ->
      ignore (W.v ~rel_tol:0.0 ()));
  (* fingerprint: provably-grid adaptive windows share the grid address *)
  let g = W.v ~grid_points:5 () in
  let a5 = W.v ~grid_points:5 ~strategy:W.Adaptive () in
  let a13 = W.v ~strategy:W.Adaptive () in
  Alcotest.(check string) "coarse adaptive == grid fingerprint"
    (W.fingerprint g) (W.fingerprint a5);
  Alcotest.(check bool) "fine adaptive addresses separately" true
    (W.fingerprint a13 <> W.fingerprint (W.v ()));
  Alcotest.(check bool) "strategy names round-trip" true
    (W.strategy_of_name (W.strategy_name W.Adaptive) = Some W.Adaptive
    && W.strategy_of_name (W.strategy_name W.Grid) = Some W.Grid
    && W.strategy_of_name "bogus" = None)

let test_improvement_uses_window_tolerance () =
  (* mixed shapes whose nominal coverage is narrower than the window
     tolerance are refinement noise under the default 1%% but real
     signal under a tight window *)
  let nominal_br = C.Border.Faulty_band { lo = 1e6; hi = 1.005e6 } in
  let stressed = C.Border.Always_faulty in
  let pol = D.High_r_fails in
  Alcotest.(check bool) "noise under the default tolerance" true
    (C.Border.improvement pol ~nominal:nominal_br ~stressed = None);
  let tight = C.Border.Window.v ~rel_tol:1e-4 () in
  Alcotest.(check bool) "signal under a tight window" true
    (match C.Border.improvement ~window:tight pol ~nominal:nominal_br ~stressed with
    | Some f -> f > 1.0
    | None -> false)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "dramstress_core"
    [
      ( "detection",
        [
          tc "standard shape" test_detection_standard_shape;
          tc "validation" test_detection_validation;
          tc "of_string table" test_detection_of_string;
          tc "lowering to ops" test_detection_lowering;
          tc "initial voltage per placement" test_detection_initial_vc;
          tc "detects an open" test_detects_open;
        ] );
      ( "border",
        [
          tc "open BR in paper regime" test_border_open;
          tc "true/comp symmetry" test_border_true_comp_symmetry;
          slow "neighbour bridge band" test_border_band_for_neighbour_bridge;
          tc "result helpers" test_border_helpers;
          tc "of_samples single edges" test_of_samples_single_edges;
          tc "of_samples interior band" test_of_samples_interior_band;
          tc "of_samples two bands" test_of_samples_two_bands;
          tc "of_samples skips failed samples" test_of_samples_skips_failed;
          tc "of_samples unknown edges" test_of_samples_unknown_edge;
          tc "result codec roundtrip" test_border_codec_roundtrip;
          tc "improvement in log decades" test_improvement_log_decades;
        ] );
      ( "adaptive",
        [
          test_adaptive_scan_parity_prop;
          test_adaptive_scan_probes_sparse_prop;
          tc "escalates to full grid on probe failure"
            test_adaptive_scan_escalates_on_failure;
          tc "seeds reveal a sub-skeleton band"
            test_adaptive_scan_seeds_reveal_narrow_band;
          slow "grid parity across the defect catalog"
            test_border_adaptive_matches_grid_catalog;
          slow "hints never change the result" test_border_hint_invariance;
          slow "adaptive simulates fewer points"
            test_border_adaptive_simulates_fewer;
          slow "checkpoint resume mid-refinement"
            test_border_adaptive_checkpoint_resume;
          tc "window constructors and fingerprints"
            test_window_smart_constructors;
          tc "improvement floor follows the window"
            test_improvement_uses_window_tolerance;
        ] );
      ( "planes",
        [
          tc "vmp" test_vmp_reasonable;
          tc "Vsa declines with R" test_vsa_declines_with_r;
          tc "Vsa collapse at large R" test_vsa_collapses_to_all_1;
          tc "write plane structure" test_write_plane_structure;
          tc "write plane rejects reads" test_write_plane_rejects_read;
          slow "geometric BR vs search BR" test_br_geometric_matches_search;
          tc "read plane structure" test_read_plane_structure;
          tc "injected failure leaves one Failed slot"
            test_plane_survives_injected_failure;
          tc "all points failed still renders"
            test_plane_all_points_failed_renders;
          slow "checkpoint resume is byte-identical"
            test_plane_checkpoint_resume_identical;
          slow "checkpoint file migrates into a store"
            test_plane_checkpoint_file_migrates_to_store;
          slow "sharded store resume is bit-identical"
            test_plane_sharded_store_resume;
          slow "N-lane sweeps match one-lane" test_lane_sweeps_match_one_lane;
        ] );
      ( "stressor",
        [
          tc "cycle-time verdict" test_probe_cycle_time;
          slow "Vdd resolved by BR" test_probe_vdd_resolves_by_br;
          tc "validation" test_probe_validation;
          tc "apply verdict" test_apply_verdict;
          tc "default candidates" test_default_values;
        ] );
      ( "sc_eval",
        [
          slow "open end-to-end" test_sc_eval_open;
          slow "short uses retention" test_sc_eval_short_uses_retention;
          tc "comp candidates invert" test_candidate_detections_placement;
          slow "figure 2 rendering" test_report_figure2;
          slow "stress panels rendering" test_report_panels;
          tc "plane CSV export" test_plane_csv;
          slow "exhaustive baseline" test_exhaustive_small_grid;
          tc "simulation counter" test_run_counter;
          slow "table 1 generation" test_table1_quick;
          tc "table 1 probes honour the config"
            test_table1_probes_honour_config;
        ] );
    ]
