(* Tests for the march-test DSL, the behavioural memory simulator and
   the coverage/Shmoo tooling, plus the pinned store keys of the
   border, plane and Shmoo sweeps. *)

module M = Dramstress_march.March
module Mem = Dramstress_march.Memsim
module Cov = Dramstress_march.Coverage
module Sh = Dramstress_march.Shmoo
module S = Dramstress_dram.Stress
module D = Dramstress_defect.Defect
module C = Dramstress_core

(* ------------------------------------------------------------------ *)
(* March DSL                                                           *)
(* ------------------------------------------------------------------ *)

let test_march_validation () =
  Alcotest.check_raises "empty test" (Invalid_argument "March.v: no elements")
    (fun () -> ignore (M.v "x" []));
  Alcotest.check_raises "empty element"
    (Invalid_argument "March.v: empty element") (fun () ->
      ignore (M.v "x" [ M.up [] ]));
  Alcotest.check_raises "bad bit" (Invalid_argument "March.v: bit not 0/1")
    (fun () -> ignore (M.v "x" [ M.up [ M.Mw 3 ] ]))

let test_march_op_counts () =
  Alcotest.(check int) "MATS+ is 5n" 5 (M.op_count M.mats_plus);
  Alcotest.(check int) "March X is 6n" 6 (M.op_count M.march_x);
  Alcotest.(check int) "March Y is 8n" 8 (M.op_count M.march_y);
  Alcotest.(check int) "March C- is 10n" 10 (M.op_count M.march_c_minus)

let test_march_notation () =
  Alcotest.(check string) "MATS+"
    "MATS+: {any(w0); up(r0,w1); down(r1,w0)}"
    (M.to_string M.mats_plus)

let test_of_detection () =
  let cond = C.Detection.standard ~victim:0 ~primes:2 in
  let t = M.of_detection ~name:"synth" cond in
  Alcotest.(check int) "ops" 4 (M.op_count t)

let test_to_detection () =
  (* lowering concatenates the per-cell op streams in element order *)
  let t =
    M.parse ~name:"mixed" "{up(w0); up(r0,w1); down(del(2e-3),r1)}"
  in
  (match (M.to_detection t).C.Detection.steps with
  | [ C.Detection.Write 0; C.Detection.Read 0; C.Detection.Write 1;
      C.Detection.Wait d; C.Detection.Read 1 ] ->
    Alcotest.(check (float 1e-12)) "pause carried over" 2e-3 d
  | _ -> Alcotest.fail "unexpected lowering");
  (* inverse of of_detection *)
  let cond = C.Detection.standard ~victim:1 ~primes:3 in
  Alcotest.(check bool) "of_detection round-trips" true
    (M.to_detection (M.of_detection ~name:"rt" cond) = cond)

let test_march_parse () =
  let t = M.parse ~name:"mats+" "{any(w0); up(r0,w1); down(r1,w0)}" in
  Alcotest.(check int) "ops" 5 (M.op_count t);
  Alcotest.(check bool) "equals builtin" true
    (t.M.elements = M.mats_plus.M.elements);
  let t2 = M.parse ~name:"ret" "any(w1,del(1e-3),r1)" in
  (match t2.M.elements with
  | [ { M.ops = [ M.Mw 1; M.Mdel d; M.Mr 1 ]; _ } ] ->
    Alcotest.(check (float 1e-12)) "delay" 1e-3 d
  | _ -> Alcotest.fail "retention element");
  Alcotest.(check bool) "bad order rejected" true
    (match M.parse ~name:"x" "{sideways(w0)}" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad op rejected" true
    (match M.parse ~name:"x" "{up(q7)}" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_march_hammer () =
  let t = M.parse ~name:"ham" "any(w1,ham(5),r1)" in
  (match t.M.elements with
  | [ { M.ops = [ M.Mw 1; M.Mham 5; M.Mr 1 ]; _ } ] -> ()
  | _ -> Alcotest.fail "hammer element not parsed");
  (* printer and parser agree *)
  let t' = M.parse ~name:"ham" (M.to_string t) in
  Alcotest.(check bool) "pp/parse round-trip" true
    (t'.M.elements = t.M.elements);
  (* aggressor activations are free in march complexity accounting *)
  Alcotest.(check int) "op count excludes ham" 2 (M.op_count t);
  (* lowering to the electrical detection layer and back *)
  (match (M.to_detection t).C.Detection.steps with
  | [ C.Detection.Write 1; C.Detection.Hammer 5; C.Detection.Read 1 ] -> ()
  | _ -> Alcotest.fail "unexpected lowering");
  let cond = C.Detection.hammer ~victim:1 ~count:7 in
  Alcotest.(check bool) "of_detection round-trips" true
    (M.to_detection (M.of_detection ~name:"rt" cond) = cond);
  Alcotest.(check bool) "ham(0) rejected" true
    (match M.parse ~name:"x" "{up(ham(0))}" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let prop_parse_roundtrip =
  (* generate a random well-formed test, print it, reparse, compare *)
  let gen_op =
    QCheck.Gen.oneof
      [ QCheck.Gen.return (M.Mw 0); QCheck.Gen.return (M.Mw 1);
        QCheck.Gen.return (M.Mr 0); QCheck.Gen.return (M.Mr 1) ]
  in
  let gen_elem =
    QCheck.Gen.map2
      (fun order ops ->
        { M.order; ops })
      (QCheck.Gen.oneofl [ M.Up; M.Down; M.Either ])
      (QCheck.Gen.list_size (QCheck.Gen.int_range 1 4) gen_op)
  in
  let gen_test =
    QCheck.Gen.map
      (fun elems -> M.v "rand" elems)
      (QCheck.Gen.list_size (QCheck.Gen.int_range 1 5) gen_elem)
  in
  QCheck.Test.make ~count:100 ~name:"march notation round-trips"
    (QCheck.make gen_test)
    (fun t ->
      let t' = M.parse ~name:"rand" (M.to_string t) in
      t'.M.elements = t.M.elements)

let prop_clean_memory_never_fails =
  (* any well-formed march test whose elements are self-consistent
     (every read expects the value most recently written in the same
     element, starting from a w) passes a fault-free memory *)
  let gen_elem =
    let open QCheck.Gen in
    int_range 0 1 >>= fun first ->
    list_size (int_range 0 3) (int_range 0 1) >>= fun writes ->
    let rec build current = function
      | [] -> []
      | b :: rest -> M.Mr current :: M.Mw b :: build b rest
    in
    oneofl [ M.Up; M.Down; M.Either ] >>= fun order ->
    return { M.order; ops = M.Mw first :: build first writes }
  in
  let gen_test =
    QCheck.Gen.map
      (fun elems -> M.v "consistent" elems)
      (QCheck.Gen.list_size (QCheck.Gen.int_range 1 4) gen_elem)
  in
  QCheck.Test.make ~count:100
    ~name:"self-consistent tests pass clean memories"
    (QCheck.make gen_test)
    (fun t ->
      let mem = Mem.create ~size:6 () in
      Mem.run_march mem t = [])

(* ------------------------------------------------------------------ *)
(* Memsim: digital faults                                              *)
(* ------------------------------------------------------------------ *)

let test_memsim_good_memory_passes () =
  List.iter
    (fun test ->
      let mem = Mem.create ~size:8 () in
      Alcotest.(check int)
        (M.to_string test ^ " passes clean memory")
        0
        (List.length (Mem.run_march mem test)))
    [ M.mats_plus; M.march_x; M.march_y; M.march_c_minus ]

let test_memsim_rw () =
  let mem = Mem.create ~size:4 () in
  Mem.write mem 2 1;
  Alcotest.(check int) "read back" 1 (Mem.read mem 2);
  Alcotest.(check int) "others untouched" 0 (Mem.read mem 0);
  Alcotest.check_raises "oob" (Invalid_argument "Memsim: address out of range")
    (fun () -> ignore (Mem.read mem 9))

let test_stuck_at_detected () =
  Alcotest.(check bool) "SA0 by MATS+" true
    (Mem.detects ~size:8 ~fault:(Mem.Stuck_at 0) M.mats_plus);
  Alcotest.(check bool) "SA1 by MATS+" true
    (Mem.detects ~size:8 ~fault:(Mem.Stuck_at 1) M.mats_plus)

let test_transition_faults () =
  (* MATS+ ends its down element with w0 and never reads it: TF0 escapes *)
  Alcotest.(check bool) "TF0 escapes MATS+" false
    (Mem.detects ~size:8 ~fault:(Mem.Transition 0) M.mats_plus);
  Alcotest.(check bool) "TF0 caught by March X" true
    (Mem.detects ~size:8 ~fault:(Mem.Transition 0) M.march_x);
  Alcotest.(check bool) "TF1 caught by MATS+" true
    (Mem.detects ~size:8 ~fault:(Mem.Transition 1) M.mats_plus)

let test_coupling_faults () =
  Alcotest.(check bool) "CFin caught by March C-" true
    (Mem.detects ~size:8 ~fault:(Mem.Coupling_inv 0) M.march_c_minus);
  Alcotest.(check bool) "CFid caught by March C-" true
    (Mem.detects ~size:8 ~fault:(Mem.Coupling_idem (0, 1)) M.march_c_minus)

let test_failure_location () =
  let mem = Mem.create ~size:8 ~faults:[ (3, Mem.Stuck_at 1) ] () in
  match Mem.run_march mem M.mats_plus with
  | f :: _ ->
    Alcotest.(check int) "victim address" 3 f.Mem.addr;
    Alcotest.(check int) "expected 0" 0 f.Mem.expected;
    Alcotest.(check int) "got 1" 1 f.Mem.got
  | [] -> Alcotest.fail "stuck-at not found"

let test_create_validation () =
  Alcotest.check_raises "bad size" (Invalid_argument "Memsim.create: size <= 0")
    (fun () -> ignore (Mem.create ~size:0 ()));
  Alcotest.check_raises "bad fault addr"
    (Invalid_argument "Memsim.create: fault address out of range") (fun () ->
      ignore (Mem.create ~size:4 ~faults:[ (9, Mem.Stuck_at 0) ] ()))

(* ------------------------------------------------------------------ *)
(* Memsim: weak cells                                                  *)
(* ------------------------------------------------------------------ *)

let test_weak_ideal_behaves_like_good () =
  let w = Mem.Weak.ideal ~vdd:2.4 in
  let mem = Mem.create ~size:4 ~faults:[ (1, Mem.Weak_cell w) ] () in
  Alcotest.(check int) "march failures" 0
    (List.length (Mem.run_march mem M.march_c_minus))

let test_weak_slow_w0_fails () =
  (* a cell whose w0 barely moves the voltage behaves like the paper's
     open: w1 w1 w0 r0 fails *)
  let w = { (Mem.Weak.ideal ~vdd:2.4) with Mem.Weak.alpha_w0 = 0.3 } in
  let mem = Mem.create ~size:4 ~faults:[ (1, Mem.Weak_cell w) ] () in
  let t =
    M.of_detection ~name:"paper"
      (C.Detection.standard ~victim:0 ~primes:2)
  in
  Alcotest.(check bool) "detected" true (Mem.run_march mem t <> [])

let test_weak_leak_detected_by_pause () =
  let w =
    { (Mem.Weak.ideal ~vdd:2.4) with
      Mem.Weak.leak_target = 0.0;
      leak_tau = 1e-4 }
  in
  let t_no_pause = M.v "w1r1" [ M.either [ M.Mw 1; M.Mr 1 ] ] in
  let t_pause = M.v "w1,del,r1" [ M.either [ M.Mw 1; M.Mdel 1e-3; M.Mr 1 ] ] in
  Alcotest.(check bool) "escapes without pause" false
    (Mem.detects ~size:4 ~fault:(Mem.Weak_cell w) t_no_pause);
  Alcotest.(check bool) "caught with pause" true
    (Mem.detects ~size:4 ~fault:(Mem.Weak_cell w) t_pause)

let test_weak_of_electrical () =
  let defect = D.v (D.Open_cell D.At_bitline_contact) D.True_bl 400e3 in
  let w = Mem.Weak.of_electrical ~stress:S.nominal ~defect () in
  (* a 400 kOhm open: writing is badly degraded in one cycle *)
  Alcotest.(check bool)
    (Printf.sprintf "alpha_w0 %.2f small" w.Mem.Weak.alpha_w0)
    true
    (w.Mem.Weak.alpha_w0 < 1.5);
  Alcotest.(check bool) "vsa within rails" true
    (w.Mem.Weak.vsa >= 0.0 && w.Mem.Weak.vsa <= 2.4)

(* ------------------------------------------------------------------ *)
(* Coverage                                                            *)
(* ------------------------------------------------------------------ *)

let test_coverage_ordering () =
  let cases = Cov.standard_faults in
  let results =
    Cov.compare_tests [ M.mats_plus; M.march_c_minus ] cases
  in
  match results with
  | [ mats; mc ] ->
    Alcotest.(check bool) "March C- >= MATS+" true
      (mc.Cov.coverage >= mats.Cov.coverage);
    Alcotest.(check (float 1e-9)) "March C- catches all standard faults"
      1.0 mc.Cov.coverage
  | _ -> Alcotest.fail "two results expected"

let test_coverage_render () =
  let r = Cov.evaluate M.mats_plus Cov.standard_faults in
  let text = Cov.render [ r ] in
  Alcotest.(check bool) "mentions the test" true
    (String.length text > 0
    && List.exists
         (fun line -> String.length line >= 5 && String.sub line 0 5 = "MATS+")
         (String.split_on_char '\n' text))

(* ------------------------------------------------------------------ *)
(* Shmoo                                                               *)
(* ------------------------------------------------------------------ *)

let test_shmoo_timing_axis () =
  (* sweeping tcyc across the failure edge of a 200 kOhm open: short
     cycles must fail, long cycles must pass *)
  let kind = D.Open_cell D.At_bitline_contact in
  let defect = D.v kind D.True_bl 200e3 in
  (* two-sided condition: a one-sided w0/r0 test cannot fail at broken
     SCs where the cell accidentally floats at the expected value *)
  let detection =
    C.Detection.v
      [ C.Detection.Write 1; C.Detection.Read 1; C.Detection.Write 0;
        C.Detection.Read 0 ]
  in
  let shmoo =
    Sh.generate ~stress:S.nominal ~defect ~detection
      ~x:(S.Cycle_time, [ 50e-9; 55e-9; 70e-9; 80e-9 ])
      ~y:(S.Supply_voltage, [ 2.4 ])
      ()
  in
  (match shmoo.Sh.grid.(0).(0) with
  | Sh.Fail -> ()
  | Sh.Pass | Sh.Invalid | Sh.Errored -> Alcotest.fail "50 ns should fail");
  (match shmoo.Sh.grid.(0).(3) with
  | Sh.Pass -> ()
  | Sh.Fail | Sh.Invalid | Sh.Errored -> Alcotest.fail "80 ns should pass");
  let f = Sh.fail_fraction shmoo in
  Alcotest.(check bool) "fraction interior" true (f > 0.0 && f < 1.0);
  Alcotest.(check bool) "renders" true (String.length (Sh.render shmoo) > 0)

let test_shmoo_invalid_points () =
  let kind = D.Open_cell D.At_bitline_contact in
  let defect = D.v kind D.True_bl 200e3 in
  let detection = C.Detection.standard ~victim:0 ~primes:1 in
  let shmoo =
    Sh.generate ~stress:S.nominal ~defect ~detection
      ~x:(S.Cycle_time, [ 5e-9; 60e-9 ])  (* 5 ns cannot open the word line *)
      ~y:(S.Supply_voltage, [ 2.4 ])
      ()
  in
  match shmoo.Sh.grid.(0).(0) with
  | Sh.Invalid -> ()
  | Sh.Pass | Sh.Fail | Sh.Errored -> Alcotest.fail "expected invalid SC"

let test_shmoo_health_guard_errored () =
  (* a NaN in the first cell's Newton state trips the finiteness guard;
     without a retry ladder [Newton.Numerical_health] reaches the Shmoo
     cell, which must draw it as Errored, not abort the plot *)
  let module Chaos = Dramstress_util.Chaos in
  let defect = D.v (D.Open_cell D.At_bitline_contact) D.True_bl 200e3 in
  Dramstress_dram.Ops.clear_cache ();
  let shmoo =
    Fun.protect ~finally:Chaos.disarm (fun () ->
        Chaos.configure ~seed:0 "inject_nan_state@+1";
        Sh.generate
          ~config:
            (Dramstress_dram.Sim_config.v ~jobs:1
               ~retry:Dramstress_dram.Sim_config.no_retry ())
          ~stress:S.nominal ~defect
          ~detection:(C.Detection.standard ~victim:0 ~primes:1)
          ~x:(S.Cycle_time, [ 55e-9; 60e-9 ])
          ~y:(S.Supply_voltage, [ 2.4 ])
          ())
  in
  (match shmoo.Sh.grid.(0).(0) with
  | Sh.Errored -> ()
  | Sh.Pass | Sh.Fail | Sh.Invalid -> Alcotest.fail "expected Errored");
  (match shmoo.Sh.grid.(0).(1) with
  | Sh.Pass | Sh.Fail -> ()
  | Sh.Invalid | Sh.Errored -> Alcotest.fail "the second cell simulates");
  Alcotest.(check bool) "drawn as '!'" true
    (String.contains (Sh.render shmoo) '!')

(* ------------------------------------------------------------------ *)
(* Stored keys                                                         *)
(* ------------------------------------------------------------------ *)

(* [keys_written f] is the sorted list of keys [f] records into a fresh
   single-file store *)
let keys_written f =
  let module Ck = Dramstress_util.Checkpoint in
  let module St = Dramstress_util.Store in
  let dir = Filename.temp_dir "dramstress_keys" "" in
  let records = Filename.concat dir "records.jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let st = St.open_ ~name:"keys" dir in
      f st;
      St.close st;
      let keys = ref [] in
      Ck.scan records (fun ~descr:_ ~engine:_ ~key ~value:_ ->
          keys := key :: !keys);
      List.sort String.compare !keys)

(* the printed physics of [Sim_config.v ~jobs:1 ()], which keys carry
   as its MD5, and the printed nominal stress *)
let pinned_physics =
  "epoch=3,c_bl=0x1.51c51ce3718e1p-42,\
     c_cell=0x1.6849b86a12b9bp-44,c_ref=0x1.323ea98d5cb77p-45,\
     c_sa=0x1.6849b86a12b9bp-46,c_out=0x1.0e374a4f8e0b4p-45,\
     access=(name=acc,nmos,vt0=0x1.6666666666666p-1,\
     kp=0x1.a36e2eb1c432dp-14,lambda=0x1.999999999999ap-5,\
     vt_tc=0x1.0624dd2f1a9fcp-10,mu_exp=0x1p+1,\
     n_sub=0x1.6666666666666p+0,t_ref=0x1.2c26666666666p+8),\
     sa_n=(name=sa_n,nmos,vt0=0x1p-1,kp=0x1.a36e2eb1c432dp-15,\
     lambda=0x1.999999999999ap-5,vt_tc=0x1.3a92a30553261p-12,\
     mu_exp=0x1.8p+1,n_sub=0x1.6666666666666p+0,\
     t_ref=0x1.2c26666666666p+8),sa_p=(name=sa_p,pmos,vt0=0x1p-1,\
     kp=0x1.3a92a30553261p-12,lambda=0x1.999999999999ap-5,\
     vt_tc=0x1.3a92a30553261p-12,mu_exp=0x1p+0,\
     n_sub=0x1.6666666666666p+0,t_ref=0x1.2c26666666666p+8),\
     wl_boost=0x1.999999999999ap-1,g_switch=0x1.0624dd2f1a9fcp-10,\
     g_write=0x1.47ae147ae147bp-8,g_off=0x1.19799812dea11p-40,\
     t_wl_on=0x1.9c511dc3a41dfp-28,t_share=0x1.12e0be826d695p-27,\
     t_wr_cmd=0x1.79f505f35670cp-25,\
     t_margin0=0x1.12e0be826d695p-29,\
     t_margin_duty=0x1.12e0be826d695p-28,\
     t_decide=0x1.9c511dc3a41dfp-28,t_edge=0x1.12e0be826d695p-31,\
     abstol=0x1.0c6f7a0b5ed8dp-20,reltol=0x1.a36e2eb1c432dp-14,\
     max_newton=80,gmin=0x1.19799812dea11p-40,max_step_v=0x1p+0,\
     integrator=bdf2,dt_scale=0x1p+0,\
     steps_per_cycle=100,\
     retry=halve-dt;steps-x4;damped-newton(0x1p-2,x4)"

let pinned_nominal =
  "tcyc=0x1.01b2b29a4692bp-24,duty=0x1p-1,vdd=0x1.3333333333333p+1,temp_c=0x1.bp+4,\
     wait=0x0p+0,pattern=all1,hammer=0,leak=0x0p+0,\
     couple=0x0p+0,twr_trim=0x0p+0,tras_trim=0x0p+0"

let test_store_keys_pinned () =
  (* a key is the content address of a stored result: if one moves,
     every store written before silently stops being reused, so an API
     refactoring must leave these texts unchanged. A change that moves
     waveform bits bumps [Options.epoch] instead, which moves them all *)
  let config = Dramstress_dram.Sim_config.v ~jobs:1 () in
  let kind = D.Open_cell D.At_bitline_contact in
  let addresses layer fields =
    List.sort String.compare
      (List.map
         (fun f ->
           Dramstress_util.Checkpoint.digest_key
             (String.concat "|"
                [ layer;
                  "physics=" ^ Digest.to_hex (Digest.string pinned_physics);
                  pinned_nominal; "defect=O1/true"; f ]))
         fields)
  in
  Alcotest.(check string) "printed physics" pinned_physics
    (Dramstress_dram.Sim_config.physics_key config);
  Alcotest.(check string) "nominal stress" pinned_nominal (S.key S.nominal);
  let det = "detect=w1,w1,w0,r0|" in
  Alcotest.(check (list string))
    "adaptive border search: probe, edge and whole-result keys"
    (List.sort String.compare
       (addresses "border.probe"
          (List.map (fun r -> det ^ "r=" ^ r)
             [ "0x1.f3ffffffffffep+9"; "0x1.15db2d28a706p+14";
               "0x1.24ed6bc247fb7p+16"; "0x1.34d0f1066b7d1p+18";
               "0x1.5739d501f2fd9p+22"; "0x1.7d7840000000cp+26" ])
       @ addresses "border.edge"
           [ det
             ^ "lo=0x1.24ed6bc247fb7p+16,hi=0x1.34d0f1066b7d1p+18,\
                rel_tol=0x1.999999999999ap-5" ]
       @ addresses "border.search"
           [ det
             ^ "window=r_min=0x1.f4p+9,r_max=0x1.7d784p+26,grid_points=9,\
                rel_tol=0x1.999999999999ap-5,scan=adaptive" ]))
    (keys_written (fun store ->
         ignore
           (C.Border.search ~config ~store
              ~window:
                (C.Border.Window.v ~r_min:1e3 ~r_max:1e8 ~grid_points:9
                   ~rel_tol:0.05 ~strategy:C.Border.Window.Adaptive ())
              ~stress:S.nominal ~kind ~placement:D.True_bl
              (C.Detection.standard ~victim:0 ~primes:2))));
  Alcotest.(check (list string))
    "write plane keys"
    (addresses "plane.write"
       [ "op=w0|n_ops=1|r=0x1.388p+13"; "op=w0|n_ops=1|r=0x1.e848p+19" ])
    (keys_written (fun store ->
         ignore
           (C.Plane.write_plane ~config ~store ~n_ops:1
              ~rops:[ 1e4; 1e6 ] ~stress:S.nominal ~kind ~placement:D.True_bl
              ~op:Dramstress_dram.Ops.W0 ())));
  Alcotest.(check (list string))
    "shmoo cell key"
    (addresses "shmoo" [ "r=0x1.86ap+17|detect=w1,w0,r0" ])
    (keys_written (fun store ->
         ignore
           (Sh.generate ~config ~store ~stress:S.nominal
              ~defect:(D.v kind D.True_bl 200e3)
              ~detection:(C.Detection.standard ~victim:0 ~primes:1)
              ~x:(S.Cycle_time, [ 60e-9 ])
              ~y:(S.Supply_voltage, [ 2.4 ])
              ())))

let test_keys_ignore_scheduling () =
  (* the physics key holds what moves a stored value and nothing else:
     every spelling of the default physics writes the same border,
     plane, Shmoo and probe-sample keys, while the step resolution, a
     technology field or the retry ladder moves them all *)
  let module Sc = Dramstress_dram.Sim_config in
  let kind = D.Open_cell D.At_bitline_contact in
  let window = C.Border.Window.v ~r_min:1e4 ~r_max:1e6 ~grid_points:3 () in
  let detection = C.Detection.standard ~victim:0 ~primes:1 in
  let keys ?config () =
    Dramstress_dram.Ops.clear_cache ();
    keys_written (fun store ->
        ignore
          (C.Border.search ?config ~store ~window ~stress:S.nominal ~kind
             ~placement:D.True_bl detection);
        ignore
          (C.Plane.write_plane ?config ~store ~n_ops:1 ~rops:[ 1e5 ]
             ~stress:S.nominal ~kind ~placement:D.True_bl
             ~op:Dramstress_dram.Ops.W0 ());
        ignore
          (Sh.generate ?config ~store ~stress:S.nominal
             ~defect:(D.v kind D.True_bl 200e3) ~detection
             ~x:(S.Cycle_time, [ 60e-9 ]) ~y:(S.Supply_voltage, [ 2.4 ]) ());
        ignore
          (C.Stressor.probe_axis ?config ~store ~window ~stress:S.nominal
             ~kind ~placement:D.True_bl ~detection S.Cycle_time
             [ 55e-9; 60e-9 ]))
  in
  let reference = keys () in
  Alcotest.(check int) "search, plane, Shmoo and two samples" 5
    (List.length reference);
  List.iter
    (fun (name, config) ->
      Alcotest.(check (list string)) (name ^ ": same keys") reference
        (keys ~config ()))
    [ ("Sc.default", Sc.default);
      ("jobs 1", Sc.v ~jobs:1 ());
      ("lanes 8", Sc.v ~lanes:8 ());
      ("deadline 1000 s", Sc.v ~deadline:1000. ());
      ("explicit default options",
       Sc.v ~sim:Dramstress_engine.Options.default ()) ];
  List.iter
    (fun (name, config) ->
      let moved = keys ~config () in
      Alcotest.(check bool) (name ^ ": every key moves") true
        (List.for_all (fun k -> not (List.mem k reference)) moved))
    [ ("steps per cycle", Sc.v ~steps_per_cycle:300 ());
      ("a technology field",
       Sc.v
         ~tech:
           { Dramstress_dram.Tech.default with
             Dramstress_dram.Tech.c_bl = 310e-15 }
         ());
      ("the retry ladder", Sc.v ~retry:Sc.no_retry ()) ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "dramstress_march"
    [
      ( "dsl",
        [
          tc "validation" test_march_validation;
          tc "op counts" test_march_op_counts;
          tc "notation" test_march_notation;
          tc "of_detection" test_of_detection;
          tc "to_detection lowering" test_to_detection;
          tc "parsing" test_march_parse;
          tc "hammer ops" test_march_hammer;
          QCheck_alcotest.to_alcotest prop_parse_roundtrip;
          QCheck_alcotest.to_alcotest prop_clean_memory_never_fails;
        ] );
      ( "memsim digital",
        [
          tc "clean memory passes" test_memsim_good_memory_passes;
          tc "read/write" test_memsim_rw;
          tc "stuck-at" test_stuck_at_detected;
          tc "transition faults" test_transition_faults;
          tc "coupling faults" test_coupling_faults;
          tc "failure location" test_failure_location;
          tc "construction validation" test_create_validation;
        ] );
      ( "memsim weak cells",
        [
          tc "ideal weak cell is clean" test_weak_ideal_behaves_like_good;
          tc "slow w0 caught by paper sequence" test_weak_slow_w0_fails;
          tc "leak caught by retention element" test_weak_leak_detected_by_pause;
          tc "electrical fitting" test_weak_of_electrical;
        ] );
      ( "coverage",
        [
          tc "March C- dominates MATS+" test_coverage_ordering;
          tc "rendering" test_coverage_render;
        ] );
      ( "shmoo",
        [
          slow "timing edge" test_shmoo_timing_axis;
          tc "invalid SCs marked" test_shmoo_invalid_points;
          tc "health-guard failure drawn as Errored"
            test_shmoo_health_guard_errored;
        ] );
      ( "store keys",
        [ tc "pinned across refactors" test_store_keys_pinned;
          tc "scheduling stays out, physics moves them"
            test_keys_ignore_scheduling ] );
    ]
