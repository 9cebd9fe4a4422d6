(* Benchmark harness: the paper's figures and Table 1 with
   paper-vs-measured lines, the method comparison, ablations of the
   model's design choices, and [guards], every timing limit of the
   engine and the campaign layer (exits 1 when one fails, appends one
   line per run to BENCH_history.jsonl).

   Run everything:        dune exec bench/main.exe
   Run some targets:      dune exec bench/main.exe -- guards table1 ...
   Available targets: guards fig2 fig3 fig4 fig5 fig6 table1 methods
                      ablation *)

module S = Dramstress_dram.Stress
module T = Dramstress_dram.Tech
module O = Dramstress_dram.Ops
module D = Dramstress_defect.Defect
module C = Dramstress_core
module U = Dramstress_util.Units
module Tel = Dramstress_util.Telemetry
module Sc = Dramstress_dram.Sim_config

let nominal = S.nominal
let open_kind = D.Open_cell D.At_bitline_contact

let heading id title =
  Printf.printf "\n%s\n== %s: %s\n%s\n" (String.make 74 '=') id title
    (String.make 74 '=')

let paper_vs id paper measured =
  Printf.printf "  [%s] paper: %-38s measured: %s\n" id paper measured

let br_str = function
  | C.Border.Br r -> U.si_string r ^ "Ohm"
  | C.Border.Faulty_band { lo; hi } ->
    Printf.sprintf "band %sOhm..%sOhm" (U.si_string lo) (U.si_string hi)
  | C.Border.Bands _ as b -> Format.asprintf "%a" C.Border.pp_result b
  | C.Border.Always_faulty -> "always faulty"
  | C.Border.Never_faulty -> "not detected"
  | C.Border.Unsampled -> "unsampled"

let best_br ?allow_pause stress =
  snd
    (C.Sc_eval.best_detection ?allow_pause ~stress ~kind:open_kind
       ~placement:D.True_bl ())

(* ------------------------------------------------------------------ *)
(* Figure 2: result planes at the nominal SC                           *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  heading "fig2" "result planes for w0, w1, r at the nominal SC";
  print_string
    (C.Report.figure2 ~stress:nominal ~kind:open_kind ~placement:D.True_bl ());
  let plane =
    C.Plane.write_plane ~n_ops:2 ~stress:nominal ~kind:open_kind
      ~placement:D.True_bl ~op:O.W0 ()
  in
  let geo =
    match C.Plane.br_geometric plane with
    | Some br -> U.si_string br ^ "Ohm"
    | None -> "no crossing"
  in
  paper_vs "fig2 BR" "~180-200 kOhm ((2)w0 x Vsa)" geo;
  paper_vs "fig2 Vsa shape" "declines from ~Vmp to GND as R grows"
    "see Vsa series above (collapses to 'all reads 1')"

(* ------------------------------------------------------------------ *)
(* Figures 3-5: per-stress panels                                      *)
(* ------------------------------------------------------------------ *)

let residual_after_w0 stress =
  let defect = D.v open_kind D.True_bl 200e3 in
  let oc = O.run ~stress ~defect ~vc_init:stress.S.vdd [ O.W0 ] in
  (List.hd oc.O.results).O.vc_end

let fig3 () =
  heading "fig3" "reducing t_cyc from 60 ns to 55 ns (R = 200 kOhm)";
  print_string
    (C.Report.figure_st_panels ~stress:nominal ~axis:S.Cycle_time
       ~values:[ 55e-9; 60e-9 ] ~kind:open_kind ~placement:D.True_bl ());
  let r60 = residual_after_w0 nominal in
  let r55 = residual_after_w0 (S.with_tcyc nominal 55e-9) in
  paper_vs "fig3 w0 residual" "1.0 V at 60 ns -> 1.9 V at 55 ns"
    (Printf.sprintf "%.2f V -> %.2f V" r60 r55);
  let vsa stress =
    match
      C.Plane.vsa ~stress ~defect:(D.v open_kind D.True_bl 200e3) ()
    with
    | C.Plane.Vsa v -> Printf.sprintf "%.2f V" v
    | C.Plane.Reads_all_1 -> "all-1"
    | C.Plane.Reads_all_0 -> "all-0"
  in
  paper_vs "fig3 Vsa" "unchanged by timing"
    (Printf.sprintf "%s at 60 ns, %s at 55 ns" (vsa nominal)
       (vsa (S.with_tcyc nominal 55e-9)))

let fig4 () =
  heading "fig4" "temperature -33 / +27 / +87 C (R = 200 kOhm)";
  print_string
    (C.Report.figure_st_panels ~stress:nominal ~axis:S.Temperature
       ~values:[ -33.0; 27.0; 87.0 ] ~kind:open_kind ~placement:D.True_bl ());
  List.iter
    (fun tc ->
      Printf.printf "  BR at T=%+4.0f C: %s\n" tc
        (br_str (best_br ~allow_pause:false (S.with_temp_c nominal tc))))
    [ -33.0; 27.0; 87.0 ];
  paper_vs "fig4 verdict" "high T reduces BR by ~5 kOhm (2.5%)"
    "see BR trend above (hot is most stressful)"

let fig5 () =
  heading "fig5" "supply voltage 2.1 / 2.4 / 2.7 V (R = 200 kOhm)";
  print_string
    (C.Report.figure_st_panels ~stress:nominal ~axis:S.Supply_voltage
       ~values:[ 2.1; 2.4; 2.7 ] ~kind:open_kind ~placement:D.True_bl ());
  List.iter
    (fun v ->
      Printf.printf "  BR at Vdd=%.1f V: %s\n" v
        (br_str (best_br ~allow_pause:false (S.with_vdd nominal v))))
    [ 2.1; 2.4; 2.7 ];
  let r21 = residual_after_w0 (S.with_vdd nominal 2.1) in
  let r24 = residual_after_w0 nominal in
  let r27 = residual_after_w0 (S.with_vdd nominal 2.7) in
  paper_vs "fig5 w0 residual" "0.9 / 1.0 / 1.2 V at 2.1/2.4/2.7 V"
    (Printf.sprintf "%.2f / %.2f / %.2f V" r21 r24 r27);
  paper_vs "fig5 verdict" "BR 150k / 180k / 220k -> 2.1 V most stressful"
    "see BR trend above (weaker in our calibration)"

(* ------------------------------------------------------------------ *)
(* Figure 6: planes at the stressed SC                                 *)
(* ------------------------------------------------------------------ *)

let stressed_sc =
  S.with_vdd (S.with_temp_c (S.with_tcyc nominal 55e-9) 87.0) 2.1

let fig6 () =
  heading "fig6"
    "result planes at the stressed SC (t_cyc=55 ns, T=+87 C, Vdd=2.1 V)";
  print_string
    (C.Report.figure2 ~stress:stressed_sc ~kind:open_kind
       ~placement:D.True_bl ());
  let nom_det, nom_br =
    C.Sc_eval.best_detection ~allow_pause:false ~stress:nominal
      ~kind:open_kind ~placement:D.True_bl ()
  in
  let str_det, str_br =
    C.Sc_eval.best_detection ~allow_pause:false ~stress:stressed_sc
      ~kind:open_kind ~placement:D.True_bl ()
  in
  paper_vs "fig6 BR" "reduced 200 kOhm -> ~50 kOhm"
    (Printf.sprintf "%s -> %s" (br_str nom_br) (br_str str_br));
  paper_vs "fig6 detection" "needs more w1 primes under the SC"
    (Printf.sprintf "%s -> %s"
       (C.Detection.to_string nom_det)
       (C.Detection.to_string str_det))

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  heading "table1" "ST optimization over the defect catalog";
  (* O1-O3 are electrically equivalent (verified by the test suite); run
     one open representative to keep the harness under a few minutes *)
  let entries =
    List.filter
      (fun (e : D.entry) -> e.D.id <> "O2" && e.D.id <> "O3")
      D.catalog
  in
  let table = C.Table1.generate ~entries () in
  print_string (C.Table1.render table);
  paper_vs "table1 opens" "200 kOhm -> 50 kOhm, directions tcyc- T+ Vdd-"
    "see O1 rows";
  paper_vs "table1 Sg" "~1 MOhm -> ~10 GOhm" "see Sg rows";
  paper_vs "table1 true/comp" "same BR, detection with 0/1 interchanged"
    "compare row pairs"

(* ------------------------------------------------------------------ *)
(* Method comparison: exhaustive baseline vs the paper's probes        *)
(* ------------------------------------------------------------------ *)

let methods () =
  heading "methods"
    "exhaustive per-SC fault analysis vs the paper's probe method";
  let c =
    C.Exhaustive.compare_methods ~nominal ~kind:open_kind
      ~placement:D.True_bl ()
  in
  Format.printf "%a@." C.Exhaustive.pp_comparison c;
  paper_vs "methods" "full fault analysis per ST value is 'labour intensive'"
    (Printf.sprintf "%d vs %d electrical simulations"
       c.C.Exhaustive.exhaustive.C.Exhaustive.simulations
       c.C.Exhaustive.probe_simulations)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  heading "ablation" "model design choices";
  let defect = D.v open_kind D.True_bl 200e3 in
  (* integrator choice: backward Euler vs trapezoidal on a full op *)
  let residual integrator =
    let config =
      Sc.v ~sim:{ Dramstress_engine.Options.default with integrator } ()
    in
    let oc = O.run ~config ~stress:nominal ~defect ~vc_init:2.4 [ O.W0 ] in
    (List.hd oc.O.results).O.vc_end
  in
  let r_be = residual Dramstress_engine.Options.Backward_euler in
  let r_tr = residual Dramstress_engine.Options.Trapezoidal in
  Printf.printf
    "  integrator: w0 residual BE %.4f V vs trapezoidal %.4f V (delta %.1f mV)\n"
    r_be r_tr
    (1e3 *. Float.abs (r_be -. r_tr));
  (* reference-cell sizing moves the defect-free threshold *)
  List.iter
    (fun c_ref ->
      let tech = { T.default with T.c_ref } in
      Printf.printf "  c_ref = %sF: Vmp = %.2f V\n" (U.si_string c_ref)
        (C.Plane.vmp ~config:(Sc.v ~tech ()) ~stress:nominal ()))
    [ 20e-15; 34e-15; 50e-15 ];
  (* the fixed write-command latency is the timing-stress mechanism:
     making it scale with tcyc kills the Figure-3 effect *)
  let residual_with tech stress =
    let oc =
      O.run ~config:(Sc.v ~tech ()) ~stress ~defect ~vc_init:stress.S.vdd
        [ O.W0 ]
    in
    (List.hd oc.O.results).O.vc_end
  in
  let scaled_tech tcyc =
    { T.default with T.t_wr_cmd = 44e-9 *. (tcyc /. 60e-9) }
  in
  Printf.printf
    "  write latency fixed:  w0 residual 60ns %.2f V -> 55ns %.2f V\n"
    (residual_with T.default nominal)
    (residual_with T.default (S.with_tcyc nominal 55e-9));
  Printf.printf
    "  write latency scaled: w0 residual 60ns %.2f V -> 55ns %.2f V \
     (stress effect gone)\n"
    (residual_with (scaled_tech 60e-9) nominal)
    (residual_with (scaled_tech 55e-9) (S.with_tcyc nominal 55e-9));
  (* duty cycle: the paper lists it as a timing ST but never evaluates
     it; a lower duty closes the word line earlier and stresses writes *)
  List.iter
    (fun duty ->
      Printf.printf "  duty = %.2f: BR = %s\n" duty
        (br_str (best_br ~allow_pause:false (S.with_duty nominal duty))))
    [ 0.35; 0.5; 0.65 ];
  (* steps-per-cycle convergence *)
  List.iter
    (fun spc ->
      let oc =
        O.run ~config:(Sc.v ~steps_per_cycle:spc ()) ~stress:nominal ~defect
          ~vc_init:2.4 [ O.W0 ]
      in
      Printf.printf "  steps/cycle %4d: w0 residual %.4f V\n" spc
        (List.hd oc.O.results).O.vc_end)
    [ 100; 200; 400; 800 ]

(* ------------------------------------------------------------------ *)
(* Timing guards                                                       *)
(* ------------------------------------------------------------------ *)

(* Every limit is judged on medians of [runs] repeated runs: one
   wall-clock sample is at the mercy of the scheduler on a shared host,
   the median of several is not. *)

module E = Dramstress_engine
module Col = Dramstress_dram.Column
module Cp = Dramstress_campaign
module St = Dramstress_util.Store
module Stats = Dramstress_util.Stats

let runs = 11

type timing = { median : float; iqr : float }  (* seconds per call *)

(* [time_runs fs] times each [(calls, f)] [runs] times, round by round so
   the sides of an A/B see the same host load, and summarises each
   side's seconds per call, [f] making [calls] calls. *)
let time_runs fs =
  let samples = List.map (fun _ -> Array.make runs 0.0) fs in
  for i = 0 to runs - 1 do
    List.iter2
      (fun (calls, f) s ->
        let t0 = Unix.gettimeofday () in
        f ();
        s.(i) <- (Unix.gettimeofday () -. t0) /. float_of_int calls)
      fs samples
  done;
  List.map
    (fun s ->
      { median = Stats.median s;
        iqr = Stats.quantile 0.75 s -. Stats.quantile 0.25 s })
    samples

(* [value] is computed from the inputs' medians *)
type guard =
  { name : string; value : float; limit : string; ok : bool;
    inputs : (string * timing) list }

let at_least name ~unit_ limit value inputs =
  { name; value; limit = Printf.sprintf ">= %g%s" limit unit_;
    ok = value >= limit; inputs }

let at_most name ~unit_ limit value inputs =
  { name; value; limit = Printf.sprintf "<= %g%s" limit unit_;
    ok = value <= limit; inputs }

let sweep_fig2 ~lanes () =
  let config = Sc.v ~jobs:1 ~lanes () in
  let rops = Dramstress_util.Grid.logspace 1e3 1e6 4 in
  List.iter
    (fun op ->
      ignore
        (C.Plane.write_plane ~config ~n_ops:2 ~rops ~stress:nominal
           ~kind:open_kind ~placement:D.True_bl ~op ()))
    [ O.W0; O.W1 ];
  ignore
    (C.Plane.read_plane ~config ~n_ops:2 ~rops ~stress:nominal
       ~kind:open_kind ~placement:D.True_bl ())

(* The full Figure-2 plane set of one defect: one lane at a time with
   the memo cache off, against 16-lane ensembles from a fresh cache (the
   three planes share the defect-free V_mp and the V_sa bisections).
   Both sides run the production kernel; the guard prices what the
   sweep layer adds on top of it, the memo and batching. *)
let fig2_guard () =
  let scalar () =
    O.Cache.set_enabled O.Cache.default false;
    sweep_fig2 ~lanes:1 ()
  in
  let batched () =
    O.Cache.clear O.Cache.default;
    O.Cache.set_enabled O.Cache.default true;
    sweep_fig2 ~lanes:16 ()
  in
  let t = time_runs [ (1, scalar); (1, batched) ] in
  O.Cache.set_enabled O.Cache.default false;
  match t with
  | [ scalar; batched ] ->
    at_least "fig2_sweep_speedup" ~unit_:"x" 1.8
      (scalar.median /. batched.median)
      [ ("scalar", scalar); ("batched", batched) ]
  | _ -> assert false

(* [E.Newton.update] without its finiteness sum, the scan-free side of
   the health scan's A/B: same clamped update, worst move and maximum.
   [op_guards] checks it against the real pass before timing it, so an
   update this copy no longer mirrors fails the bench instead of
   mispricing the scan. *)
let update_without_scan ~max_step_v:m ~n_free x x_new acc =
  let worst = ref 0.0 and clamped = ref 0 and mx = ref acc.(1) in
  for i = 0 to Array.length x - 1 do
    let xi =
      if i < n_free then begin
        let dx = x_new.(i) -. x.(i) in
        let dx_clamped = if dx > m then m else if dx < -.m then -.m else dx in
        if dx_clamped <> dx then incr clamped;
        let a = Float.abs dx in
        if a > !worst || a <> a then worst := a;
        x.(i) +. dx_clamped
      end
      else x_new.(i)
    in
    x.(i) <- xi;
    let a = Float.abs xi in
    if a > !mx || a <> a then mx := a
  done;
  acc.(0) <- !worst;
  acc.(1) <- !mx;
  !clamped

(* The probes, the health scan and the deadline poll are compiled into
   the hot path, so there is no build without them to A/B against.
   Each is priced as its unit cost times the number of times one w0 op
   fires it, against that op's wall time (memo cache off, one lane).
   The health scan is the finiteness sum that Newton's update pass
   ({!E.Newton.update}) carries ({!E.Newton.check_finite} runs only on
   a sick state): its unit cost is that pass less the same pass
   without the sum. *)
let op_guards () =
  let config = Sc.v ~retry:Sc.no_retry ~jobs:1 ~lanes:1 () in
  let defect = D.v open_kind D.True_bl 200e3 in
  let op () =
    ignore (O.run ~config ~stress:nominal ~defect ~vc_init:2.4 [ O.W0 ])
  in
  Tel.set_enabled true;
  Tel.reset ();
  op ();
  Tel.set_enabled false;
  let snap = Tel.snapshot () in
  Tel.reset ();
  let count name =
    Option.value ~default:0 (List.assoc_opt name snap.Tel.counters)
  in
  (* probe call sites: 3 per Newton iteration (factor and solve counters,
     clamp add), 3 per converged solve (counter, iteration add,
     histogram), 2 per accepted step, 1 per rejection, ~2 per transient
     run, 3 per Ops request (request, hit or miss, span check) *)
  let probes =
    (3 * count "engine.newton.iterations")
    + (3 * count "engine.newton.solves")
    + (2 * count "engine.transient.steps_accepted")
    + count "engine.transient.steps_rejected"
    + (2 * count "engine.transient.runs")
    + (3 * count "dram.ops.requests")
  in
  (* each Newton iteration runs one update pass and polls the deadline *)
  let iters = count "engine.newton.iterations" in
  let probe_c = Tel.Counter.make "bench.telemetry.probe" in
  let probe_h =
    Tel.Histogram.make ~lo:1.0 ~hi:10.0 ~buckets:4 "bench.telemetry.probe_ms"
  in
  (* the pass walks the op's whole MNA state, whose size does not
     depend on the control waveforms *)
  let sys =
    let dc = Dramstress_circuit.Waveform.dc 0.0 in
    let controls =
      { Col.wl = dc; wl_ref = dc; wl_nb = dc; pre = dc; sae = dc;
        wr_acc_hi = dc; wr_acc_lo = dc; wr_ref_hi = dc; wr_ref_lo = dc;
        colsel = dc }
    in
    let col = Col.build ~tech:T.default ~vdd:2.4 ~controls ~defect () in
    E.Mna.make col.Col.compiled
  in
  let n = E.Mna.size sys and n_free = E.Mna.n_free_nodes sys in
  let max_step_v = E.Options.default.E.Options.max_step_v in
  (* moves on both sides of the clamp *)
  let target = Array.init n (fun i -> float_of_int (i - (n / 2))) in
  let pass update =
    let x = Array.make n 0.0 and acc = [| 0.0; 0.0; 0.0 |] in
    let clamped = update ~max_step_v ~n_free x target acc in
    (x, acc.(0), acc.(1), clamped)
  in
  if pass E.Newton.update <> pass update_without_scan then
    failwith "bench: update_without_scan no longer mirrors Newton.update";
  (* the timed passes move nothing, so the state stays put *)
  let state = Array.make n 1.0 in
  let next = Array.copy state and acc = Array.make 3 0.0 in
  let reps = 2_000_000 and far = Some (infinity, 3600.0) in
  let t =
    time_runs
      [ (20, fun () -> for _ = 1 to 20 do op () done);
        ( 2 * reps,
          fun () ->
            for _ = 1 to reps do
              Tel.Counter.incr probe_c;
              Tel.Histogram.observe probe_h 1.0
            done );
        ( reps,
          fun () ->
            for _ = 1 to reps do
              ignore (E.Newton.update ~max_step_v ~n_free state next acc)
            done );
        ( reps,
          fun () ->
            for _ = 1 to reps do
              ignore (update_without_scan ~max_step_v ~n_free state next acc)
            done );
        ( reps,
          fun () ->
            for _ = 1 to reps do
              E.Newton.check_deadline ~deadline_at:far ~t_now:0.0
            done ) ]
  in
  Printf.printf
    "  one w0 op: %d probes, %d Newton iterations (an update pass over %d \
     unknowns and a deadline poll each)\n"
    probes iters n;
  match t with
  | [ op_t; probe_t; update_t; bare_update_t; check_t ] ->
    let pct cost base = 100.0 *. cost /. base in
    let scan_s =
      float_of_int iters
      *. Float.max 0.0 (update_t.median -. bare_update_t.median)
    in
    let check_s = float_of_int iters *. check_t.median in
    (* the op is timed with its scans; the bound divides by the op
       without them *)
    let bare_op = op_t.median -. scan_s in
    let scan =
      [ ("update", update_t); ("update_without_scan", bare_update_t) ]
    in
    [ at_most "telemetry_overhead" ~unit_:"%" 2.0
        (pct (float_of_int probes *. probe_t.median) op_t.median)
        [ ("op", op_t); ("probe", probe_t) ];
      at_most "health_scan_overhead" ~unit_:"%" 2.0
        (pct scan_s bare_op)
        (("op", op_t) :: scan);
      at_most "health_scan_poll_overhead" ~unit_:"%" 2.0
        (pct (scan_s +. check_s) bare_op)
        ((("op", op_t) :: scan) @ [ ("deadline", check_t) ]) ]
  | _ -> assert false

let campaign_manifest =
  {|
(campaign
  (name bench)
  (defects (O1 true))
  (stress nominal)
  (stress low-vdd (vdd 2.1))
  (detections (seq "w1 w1 w0 r0") (seq "w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}

let rec rm p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

(* A cold campaign into a fresh store, in-process and through the
   sandboxed worker pool side by side, then warm reruns over the last
   in-process store. The memo cache is off, in the worker too, so every
   number prices the store and the pipe, never the LRU. *)
let campaign_guards pool =
  let m = Cp.Manifest.of_string campaign_manifest in
  let n = List.length (Cp.Plan.points m) in
  let root = Filename.temp_file "dramstress_bench" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> try rm root with Sys_error _ -> ())
  @@ fun () ->
  let stores = ref 0 in
  let run ?executor ~fresh () =
    if fresh then incr stores;
    let dir = Filename.concat root (string_of_int !stores) in
    let s = St.open_ ~name:"bench" dir in
    Fun.protect
      ~finally:(fun () -> St.close s)
      (fun () -> Cp.Runner.run ~jobs:1 ?executor ~store:s m)
  in
  let clean = ref true in
  let sandboxed () =
    let executor =
      Cp.Sandbox.executor pool ~manifest_text:campaign_manifest m
    in
    let sum = run ~executor ~fresh:true () in
    if sum.Cp.Runner.simulated <> n || sum.Cp.Runner.failures <> [] then
      clean := false
  in
  let cold () = ignore (run ~fresh:true ()) in
  match time_runs [ (1, sandboxed); (1, cold) ] with
  | [ sb_t; cold_t ] ->
    (* the last store written is the last cold run's *)
    let warm () = ignore (run ~fresh:false ()) in
    let warm_t = List.hd (time_runs [ (1, warm) ]) in
    [ at_least "campaign_warm_speedup" ~unit_:"x" 5.0
        (cold_t.median /. warm_t.median)
        [ ("cold", cold_t); ("warm", warm_t) ];
      (let g =
         at_most "sandbox_overhead" ~unit_:"% and clean" 15.0
           (100.0 *. ((sb_t.median /. cold_t.median) -. 1.0))
           [ ("inproc", cold_t); ("sandboxed", sb_t) ]
       in
       { g with ok = g.ok && !clean }) ]
  | _ -> assert false

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let history_line guards =
  let tm = Unix.gmtime (Unix.time ()) in
  let guard g =
    Printf.sprintf "{\"guard\":%S,\"value\":%s,\"limit\":%S,\"ok\":%b%s}"
      g.name (json_float g.value) g.limit g.ok
      (String.concat ""
         (List.map
            (fun (what, t) ->
              Printf.sprintf ",\"%s_s\":{\"median\":%s,\"iqr\":%s}" what
                (json_float t.median) (json_float t.iqr))
            g.inputs))
  in
  Printf.sprintf
    "{\"build\":%S,\"date\":\"%04d-%02d-%02dT%02d:%02d:%02dZ\",\"runs\":%d,\
     \"guards\":[%s]}\n"
    Dramstress_util.Build_info.identity (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec runs
    (String.concat "," (List.map guard guards))

let failed = ref false

external pin : unit -> int = "dramstress_bench_pin"
external unpin : unit -> unit = "dramstress_bench_unpin"

let guards () =
  heading "guards" (Printf.sprintf "timing limits on medians of %d runs" runs);
  (* one CPU for this process and the worker it forks: on a shared host
     the CPUs run at different speeds from one second to the next, and a
     sandboxed side whose worker ran on the other CPU timed that CPU's
     speed, not the sandbox's cost *)
  (match pin () with
  | -1 -> Printf.printf "  not pinned: this platform cannot pin a process\n"
  | cpu -> Printf.printf "  pinned to CPU %d with its sandbox worker\n" cpu);
  (* fork the sandbox worker first, while no domain has been spawned
     (a process with domains cannot fork), and after the memo cache is
     off, so the worker inherits it off *)
  O.Cache.set_enabled O.Cache.default false;
  let pool =
    Dramstress_util.Procpool.create ~workers:1 ~worker:Cp.Sandbox.worker ()
  in
  let all =
    Fun.protect
      ~finally:(fun () -> Dramstress_util.Procpool.shutdown pool)
      (fun () ->
        let fig2 = fig2_guard () in
        let ops = op_guards () in
        fig2 :: ops @ campaign_guards pool)
  in
  unpin ();
  O.Cache.set_enabled O.Cache.default true;
  List.iter
    (fun g ->
      Printf.printf "  %-6s %-26s %9.3f  (limit %s)\n"
        (if g.ok then "ok" else "FAILED") g.name g.value g.limit;
      List.iter
        (fun (what, t) ->
          Printf.printf "         %-10s median %9ss  IQR %9ss\n" what
            (U.si_string t.median) (U.si_string t.iqr))
        g.inputs)
    all;
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat ] 0o644
    "BENCH_history.jsonl" (fun oc -> output_string oc (history_line all));
  Printf.printf "  appended to BENCH_history.jsonl\n";
  if not (List.for_all (fun g -> g.ok) all) then failed := true

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("guards", guards); ("fig2", fig2); ("fig3", fig3); ("fig4", fig4);
    ("fig5", fig5); ("fig6", fig6); ("table1", table1);
    ("methods", methods); ("ablation", ablation);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ :: [] | [] -> List.map fst all_targets
  in
  (* guards forks its worker before any other target spawns domains *)
  let requested =
    List.stable_sort
      (fun a b -> compare (a <> "guards") (b <> "guards"))
      requested
  in
  let t0 = Sys.time () in
  List.iter
    (fun name ->
      match List.assoc_opt name all_targets with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown target %s (have: %s)\n" name
          (String.concat ", " (List.map fst all_targets));
        exit 2)
    requested;
  Printf.printf "\n(total bench cpu time: %.1f s)\n" (Sys.time () -. t0);
  if !failed then exit 1
