(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation on the OCaml reproduction, plus engine micro-benchmarks
   (Bechamel) and ablations of the model's design choices.

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- fig3 table1 ...
   Available targets: fig2 fig3 fig4 fig5 fig6 fig7 table1 shmoo perf
                      ablation health *)

module S = Dramstress_dram.Stress
module T = Dramstress_dram.Tech
module O = Dramstress_dram.Ops
module D = Dramstress_defect.Defect
module C = Dramstress_core
module M = Dramstress_march
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
(* Figure 7 + Table 1                                                  *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  heading "fig7" "defect catalog";
  print_string (D.describe_figure7 ())

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
(* Shmoo (Section 2 context)                                           *)
(* ------------------------------------------------------------------ *)

let shmoo () =
  heading "shmoo" "traditional Shmoo plot for the 200 kOhm open";
  let defect = D.v open_kind D.True_bl 200e3 in
  let detection =
    C.Detection.v
      [ C.Detection.Write 1; C.Detection.Read 1; C.Detection.Write 0;
        C.Detection.Read 0 ]
  in
  let plot =
    M.Shmoo.generate ~stress:nominal ~defect ~detection
      ~x:(S.Cycle_time, Dramstress_util.Grid.linspace 48e-9 76e-9 8)
      ~y:(S.Supply_voltage, Dramstress_util.Grid.linspace 1.8 3.0 7)
      ()
  in
  print_string (M.Shmoo.render plot);
  Printf.printf "  fail fraction: %.2f\n" (M.Shmoo.fail_fraction plot)

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
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* A/B comparison of the engine hot path: the kept-alive naive assembly
   (allocate + hash-resolve every Newton iteration, memo cache off)
   against the incremental workspace path with the cache on, both pinned
   to one domain so the speedup isolates the alloc/caching wins. Results
   land in BENCH_engine.json for machine consumption. *)
let perf_engine_ab () =
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let ratio a b = if b > 0.0 then a /. b else Float.nan in
  let sim_naive =
    { Dramstress_engine.Options.default with naive_assembly = true }
  in
  let sim_fast = Dramstress_engine.Options.default in
  let defect = D.v open_kind D.True_bl 200e3 in
  let run_w0 sim =
    O.run ~config:(Sc.v ~sim ()) ~stress:nominal ~defect ~vc_init:2.4
      [ O.W0 ]
  in
  (* --- transient step cost, ns per accepted time point ------------- *)
  O.Cache.set_enabled O.Cache.default false;
  let trace_points sim =
    let oc = run_w0 sim in
    Array.length oc.O.trace.Dramstress_engine.Transient.times
  in
  let n_pts = trace_points sim_fast in
  let reps = 5 in
  let step_ns sim =
    let dt =
      wall (fun () ->
          for _ = 1 to reps do
            ignore (run_w0 sim)
          done)
    in
    1e9 *. dt /. float_of_int (reps * n_pts)
  in
  let step_naive = step_ns sim_naive in
  let step_fast = step_ns sim_fast in
  (* --- allocation budget of the incremental path ------------------- *)
  (* Acceptance check: the incremental engine must not heap-allocate
     matrices per Newton iteration. Each accepted point runs at least two
     iterations, and one fresh n x n system (n ~ 21 for the column, i.e.
     n*(n+1) > 460 words) would add >= ~900 minor words per point on top
     of the bookkeeping measured here (per-point sample arrays, MOSFET
     evaluation records). The naive path measures >= 10x this bound. *)
  let alloc_limit = 1500.0 in
  let words_per_point sim =
    let w0 = Gc.minor_words () in
    ignore (run_w0 sim);
    (Gc.minor_words () -. w0) /. float_of_int n_pts
  in
  let words_fast = words_per_point sim_fast in
  let words_naive = words_per_point sim_naive in
  let alloc_ok = words_fast <= alloc_limit in
  (* --- fig2-style plane sweep -------------------------------------- *)
  let rops = Dramstress_util.Grid.logspace 1e3 1e6 4 in
  (* the naive/incremental A/B is pinned to one lane so its meaning is
     unchanged by the ensemble engine: both sides sweep the plane one
     one-lane transient at a time, and the speedup isolates the
     assembly/caching wins exactly as before. The batched measurement
     below lifts the lane pin. *)
  let plane_sweep ~lanes sim () =
    let config = Sc.v ~sim ~jobs:1 ~lanes () in
    (* the full Figure 2 plane set: w0 and w1 write planes plus the read
       plane for one defect kind. The three planes share the defect-free
       V_mp bisection and the per-resistance V_sa bisections, which is
       exactly where the memo cache pays off *)
    List.iter
      (fun op ->
        ignore
          (C.Plane.write_plane ~config ~n_ops:2 ~rops ~stress:nominal
             ~kind:open_kind ~placement:D.True_bl ~op ()))
      [ O.W0; O.W1 ];
    ignore
      (C.Plane.read_plane ~config ~n_ops:2 ~rops ~stress:nominal
         ~kind:open_kind ~placement:D.True_bl ())
  in
  O.Cache.set_enabled O.Cache.default false;
  let plane_naive = wall (plane_sweep ~lanes:1 sim_naive) in
  O.Cache.set_enabled O.Cache.default true;
  O.Cache.resize O.Cache.default 512 (* fresh cache: zero stats, cold start *);
  let plane_fast = wall (plane_sweep ~lanes:1 sim_fast) in
  let cache = O.Cache.stats O.Cache.default in
  let hit_rate =
    let total = cache.O.Cache.hits + cache.O.Cache.misses in
    if total = 0 then 0.0 else float_of_int cache.O.Cache.hits /. float_of_int total
  in
  (* --- batched ensemble sweep vs both one-lane sweeps ---------------- *)
  (* same plane set, same single domain, fresh cache: resistances travel
     as ensemble lanes through the shared sparse LU instead of one
     transient per point. The tripwire is the tentpole acceptance: the
     batched sweep must beat the naive baseline by >= 5x. *)
  O.Cache.resize O.Cache.default 512;
  let plane_batched = wall (plane_sweep ~lanes:16 sim_fast) in
  let batch_speedup = ratio plane_naive plane_batched in
  let batch_speedup_limit = 5.0 in
  let batch_speedup_ok = batch_speedup >= batch_speedup_limit in
  (* --- one shmoo row ------------------------------------------------ *)
  let detection =
    C.Detection.v
      [ C.Detection.Write 1; C.Detection.Read 1; C.Detection.Write 0;
        C.Detection.Read 0 ]
  in
  let shmoo_row sim () =
    (* plot + re-plot: a shmoo row is generated, inspected, and generated
       again — the standard edit-and-replot loop of stress exploration.
       The second plot is where the memo cache earns its keep (every grid
       point is distinct within one plot, so a single cold row measures
       assembly wins only). *)
    for _ = 1 to 2 do
      ignore
        (M.Shmoo.generate ~config:(Sc.v ~sim ~jobs:1 ()) ~stress:nominal
           ~defect ~detection
           ~x:(S.Cycle_time, Dramstress_util.Grid.linspace 50e-9 75e-9 6)
           ~y:(S.Supply_voltage, [ 2.4 ])
           ())
    done
  in
  O.Cache.set_enabled O.Cache.default false;
  let shmoo_naive = wall (shmoo_row sim_naive) in
  O.Cache.resize O.Cache.default 512;
  O.Cache.set_enabled O.Cache.default true;
  let shmoo_fast = wall (shmoo_row sim_fast) in
  O.Cache.resize O.Cache.default 512;
  (* --- disabled-telemetry overhead guard ---------------------------- *)
  (* The probes are compiled into the hot path, so there is no probe-free
     build to A/B against. Bound the overhead arithmetically instead:
     measure the unit cost of a disabled probe (one atomic load plus a
     branch), count the probes one workload fires (from an enabled-run
     snapshot), and compare the product against the workload's wall time
     measured above with telemetry off. *)
  Tel.set_enabled false;
  let probe_c = Tel.Counter.make "bench.telemetry.probe" in
  let probe_h =
    Tel.Histogram.make ~lo:1.0 ~hi:10.0 ~buckets:4 "bench.telemetry.probe_ms"
  in
  let probe_reps = 5_000_000 in
  let probe_ns =
    let dt =
      wall (fun () ->
          for _ = 1 to probe_reps do
            Tel.Counter.incr probe_c;
            Tel.Histogram.observe probe_h 1.0
          done)
    in
    1e9 *. dt /. float_of_int (2 * probe_reps)
  in
  O.Cache.set_enabled O.Cache.default false;
  Tel.set_enabled true;
  Tel.reset ();
  ignore (run_w0 sim_fast);
  Tel.set_enabled false;
  let snap = Tel.snapshot () in
  let cval name =
    match List.assoc_opt name snap.Tel.counters with Some n -> n | None -> 0
  in
  (* probe call sites per op: 3 per Newton iteration (factor + solve
     counters, clamp add), 3 per converged solve (solve counter,
     iteration add, histogram), 2 per accepted step (counter + dt
     histogram), 1 per rejection, ~2 per transient run (run counter +
     segment span checks), 3 per Ops request (request + hit-or-miss
     counters + span check) *)
  let probe_calls =
    (3 * cval "engine.newton.iterations")
    + (3 * cval "engine.newton.solves")
    + (2 * cval "engine.transient.steps_accepted")
    + cval "engine.transient.steps_rejected"
    + (2 * cval "engine.transient.runs")
    + (3 * cval "dram.ops.requests")
  in
  Tel.reset ();
  O.Cache.set_enabled O.Cache.default true;
  (* wall time of the same op with telemetry off: step_fast ns/point *)
  let op_wall_s = step_fast *. float_of_int n_pts /. 1e9 in
  let overhead_pct =
    100.0 *. (float_of_int probe_calls *. probe_ns /. 1e9) /. op_wall_s
  in
  let overhead_limit_pct = 2.0 in
  let overhead_ok = overhead_pct <= overhead_limit_pct in
  Printf.printf "  %-34s naive %10.1f   incremental %10.1f   speedup %5.2fx\n"
    "transient step (ns/point)" step_naive step_fast
    (ratio step_naive step_fast);
  Printf.printf "  %-34s naive %10.3f   incremental %10.3f   speedup %5.2fx\n"
    "fig2 plane sweep (s)" plane_naive plane_fast (ratio plane_naive plane_fast);
  Printf.printf
    "  %-34s naive %10.3f   batched     %10.3f   speedup %5.2fx (limit %.0fx: \
     %s)\n"
    "fig2 plane sweep, 16 lanes (s)" plane_naive plane_batched batch_speedup
    batch_speedup_limit
    (if batch_speedup_ok then "ok" else "BELOW");
  Printf.printf "  %-34s naive %10.3f   incremental %10.3f   speedup %5.2fx\n"
    "shmoo row, plot + re-plot (s)" shmoo_naive shmoo_fast
    (ratio shmoo_naive shmoo_fast);
  Printf.printf "  %-34s naive %10.0f   incremental %10.0f   (limit %.0f: %s)\n"
    "minor words / point" words_naive words_fast alloc_limit
    (if alloc_ok then "ok" else "EXCEEDED");
  Printf.printf "  cache hit rate over the plane sweep: %.0f%% (%d hits, %d \
                 misses)\n"
    (100.0 *. hit_rate) cache.O.Cache.hits cache.O.Cache.misses;
  Printf.printf
    "  disabled telemetry: %.2f ns/probe x %d probes/op = %.4f%% of the op \
     (limit %.1f%%: %s)\n"
    probe_ns probe_calls overhead_pct overhead_limit_pct
    (if overhead_ok then "ok" else "EXCEEDED");
  let json =
    Printf.sprintf
      "{\n\
      \  \"jobs\": 1,\n\
      \  \"transient_step_ns_per_point\": { \"naive\": %.1f, \"incremental\": \
       %.1f, \"speedup\": %.2f },\n\
      \  \"fig2_plane_sweep_s\": { \"naive\": %.4f, \"incremental\": %.4f, \
       \"speedup\": %.2f },\n\
      \  \"fig2_plane_batched_s\": { \"naive\": %.4f, \"batched\": %.4f, \
       \"lanes\": %d, \"speedup\": %.2f, \"limit\": %.1f, \"within_limit\": \
       %b },\n\
      \  \"shmoo_plot_replot_s\": { \"naive\": %.4f, \"incremental\": %.4f, \
       \"speedup\": %.2f },\n\
      \  \"plane_cache\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f \
       },\n\
      \  \"minor_words_per_point\": { \"naive\": %.0f, \"incremental\": %.0f, \
       \"limit\": %.0f, \"within_limit\": %b },\n\
      \  \"telemetry_disabled_overhead\": { \"probe_ns\": %.3f, \
       \"probe_calls_per_op\": %d, \"overhead_pct\": %.5f, \"limit_pct\": \
       %.1f, \"overhead_within_limit\": %b }\n\
       }\n"
      step_naive step_fast (ratio step_naive step_fast) plane_naive plane_fast
      (ratio plane_naive plane_fast) plane_naive plane_batched 16 batch_speedup
      batch_speedup_limit batch_speedup_ok shmoo_naive shmoo_fast
      (ratio shmoo_naive shmoo_fast)
      cache.O.Cache.hits cache.O.Cache.misses hit_rate
      words_naive words_fast alloc_limit alloc_ok probe_ns probe_calls
      overhead_pct overhead_limit_pct overhead_ok
  in
  Out_channel.with_open_text "BENCH_engine.json" (fun oc ->
      output_string oc json);
  Printf.printf "  wrote BENCH_engine.json\n"

(* ------------------------------------------------------------------ *)

(* Cost of the numerical health layer: the per-iteration finiteness scan
   of the Newton state and the per-iteration deadline poll must stay
   within 2% of the unguarded hot path. Chaos is dormant unless armed
   through the environment, so this measures the pure guard cost.
   Results land in BENCH_health.json. *)
let health () =
  heading "health" "numerical health guard and deadline overhead";
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let sim_off =
    { Dramstress_engine.Options.default with health_guards = false }
  in
  (* one lane everywhere: a deadline forces one-lane ensembles, so the
     guarded/unguarded/deadline triple must all run one lane wide for a
     like-for-like comparison *)
  let cfg_off = Sc.v ~sim:sim_off ~retry:Sc.no_retry ~jobs:1 ~lanes:1 () in
  let cfg_on = Sc.v ~retry:Sc.no_retry ~jobs:1 ~lanes:1 () in
  (* a generous budget: the poll fires every Newton iteration but the
     deadline never trips, so only the clock reads are priced in *)
  let cfg_deadline =
    Sc.v ~retry:Sc.no_retry ~deadline:3600.0 ~jobs:1 ~lanes:1 ()
  in
  let defect = D.v open_kind D.True_bl 200e3 in
  O.Cache.set_enabled O.Cache.default false;
  (* --- single-op cost, best of several trials to shed scheduler noise *)
  let reps = 20 and trials = 5 in
  let op_s config =
    let best = ref infinity in
    for _ = 1 to trials do
      let dt =
        wall (fun () ->
            for _ = 1 to reps do
              ignore
                (O.run ~config ~stress:nominal ~defect ~vc_init:2.4 [ O.W0 ])
            done)
      in
      if dt < !best then best := dt
    done;
    !best /. float_of_int reps
  in
  let op_off = op_s cfg_off in
  let op_on = op_s cfg_on in
  let op_deadline = op_s cfg_deadline in
  (* --- fig2-style plane sweep: w0 + w1 + read planes, one domain ---- *)
  let rops = Dramstress_util.Grid.logspace 1e3 1e6 4 in
  let plane_sweep config () =
    List.iter
      (fun op ->
        ignore
          (C.Plane.write_plane ~config ~n_ops:2 ~rops ~stress:nominal
             ~kind:open_kind ~placement:D.True_bl ~op ()))
      [ O.W0; O.W1 ];
    ignore
      (C.Plane.read_plane ~config ~n_ops:2 ~rops ~stress:nominal
         ~kind:open_kind ~placement:D.True_bl ())
  in
  let plane_s config =
    let best = ref infinity in
    for _ = 1 to 3 do
      let dt = wall (plane_sweep config) in
      if dt < !best then best := dt
    done;
    !best
  in
  let plane_off = plane_s cfg_off in
  let plane_on = plane_s cfg_on in
  let plane_deadline = plane_s cfg_deadline in
  (* --- arithmetic overhead bound ----------------------------------- *)
  (* The wall-clock A/B above is informative, but scheduler noise on a
     shared host swamps a 2% signal. Bound the guard cost the way the
     telemetry bench does: measure the unit cost of one guard — a
     finiteness scan of a system-sized state vector, and one clock read
     for the deadline poll — count how often an op fires each (once per
     Newton iteration), and compare the product against the op's wall
     time. *)
  let state = Array.make 24 1.0 in
  let unit_ns reps f =
    let dt = wall (fun () -> for _ = 1 to reps do f () done) in
    1e9 *. dt /. float_of_int reps
  in
  let sink = ref 0 in
  let scan_ns =
    unit_ns 2_000_000 (fun () ->
        let bad = ref (-1) in
        for i = 0 to Array.length state - 1 do
          let v = state.(i) in
          if !bad < 0 && not (v -. v = 0.0) then bad := i
        done;
        if !bad >= 0 then incr sink)
  in
  ignore (Sys.opaque_identity !sink);
  let clock_ns =
    unit_ns 2_000_000 (fun () ->
        ignore (Sys.opaque_identity (Unix.gettimeofday ())))
  in
  Tel.set_enabled true;
  Tel.reset ();
  ignore (O.run ~config:cfg_on ~stress:nominal ~defect ~vc_init:2.4 [ O.W0 ]);
  Tel.set_enabled false;
  let snap = Tel.snapshot () in
  let cval name =
    match List.assoc_opt name snap.Tel.counters with Some n -> n | None -> 0
  in
  let iters = cval "engine.newton.iterations" in
  Tel.reset ();
  O.Cache.set_enabled O.Cache.default true;
  (* the deadline clock is read once per 16 checks, with the poll phase
     carried across solves, so an op of k total Newton iterations reads
     the clock ~k/16 times *)
  let polls = iters / 16 in
  let guard_pct = 100.0 *. (float_of_int iters *. scan_ns /. 1e9) /. op_off in
  let deadline_pct =
    guard_pct +. (100.0 *. (float_of_int polls *. clock_ns /. 1e9) /. op_off)
  in
  let limit_pct = 2.0 in
  let guard_ok = guard_pct <= limit_pct in
  let deadline_ok = deadline_pct <= limit_pct in
  Printf.printf
    "  %-34s unguarded %9.2f   guarded %9.2f   +deadline %9.2f\n"
    "single w0 op (ms, wall)" (1e3 *. op_off) (1e3 *. op_on)
    (1e3 *. op_deadline);
  Printf.printf
    "  %-34s unguarded %9.3f   guarded %9.3f   +deadline %9.3f\n"
    "fig2 plane sweep (s, wall)" plane_off plane_on plane_deadline;
  Printf.printf
    "  guard unit cost: %.1f ns/scan x %d iterations + %.1f ns/clock x %d \
     polls per op\n"
    scan_ns iters clock_ns polls;
  Printf.printf "  health guard overhead: %.3f%% (limit %.1f%%: %s)\n"
    guard_pct limit_pct
    (if guard_ok then "ok" else "EXCEEDED");
  Printf.printf "  guard + deadline poll overhead: %.3f%% (limit %.1f%%: %s)\n"
    deadline_pct limit_pct
    (if deadline_ok then "ok" else "EXCEEDED");
  let json =
    Printf.sprintf
      "{\n\
      \  \"jobs\": 1,\n\
      \  \"single_op_s\": { \"unguarded\": %.6f, \"guarded\": %.6f, \
       \"guarded_deadline\": %.6f },\n\
      \  \"plane_sweep_s\": { \"unguarded\": %.5f, \"guarded\": %.5f, \
       \"guarded_deadline\": %.5f },\n\
      \  \"guard_unit\": { \"scan_ns\": %.2f, \"clock_ns\": %.2f, \
       \"newton_iterations_per_op\": %d, \"deadline_polls_per_op\": %d },\n\
      \  \"guard_overhead_pct\": %.4f,\n\
      \  \"deadline_overhead_pct\": %.4f,\n\
      \  \"limit_pct\": %.1f,\n\
      \  \"within_limit\": %b\n\
       }\n"
      op_off op_on op_deadline plane_off plane_on plane_deadline scan_ns
      clock_ns iters polls guard_pct deadline_pct limit_pct
      (guard_ok && deadline_ok)
  in
  Out_channel.with_open_text "BENCH_health.json" (fun oc ->
      output_string oc json);
  Printf.printf "  wrote BENCH_health.json\n"

(* Cost of the campaign layer: store write overhead on a cold run
   against the same physics computed with no store at all, and the
   warm-rerun win. The warm rerun must simulate nothing — that is the
   subsystem's core promise — so the bench doubles as a tripwire.
   Results land in BENCH_campaign.json. *)
let campaign () =
  heading "campaign" "campaign store: cold vs warm, read/write overhead";
  let module Cp = Dramstress_campaign in
  let module St = Dramstress_util.Store in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (Unix.gettimeofday () -. t0, v)
  in
  let mtext =
    {|
(campaign
  (name bench)
  (defects (O1 true))
  (stress nominal)
  (stress low-vdd (vdd 2.1))
  (detections (seq "w1 w1 w0 r0") (seq "w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}
  in
  let m = Cp.Manifest.of_string mtext in
  let points = Cp.Plan.points m in
  let n = List.length points in
  (* the in-process LRU would serve repeat runs from memory and hide the
     store entirely; disable it so every number prices the store *)
  O.Cache.set_enabled O.Cache.default false;
  (* fork the sandbox worker now, while this process is still
     fork-capable and with caching disabled so the worker prices the
     same physics; a process that already spawned domains (earlier
     bench sections with jobs > 1) cannot fork, so the measurement
     degrades to skipped rather than failing the bench *)
  let module Pp = Dramstress_util.Procpool in
  let pool =
    match Pp.create ~workers:1 ~worker:Cp.Sandbox.worker () with
    | pool -> Ok pool
    | exception e -> Error (Printexc.to_string e)
  in
  (* baseline: the same physics with no persistence anywhere *)
  let direct, () =
    wall (fun () ->
        List.iter
          (fun (p : Cp.Plan.point) ->
            let d =
              match p.Cp.Plan.detection with
              | Cp.Manifest.Seq d -> d
              | _ -> assert false
            in
            ignore
              (C.Border.search ~config:m.Cp.Manifest.config
                 ~window:
                   (C.Border.Window.v ~r_min:1e4 ~r_max:1e8 ~grid_points:5
                      ~rel_tol:0.05 ())
                 ~stress:p.Cp.Plan.stress ~kind:p.Cp.Plan.defect.D.kind
                 ~placement:p.Cp.Plan.placement d))
          points)
  in
  let dir = Filename.temp_file "dramstress_bench_campaign" "" in
  Sys.remove dir;
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ())
  @@ fun () ->
  let run () =
    let s = St.open_ ~name:"bench" dir in
    Fun.protect
      ~finally:(fun () -> St.close s)
      (fun () -> Cp.Runner.run ~jobs:1 ~store:s m)
  in
  let cold, cold_sum = wall run in
  let warm, warm_sum = wall run in
  (* the same campaign against a fingerprint-sharded store — the layout
     the campaign service uses — prices the per-shard open/index cost *)
  let sh_dir = dir ^ ".sharded" in
  Fun.protect ~finally:(fun () -> try rm sh_dir with Sys_error _ -> ())
  @@ fun () ->
  let run_sharded () =
    let s = St.open_ ~shards:16 ~name:"bench" sh_dir in
    Fun.protect
      ~finally:(fun () -> St.close s)
      (fun () -> Cp.Runner.run ~jobs:1 ~store:s m)
  in
  let sh_cold, _ = wall run_sharded in
  let sh_warm, sh_warm_sum = wall run_sharded in
  (* the same cold campaign through the service's sandboxed worker
     pool: every point crosses a pipe to a forked worker and the result
     crosses back, which prices process isolation against the
     in-process cold run above *)
  let sb_dir = dir ^ ".sandbox" in
  let sandbox =
    match pool with
    | Error reason -> Error reason
    | Ok pool ->
      Fun.protect
        ~finally:(fun () ->
          Pp.shutdown pool;
          try rm sb_dir with Sys_error _ -> ())
        (fun () ->
          let run_sandboxed () =
            let s = St.open_ ~name:"bench" sb_dir in
            Fun.protect
              ~finally:(fun () -> St.close s)
              (fun () ->
                let executor =
                  Cp.Sandbox.executor pool ~manifest_text:mtext m
                in
                Cp.Runner.run ~jobs:1 ~executor ~fanout:`Threads ~store:s m)
          in
          match wall run_sandboxed with
          | t, sum -> Ok (t, sum)
          | exception e -> Error (Printexc.to_string e))
  in
  (* a batched wait-axis (retention) sweep through the same store
     machinery: prices the decay transient the new stress axis adds per
     point, and tripwires warm reuse on extended-fingerprint records *)
  let wmtext =
    {|
(campaign
  (name bench-wait)
  (defects (O1 true))
  (sweep (wait (range 0.01 1.0 3)))
  (detections (seq "w1 w0 r0"))
  (border (r-min 1e4) (r-max 1e8) (grid-points 5) (rel-tol 0.05)))
|}
  in
  let wm = Cp.Manifest.of_string wmtext in
  let wn = List.length (Cp.Plan.points wm) in
  let w_dir = dir ^ ".wait" in
  Fun.protect ~finally:(fun () -> try rm w_dir with Sys_error _ -> ())
  @@ fun () ->
  let run_wait () =
    let s = St.open_ ~name:"bench" w_dir in
    Fun.protect
      ~finally:(fun () -> St.close s)
      (fun () -> Cp.Runner.run ~jobs:1 ~store:s wm)
  in
  let w_cold, _ = wall run_wait in
  let w_warm, w_warm_sum = wall run_wait in
  O.Cache.set_enabled O.Cache.default true;
  let ratio a b = if b > 0.0 then a /. b else Float.nan in
  let write_overhead_pct = 100.0 *. (ratio cold direct -. 1.0) in
  let warm_speedup = ratio cold warm in
  (* tripwires: full reuse, and the warm run must actually be cheap *)
  let reuse_ok =
    warm_sum.Cp.Runner.simulated = 0 && warm_sum.Cp.Runner.reused = n
  in
  let speedup_limit = 5.0 in
  let speedup_ok = warm_speedup >= speedup_limit in
  Printf.printf "  %-40s %10.4f s\n" "direct (no store)" direct;
  Printf.printf "  %-40s %10.4f s   (write overhead %+.1f%%)\n"
    "cold run (store populated)" cold write_overhead_pct;
  Printf.printf "  %-40s %10.4f s   (speedup %.0fx, limit %.0fx: %s)\n"
    "warm rerun (store only)" warm warm_speedup speedup_limit
    (if speedup_ok then "ok" else "EXCEEDED");
  Printf.printf "  %-40s %d/%d reused, %d simulated (%s)\n"
    "warm reuse" warm_sum.Cp.Runner.reused n warm_sum.Cp.Runner.simulated
    (if reuse_ok then "ok" else "VIOLATION: warm run recomputed");
  Printf.printf "  %-40s %10.1f us/point\n" "store read cost, warm"
    (1e6 *. warm /. float_of_int n);
  let sh_reuse_ok =
    sh_warm_sum.Cp.Runner.simulated = 0 && sh_warm_sum.Cp.Runner.reused = n
  in
  Printf.printf "  %-40s %10.4f s   (vs single-file %+.1f%%)\n"
    "cold run, 16-way sharded store" sh_cold
    (100.0 *. (ratio sh_cold cold -. 1.0));
  Printf.printf "  %-40s %10.4f s   (%d/%d reused: %s)\n"
    "warm rerun, 16-way sharded store" sh_warm sh_warm_sum.Cp.Runner.reused n
    (if sh_reuse_ok then "ok" else "VIOLATION: warm run recomputed");
  let w_reuse_ok =
    w_warm_sum.Cp.Runner.simulated = 0 && w_warm_sum.Cp.Runner.reused = wn
  in
  Printf.printf "  %-40s %10.4f s   (%d points, %.1f ms/point)\n"
    "cold wait sweep (0.01..1 s, log)" w_cold wn
    (1e3 *. w_cold /. float_of_int (Int.max 1 wn));
  Printf.printf "  %-40s %10.4f s   (%d/%d reused: %s)\n"
    "warm wait sweep" w_warm w_warm_sum.Cp.Runner.reused wn
    (if w_reuse_ok then "ok" else "VIOLATION: warm run recomputed");
  let sandbox_limit_pct = 15.0 in
  let sandbox_json =
    match sandbox with
    | Error reason ->
      Printf.printf "  %-40s skipped (%s)\n" "cold run, sandboxed worker pool"
        reason;
      Printf.sprintf "{ \"skipped\": true, \"reason\": %S }" reason
    | Ok (sb_cold, sb_sum) ->
      let overhead_pct = 100.0 *. (ratio sb_cold cold -. 1.0) in
      let within = overhead_pct <= sandbox_limit_pct in
      let clean =
        sb_sum.Cp.Runner.simulated = n
        && List.length sb_sum.Cp.Runner.failures = 0
      in
      Printf.printf
        "  %-40s %10.4f s   (vs in-process %+.1f%%, limit %.0f%%: %s)\n"
        "cold run, sandboxed worker pool" sb_cold overhead_pct
        sandbox_limit_pct
        (if within then "ok" else "EXCEEDED");
      if not clean then
        Printf.printf "  %-40s VIOLATION: %d simulated, %d failures\n"
          "sandboxed run" sb_sum.Cp.Runner.simulated
          (List.length sb_sum.Cp.Runner.failures);
      Printf.sprintf
        "{ \"skipped\": false, \"workers\": 1, \"cold_s\": %.5f, \
         \"inprocess_cold_s\": %.5f, \"overhead_pct\": %.2f, \"limit_pct\": \
         %.1f, \"within_limit\": %b, \"clean\": %b }"
        sb_cold cold overhead_pct sandbox_limit_pct within clean
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"jobs\": 1,\n\
      \  \"points\": %d,\n\
      \  \"wall_s\": { \"direct\": %.5f, \"cold\": %.5f, \"warm\": %.5f },\n\
      \  \"store_write_overhead_pct\": %.2f,\n\
      \  \"warm_speedup\": { \"value\": %.1f, \"limit\": %.1f, \
       \"within_limit\": %b },\n\
      \  \"warm_reuse\": { \"reused\": %d, \"simulated\": %d, \"full_reuse\": \
       %b },\n\
      \  \"sharded\": { \"shards\": 16, \"cold_s\": %.5f, \"warm_s\": %.5f, \
       \"full_reuse\": %b },\n\
      \  \"wait_sweep\": { \"points\": %d, \"cold_s\": %.5f, \"warm_s\": \
       %.5f, \"full_reuse\": %b },\n\
      \  \"sandbox\": %s\n\
       }\n"
      n direct cold warm write_overhead_pct warm_speedup speedup_limit
      speedup_ok warm_sum.Cp.Runner.reused warm_sum.Cp.Runner.simulated
      reuse_ok sh_cold sh_warm sh_reuse_ok wn w_cold w_warm w_reuse_ok
      sandbox_json
  in
  Out_channel.with_open_text "BENCH_campaign.json" (fun oc ->
      output_string oc json);
  Printf.printf "  wrote BENCH_campaign.json\n";
  ignore cold_sum

let perf () =
  heading "perf" "engine micro-benchmarks (Bechamel)";
  let open Bechamel in
  let lu_input =
    let n = 24 in
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 10.0 else 1.0 /. float_of_int (1 + i + j)))
  in
  let rhs = Array.init 24 (fun i -> float_of_int i) in
  let defect = D.v open_kind D.True_bl 200e3 in
  let tests =
    Test.make_grouped ~name:"dramstress"
      [
        Test.make ~name:"lu_factor_solve_24"
          (Staged.stage (fun () ->
               ignore
                 (Dramstress_util.Linalg.lu_solve
                    (Dramstress_util.Linalg.lu_factor lu_input)
                    rhs)));
        Test.make ~name:"single_w0_op"
          (Staged.stage (fun () ->
               ignore (O.run ~stress:nominal ~defect ~vc_init:2.4 [ O.W0 ])));
        Test.make ~name:"read_threshold_vsa"
          (Staged.stage (fun () ->
               ignore (C.Plane.vsa ~stress:nominal ~defect ())));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  (* memoization off: the micro-benchmarks time the simulation itself,
     not cache lookups *)
  O.Cache.set_enabled O.Cache.default false;
  let raw = Benchmark.all cfg instances tests in
  O.Cache.set_enabled O.Cache.default true;
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "  %-44s %14.1f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-44s (no estimate)\n" name)
    results;
  Printf.printf "\n  -- naive vs incremental engine (1 domain) --\n";
  perf_engine_ab ()

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("fig2", fig2); ("fig3", fig3); ("fig4", fig4); ("fig5", fig5);
    ("fig6", fig6); ("fig7", fig7); ("table1", table1); ("shmoo", shmoo);
    ("methods", methods); ("ablation", ablation); ("perf", perf);
    ("health", health); ("campaign", campaign);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ :: [] | [] -> List.map fst all_targets
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
  Printf.printf "\n(total bench cpu time: %.1f s)\n" (Sys.time () -. t0)
