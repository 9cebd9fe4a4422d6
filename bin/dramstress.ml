(* Command-line front end: fault analysis, BR search, stress
   optimization, Table-1 generation, Shmoo plots and march-coverage
   comparisons on the electrical DRAM column model. *)

module S = Dramstress_dram.Stress
module D = Dramstress_defect.Defect
module O = Dramstress_dram.Ops
module C = Dramstress_core
module M = Dramstress_march
open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let defect_kind_conv =
  let parse s =
    match D.find_entry s with
    | Some e -> Ok e.D.kind
    | None -> Error (`Msg ("unknown defect id: " ^ s ^ " (use O1..O3, Sg, Sv, B1, B2)"))
  in
  let print ppf k = D.pp_kind ppf k in
  Arg.conv (parse, print)

let placement_conv =
  let parse = function
    | "true" | "t" -> Ok D.True_bl
    | "comp" | "c" -> Ok D.Comp_bl
    | s -> Error (`Msg ("placement must be true|comp, got " ^ s))
  in
  Arg.conv (parse, D.pp_placement)

let kind_arg =
  Arg.(value & opt defect_kind_conv (D.Open_cell D.At_bitline_contact)
       & info [ "d"; "defect" ] ~docv:"ID" ~doc:"Defect to analyse (O1..O3, Sg, Sv, B1, B2).")

let placement_arg =
  Arg.(value & opt placement_conv D.True_bl
       & info [ "p"; "placement" ] ~docv:"SIDE" ~doc:"Bit-line placement: true or comp.")

let r_arg =
  Arg.(value & opt float 200e3
       & info [ "r"; "resistance" ] ~docv:"OHM" ~doc:"Defect resistance in ohm.")

let tcyc_arg =
  Arg.(value & opt float 60e-9 & info [ "tcyc" ] ~docv:"S" ~doc:"Cycle time, seconds.")

let vdd_arg =
  Arg.(value & opt float 2.4 & info [ "vdd" ] ~docv:"V" ~doc:"Supply voltage.")

let temp_arg =
  Arg.(value & opt float 27.0 & info [ "temp" ] ~docv:"C" ~doc:"Temperature, Celsius.")

let duty_arg =
  Arg.(value & opt float 0.5 & info [ "duty" ] ~docv:"F" ~doc:"Clock duty cycle.")

(* extension axes, all neutral by default (see Stressaxis) *)
let wait_arg =
  Arg.(value & opt float 0.0
       & info [ "wait" ] ~docv:"S"
           ~doc:"Retention wait inserted before the first read, seconds.")

let pattern_conv =
  let parse s =
    match S.pattern_of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg ("pattern must be all0|all1|checkerboard, got " ^ s))
  in
  Arg.conv (parse, S.pp_pattern)

let pattern_arg =
  Arg.(value & opt pattern_conv S.All_1
       & info [ "pattern" ] ~docv:"PAT"
           ~doc:"Data background on the neighbour cell: all0, all1 or \
                 checkerboard.")

let hammer_arg =
  Arg.(value & opt int 0
       & info [ "hammer" ] ~docv:"N"
           ~doc:"Aggressor word-line pulses inserted before the first read.")

let leak_arg =
  Arg.(value & opt float 0.0
       & info [ "leak" ] ~docv:"S(IEMENS)"
           ~doc:"Storage-node leakage conductance, siemens.")

let couple_arg =
  Arg.(value & opt float 0.0
       & info [ "couple" ] ~docv:"F"
           ~doc:"Cell-to-cell coupling capacitance as a fraction of C_cell.")

let twr_trim_arg =
  Arg.(value & opt float 0.0
       & info [ "twr-trim" ] ~docv:"S"
           ~doc:"Additive trim on the write-enable instant (tWR-style).")

let tras_trim_arg =
  Arg.(value & opt float 0.0
       & info [ "tras-trim" ] ~docv:"S"
           ~doc:"Additive trim on the word-line deactivation (tRAS-style).")

(* one Term bundling every stress flag, so each command crosses the
   extension axes with the paper's four without its own plumbing *)
let stress_term =
  let v tcyc vdd temp duty wait pattern hammer leak couple twr_trim tras_trim
      =
    {
      S.tcyc;
      vdd;
      temp_c = temp;
      duty;
      wait;
      pattern;
      hammer;
      leak;
      couple;
      twr_trim;
      tras_trim;
    }
  in
  Term.(const v $ tcyc_arg $ vdd_arg $ temp_arg $ duty_arg $ wait_arg
        $ pattern_arg $ hammer_arg $ leak_arg $ couple_arg $ twr_trim_arg
        $ tras_trim_arg)

(* repeatable --axis flag: which axes a direction analysis probes *)
let axes_term =
  let axis_conv =
    let parse s =
      match Dramstress_stressaxis.Stressaxis.find s with
      | Some e -> Ok e.Dramstress_stressaxis.Stressaxis.axis
      | None ->
        Error
          (`Msg
             ("unknown stress axis " ^ s ^ " (use "
             ^ String.concat "|" (Dramstress_stressaxis.Stressaxis.names ())
             ^ ")"))
    in
    Arg.conv (parse, S.pp_axis)
  in
  let v = function [] -> None | axes -> Some axes in
  Term.(
    const v
    $ Arg.(value & opt_all axis_conv []
           & info [ "axis" ] ~docv:"AXIS"
               ~doc:"Stress axis to probe (repeatable); default: the \
                     paper's tcyc, temp, vdd."))

(* border-search window flags, shared by the commands that search *)
let r_min_arg =
  Arg.(value & opt (some float) None
       & info [ "r-min" ] ~docv:"OHM" ~doc:"Border-search window low end.")

let r_max_arg =
  Arg.(value & opt (some float) None
       & info [ "r-max" ] ~docv:"OHM" ~doc:"Border-search window high end.")

let grid_points_arg =
  Arg.(value & opt (some int) None
       & info [ "grid-points" ] ~docv:"N"
           ~doc:"Border-search log-grid resolution.")

let rel_tol_arg =
  Arg.(value & opt (some float) None
       & info [ "rel-tol" ] ~docv:"TOL"
           ~doc:"Relative tolerance of edge bisection.")

let adaptive_arg =
  Arg.(value & flag
       & info [ "adaptive" ]
           ~doc:"Scan the border window adaptively (sparse probing of the \
                 same grid) instead of exhaustively.")

let window_term =
  let v r_min r_max grid_points rel_tol adaptive =
    C.Border.Window.v ?r_min ?r_max ?grid_points ?rel_tol
      ~strategy:
        (if adaptive then C.Border.Window.Adaptive else C.Border.Window.Grid)
      ()
  in
  Term.(const v $ r_min_arg $ r_max_arg $ grid_points_arg $ rel_tol_arg
        $ adaptive_arg)

(* ------------------------------------------------------------------ *)
(* telemetry: --metrics / --trace on every subcommand                  *)
(* ------------------------------------------------------------------ *)

module Tel = Dramstress_util.Telemetry

let metrics_arg =
  let fmt = Arg.enum [ ("human", `Human); ("json", `Json) ] in
  Arg.(value & opt (some fmt) None
       & info [ "metrics" ] ~docv:"FMT"
           ~doc:"Enable telemetry and report collected metrics when the \
                 command finishes: $(b,human) prints an aligned table on \
                 stderr, $(b,json) prints one JSON object on stdout (or \
                 to $(b,--metrics-out)).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the $(b,--metrics) report to FILE instead of the \
                 standard streams.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Enable telemetry and stream span events: $(b,stderr) (or \
                 $(b,pretty)) for human-readable lines, anything else as \
                 a JSON-lines file path. Overrides DRAMSTRESS_TRACE.")

let cache_stats_json (c : O.Cache.stats) =
  Printf.sprintf
    "{ \"requests\": %d, \"hits\": %d, \"misses\": %d, \"evictions\": %d, \
     \"entries\": %d, \"capacity\": %d }"
    c.O.Cache.requests c.O.Cache.hits c.O.Cache.misses c.O.Cache.evictions
    c.O.Cache.entries c.O.Cache.capacity

(* returns the finish hook that renders the metrics report; the command
   body runs inside [with_telemetry] so the report happens on both
   success and failure *)
let telemetry_setup metrics metrics_out trace =
  Tel.configure_from_env ();
  (match trace with
  | Some ("stderr" | "pretty") ->
    Tel.set_enabled true;
    Tel.set_sink Tel.Sink.stderr_pretty
  | Some path ->
    Tel.set_enabled true;
    Tel.set_sink (Tel.Sink.jsonl_file path)
  | None -> ());
  if metrics <> None then Tel.set_enabled true;
  fun () ->
    Tel.close_sink ();
    match metrics with
    | None -> ()
    | Some fmt ->
      let snap = Tel.snapshot () in
      let cache = O.Cache.(stats default) in
      let write_to default_channel out =
        match metrics_out with
        | Some file ->
          let oc = open_out file in
          output_string oc out;
          close_out oc
        | None ->
          output_string default_channel out;
          flush default_channel
      in
      (match fmt with
      | `Human ->
        write_to stderr
          (Tel.render_table snap
          ^ Printf.sprintf
              "cache: %d requests, %d hits, %d misses, %d evictions \
               (%d/%d entries)\n"
              cache.O.Cache.requests cache.O.Cache.hits cache.O.Cache.misses
              cache.O.Cache.evictions cache.O.Cache.entries
              cache.O.Cache.capacity)
      | `Json ->
        write_to stdout
          (Tel.to_json ~extra:[ ("cache_stats", cache_stats_json cache) ] snap))

let telemetry_term =
  Term.(const telemetry_setup $ metrics_arg $ metrics_out_arg $ trace_arg)

let with_telemetry finish f =
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* ------------------------------------------------------------------ *)
(* persistence: --store DIR on the sweep subcommands                   *)
(* ------------------------------------------------------------------ *)

module Store = Dramstress_util.Store

(* the store is closed (flushed, index rewritten) whether the command
   succeeds or dies mid-sweep: the next run picks up whatever was
   recorded *)
let with_store ~name dir f =
  let store = Store.open_ ~name dir in
  Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f store)

let sweep_store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Record per-point sweep results in the campaign store DIR \
                 (created if needed) as the command progresses. An \
                 existing store is replayed first, so rerunning an \
                 interrupted command with the same $(b,--store) \
                 recomputes only what is missing.")

(* a sweep subcommand's memos go through the handle its own name routes
   to, so single-file and sharded stores both work *)
let with_sweep_store ~cmd dir f =
  match dir with
  | None -> f None
  | Some dir ->
    with_store ~name:cmd dir (fun store ->
        f (Some (Store.checkpoint_for store ~key:cmd)))

(* ------------------------------------------------------------------ *)
(* failed-point exit policy: --fail-on-error on sweep subcommands      *)
(* ------------------------------------------------------------------ *)

let fail_on_error_arg =
  Arg.(value & flag
       & info [ "fail-on-error" ]
           ~doc:"Exit non-zero when any sweep point failed: status 4 if \
                 every failure exhausted its retry ladder \
                 (infrastructure gave up), status 3 if any point failed \
                 for another reason (numerical health, timeout, \
                 injected fault). Failed points are always reported in \
                 the output; this flag additionally surfaces them to \
                 scripts and CI.")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SEC"
           ~doc:"Wall-clock budget per sweep point, covering the point's \
                 whole retry ladder. A point that exceeds it is cut off \
                 cooperatively and reported as a timed-out failure while \
                 the rest of the campaign proceeds.")

let config_of_deadline =
  Option.map (fun d -> Dramstress_dram.Sim_config.v ~deadline:d ())

(* called AFTER the telemetry/store wrappers have unwound, so
   [exit] cannot skip their finalizers *)
let failures_exit ~fail_on_error errors =
  if fail_on_error && errors <> [] then begin
    let exhausted_only =
      List.for_all
        (function O.Exhausted_retries _ -> true | _ -> false)
        errors
    in
    exit (if exhausted_only then 4 else 3)
  end

(* ------------------------------------------------------------------ *)
(* run: execute an operation sequence                                  *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let seq_arg =
    Arg.(value & pos 0 string "w1 w1 w0 r"
         & info [] ~docv:"SEQ" ~doc:"Operation sequence, e.g. 'w1 w1 w0 r' or 'w0 p1e-3 r'.")
  in
  let vc_arg =
    Arg.(value & opt float 0.0 & info [ "vc" ] ~docv:"V" ~doc:"Initial cell voltage.")
  in
  let run tel seq kind placement r vc stress =
    with_telemetry tel @@ fun () ->
    let defect = D.v kind placement r in
    let ops = O.parse_seq seq in
    let outcome = O.run ~stress ~defect ~vc_init:vc ops in
    Format.printf "defect: %a@.stress: %a@." D.pp defect S.pp stress;
    List.iter
      (fun res ->
        Format.printf "  %-6s vc_end=%6.3f V%s@."
          (Format.asprintf "%a" O.pp_op res.O.op)
          res.O.vc_end
          (match res.O.sensed with
          | Some b -> Printf.sprintf "  sensed=%d" b
          | None -> ""))
      outcome.O.results
  in
  Cmd.v (Cmd.info "run" ~doc:"Run an operation sequence on a defective column")
    Term.(const run $ telemetry_term $ seq_arg $ kind_arg
          $ placement_arg $ r_arg $ vc_arg $ stress_term)

(* ------------------------------------------------------------------ *)
(* plane: figure 2 / figure 6                                          *)
(* ------------------------------------------------------------------ *)

let plane_cmd =
  let points_arg =
    Arg.(value & opt (some int) None
         & info [ "points" ] ~docv:"N"
             ~doc:"Number of resistance points per plane (default 12); \
                   small values make quick smoke runs.")
  in
  let run tel store fail_on_error deadline kind placement points stress =
    let failures =
      with_telemetry tel @@ fun () ->
      with_sweep_store ~cmd:"plane" store @@ fun checkpoint ->
      let rops =
        Option.map
          (fun n ->
            if n < 2 then failwith "plane: --points must be >= 2"
            else Dramstress_util.Grid.logspace 1e3 1e6 n)
          points
      in
      let rendered, failures =
        C.Report.figure2_with_failures
          ?config:(config_of_deadline deadline)
          ?checkpoint ?rops ~stress ~kind ~placement ()
      in
      print_string rendered;
      List.map (fun f -> f.Dramstress_util.Outcome.error) failures
    in
    failures_exit ~fail_on_error failures
  in
  Cmd.v (Cmd.info "plane" ~doc:"Generate the w0/w1/r result planes (Figures 2 and 6)")
    Term.(const run $ telemetry_term $ sweep_store_arg $ fail_on_error_arg
          $ deadline_arg $ kind_arg $ placement_arg $ points_arg
          $ stress_term)

(* ------------------------------------------------------------------ *)
(* br: border resistance                                               *)
(* ------------------------------------------------------------------ *)

let br_cmd =
  let detection_conv =
    let parse s =
      Result.map_error (fun msg -> `Msg msg) (C.Detection.of_string s)
    in
    Arg.conv (parse, C.Detection.pp)
  in
  let cond_arg =
    Arg.(value & opt (some detection_conv) None
         & info [ "condition" ] ~docv:"SEQ"
             ~doc:"Detection condition, e.g. 'w1 w1 w0 r0' or 'w1,p1e-3,r'; \
                   reads carry their expected bit (a bare $(b,r) expects \
                   the last written one). Default: synthesized best.")
  in
  let run tel store window kind placement cond stress =
    with_telemetry tel @@ fun () ->
    with_sweep_store ~cmd:"br" store @@ fun checkpoint ->
    match cond with
    | Some detection ->
      let br =
        C.Border.search ?checkpoint ~window ~stress ~kind ~placement
          detection
      in
      Format.printf "%a under %a: %a@." C.Detection.pp detection S.pp stress
        C.Border.pp_result br
    | None ->
      let detection, br =
        C.Sc_eval.best_detection ?checkpoint ~window ~stress ~kind ~placement
          ()
      in
      Format.printf "best detection %a under %a: %a@." C.Detection.pp
        detection S.pp stress C.Border.pp_result br
  in
  Cmd.v (Cmd.info "br" ~doc:"Search the border resistance of a defect")
    Term.(const run $ telemetry_term $ sweep_store_arg $ window_term
          $ kind_arg $ placement_arg $ cond_arg $ stress_term)

(* ------------------------------------------------------------------ *)
(* stress: full optimization for one defect                            *)
(* ------------------------------------------------------------------ *)

let stress_cmd =
  let run tel store window kind placement nominal axes =
    with_telemetry tel @@ fun () ->
    with_sweep_store ~cmd:"stress" store @@ fun checkpoint ->
    let e =
      C.Sc_eval.evaluate ?checkpoint ~window ?axes ~nominal ~kind ~placement
        ()
    in
    Format.printf "%a@." C.Sc_eval.pp e
  in
  Cmd.v (Cmd.info "stress" ~doc:"Optimize the stress combination for one defect (Section 4)")
    Term.(const run $ telemetry_term $ sweep_store_arg $ window_term
          $ kind_arg $ placement_arg $ stress_term $ axes_term)

(* ------------------------------------------------------------------ *)
(* table1                                                              *)
(* ------------------------------------------------------------------ *)

let table1_cmd =
  let quick_arg =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"One open representative instead of O1..O3.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write CSV to FILE.")
  in
  let run tel store fail_on_error deadline quick csv axes =
    let failures =
      with_telemetry tel @@ fun () ->
      with_sweep_store ~cmd:"table1" store @@ fun checkpoint ->
      let entries =
        if quick then
          List.filter (fun (e : D.entry) -> e.D.id <> "O2" && e.D.id <> "O3")
            D.catalog
        else D.catalog
      in
      let table =
        C.Table1.generate
          ?config:(config_of_deadline deadline)
          ?checkpoint ?axes ~entries ()
      in
      print_string (C.Table1.render table);
      Option.iter
        (fun file ->
          Dramstress_util.Csvout.write_file file (C.Table1.to_csv table))
        csv;
      List.map
        (fun f -> f.Dramstress_util.Outcome.error)
        table.C.Table1.failures
    in
    failures_exit ~fail_on_error failures
  in
  Cmd.v (Cmd.info "table1" ~doc:"Reproduce the paper's Table 1 over the defect catalog")
    Term.(const run $ telemetry_term $ sweep_store_arg $ fail_on_error_arg
          $ deadline_arg $ quick_arg $ csv_arg $ axes_term)

(* ------------------------------------------------------------------ *)
(* shmoo                                                               *)
(* ------------------------------------------------------------------ *)

let shmoo_cmd =
  let run tel store kind placement r =
    with_telemetry tel @@ fun () ->
    with_sweep_store ~cmd:"shmoo" store @@ fun checkpoint ->
    let stress = S.nominal in
    let defect = D.v kind placement r in
    let detection =
      C.Detection.standard ~victim:(D.logical_victim kind placement) ~primes:2
    in
    let shmoo =
      M.Shmoo.generate ?checkpoint ~stress ~defect ~detection
        ~x:(S.Cycle_time, Dramstress_util.Grid.linspace 45e-9 75e-9 13)
        ~y:(S.Supply_voltage, Dramstress_util.Grid.linspace 1.8 3.0 9)
        ()
    in
    print_string (M.Shmoo.render shmoo);
    Printf.printf "fail fraction: %.2f\n" (M.Shmoo.fail_fraction shmoo)
  in
  Cmd.v (Cmd.info "shmoo" ~doc:"Traditional Shmoo plot (Section 2) for a defect")
    Term.(const run $ telemetry_term $ sweep_store_arg $ kind_arg
          $ placement_arg $ r_arg)

(* ------------------------------------------------------------------ *)
(* march                                                               *)
(* ------------------------------------------------------------------ *)

let march_cmd =
  let run tel store kind placement =
    with_telemetry tel @@ fun () ->
    with_sweep_store ~cmd:"march" store @@ fun checkpoint ->
    let stress = S.nominal in
    let cases =
      M.Coverage.standard_faults
      @ M.Coverage.electrical_faults ~stress ~kind ~placement ()
    in
    let detection, _ =
      C.Sc_eval.best_detection ?checkpoint ~stress ~kind ~placement ()
    in
    let tests =
      [ M.March.mats_plus; M.March.march_x; M.March.march_y;
        M.March.march_c_minus;
        M.March.of_detection ~name:"synthesized" detection ]
    in
    print_string (M.Coverage.render (M.Coverage.compare_tests tests cases))
  in
  Cmd.v (Cmd.info "march" ~doc:"Fault coverage of standard march tests vs the synthesized condition")
    Term.(const run $ telemetry_term $ sweep_store_arg $ kind_arg
          $ placement_arg)

(* ------------------------------------------------------------------ *)
(* sim: transient on a SPICE deck                                      *)
(* ------------------------------------------------------------------ *)

let sim_cmd =
  let deck_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"DECK" ~doc:"SPICE deck file.")
  in
  let tstop_arg =
    Arg.(value & opt float 100e-9 & info [ "tstop" ] ~docv:"S" ~doc:"Stop time.")
  in
  let dt_arg =
    Arg.(value & opt float 0.1e-9 & info [ "dt" ] ~docv:"S" ~doc:"Time step.")
  in
  let probes_arg =
    Arg.(non_empty & opt (list string) []
         & info [ "probe" ] ~docv:"NODES" ~doc:"Comma-separated node names to record.")
  in
  let ic_arg =
    Arg.(value & opt_all (pair ~sep:'=' string float) []
         & info [ "ic" ] ~docv:"NODE=V" ~doc:"Initial condition (repeatable).")
  in
  let run tel deck tstop dt probes ics =
    with_telemetry tel @@ fun () ->
    let nl = Dramstress_circuit.Spice.parse_file deck in
    let compiled = Dramstress_circuit.Netlist.compile nl in
    let result =
      match
        Dramstress_engine.Ensemble.run compiled
          ~segments:[ (tstop, dt) ]
          ~lanes:[| { Dramstress_engine.Ensemble.ics; override = None } |]
          ~probes ()
      with
      | [| Ok result |] -> result
      | [| Error e |] -> raise e
      | _ -> assert false
    in
    let rows =
      Array.to_list
        (Array.mapi
           (fun k t ->
             t
             :: Array.to_list
                  (Array.map
                     (fun vs -> vs.(k))
                     result.Dramstress_engine.Transient.probe_values))
           result.Dramstress_engine.Transient.times)
    in
    print_string
      (Dramstress_util.Csvout.of_floats ~header:("time_s" :: probes) rows)
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Transient-simulate a SPICE deck, CSV to stdout")
    Term.(const run $ telemetry_term $ deck_arg $ tstop_arg
          $ dt_arg $ probes_arg $ ic_arg)

(* ------------------------------------------------------------------ *)
(* chaos: deterministic fault-injection self-test                      *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let module Chaos = Dramstress_util.Chaos in
  let module Par = Dramstress_util.Par in
  let module Out = Dramstress_util.Outcome in
  let module Sc = Dramstress_dram.Sim_config in
  let module E = Dramstress_engine in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Chaos seed; different seeds strike different points \
                   of the campaigns but every seed must satisfy the \
                   same invariants.")
  in
  let run tel seed =
    let violations =
      with_telemetry tel @@ fun () ->
      Fun.protect ~finally:(fun () -> Chaos.disarm ()) @@ fun () ->
      (* reconciliation reads the telemetry counters, so the harness
         runs with telemetry on regardless of --metrics *)
      Tel.set_enabled true;
      let violations = ref 0 in
      let check name ok =
        Printf.printf "  %-52s %s\n%!" name
          (if ok then "ok" else "VIOLATION");
        if not ok then incr violations
      in
      let counter name =
        let snap = Tel.snapshot () in
        Option.value ~default:0 (List.assoc_opt name snap.Tel.counters)
      in
      let points = [ 100e3; 200e3; 400e3; 800e3; 1600e3 ] in
      let open_defect r = D.v (D.Open_cell D.At_bitline_contact) D.True_bl r in
      (* jobs = 1 keeps the per-fault query order deterministic, which
         is what makes exact failure accounting assertable *)
      let sweep ?(config = Sc.v ()) () =
        let cache = O.Cache.create () in
        Par.parallel_map_outcomes ~jobs:1 ~retries_of:O.retries_of
          (fun r ->
            let oc =
              O.run ~config ~cache ~stress:S.nominal ~defect:(open_defect r)
                ~vc_init:2.4 [ O.W0; O.R ]
            in
            (List.hd oc.O.results).O.vc_end)
          points
      in
      let structured = function
        | E.Newton.Numerical_health _ | E.Newton.No_convergence _
        | E.Newton.Timeout _ | E.Transient.Step_failed _
        | O.Exhausted_retries _ | Chaos.Injected_fault _ ->
          true
        | _ -> false
      in
      let accounted outs =
        List.length outs = List.length points
        && List.for_all
             (function
               | Out.Ok v -> Float.is_finite v
               | Out.Failed f -> structured f.Out.error)
             outs
      in
      let expected_total = ref 0 in
      let t0_injected = counter "util.chaos.injected" in
      let t0_class =
        List.map
          (fun f -> (f, counter ("util.chaos.injected." ^ Chaos.fault_name f)))
          Chaos.all_faults
      in
      let finish_class f =
        expected_total := !expected_total + Chaos.injected f
      in

      Printf.printf "chaos self-test, seed %d\n" seed;

      Printf.printf "fault class: perturb_jacobian\n";
      let before = counter "engine.health.singular_lu" in
      Chaos.configure ~seed "perturb_jacobian@97";
      let outs = sweep ~config:(Sc.v ~retry:Sc.no_retry ()) () in
      let inj = Chaos.injected Chaos.Perturb_jacobian in
      check "campaign completes with structured outcomes" (accounted outs);
      check "chaos struck" (inj > 0);
      check "every zeroed row detected as singular LU"
        (counter "engine.health.singular_lu" - before = inj);
      finish_class Chaos.Perturb_jacobian;

      Printf.printf "fault class: inject_nan_state\n";
      let before = counter "engine.health.nan_detected" in
      Chaos.configure ~seed "inject_nan_state@53";
      let outs = sweep () in
      let inj = Chaos.injected Chaos.Inject_nan_state in
      check "campaign completes with structured outcomes" (accounted outs);
      check "chaos struck" (inj > 0);
      check "every poisoned state detected as NaN"
        (counter "engine.health.nan_detected" - before = inj);
      finish_class Chaos.Inject_nan_state;

      Printf.printf "fault class: force_newton_diverge (deadline)\n";
      let before = counter "dram.ops.deadline_exceeded" in
      Chaos.configure ~seed:0 "force_newton_diverge@+1";
      let config =
        Sc.v
          ~sim:{ E.Options.default with E.Options.max_newton = 1_000_000_000 }
          ~retry:Sc.no_retry ~deadline:0.05 ()
      in
      let outs = sweep ~config () in
      (match outs with
      | Out.Failed { error = E.Newton.Timeout _; _ } :: rest ->
        check "hung point cut off as Failed{Timeout}" true;
        check "rest of the sweep finished"
          (List.for_all (function Out.Ok _ -> true | _ -> false) rest)
      | _ -> check "hung point cut off as Failed{Timeout}" false);
      check "deadline counted once"
        (counter "dram.ops.deadline_exceeded" - before = 1);
      check "exactly one injection" (Chaos.injected Chaos.Force_newton_diverge = 1);
      finish_class Chaos.Force_newton_diverge;

      Printf.printf "fault class: fail_worker_task\n";
      Chaos.configure ~seed "fail_worker_task@3";
      let outs = sweep () in
      let inj = Chaos.injected Chaos.Fail_worker_task in
      let injected_failures =
        List.length
          (List.filter
             (function
               | Out.Failed { error = Chaos.Injected_fault _; _ } -> true
               | Out.Failed _ | Out.Ok _ -> false)
             outs)
      in
      check "campaign completes with structured outcomes" (accounted outs);
      check "chaos struck" (inj > 0);
      check "every worker fault is a Failed slot" (injected_failures = inj);
      finish_class Chaos.Fail_worker_task;

      Printf.printf "fault class: truncate_checkpoint\n";
      let stress = S.nominal in
      let kind = D.Open_cell D.At_bitline_contact and placement = D.True_bl in
      let rops = Dramstress_util.Grid.logspace 1e3 1e6 4 in
      O.clear_cache ();
      Chaos.disarm ();
      let clean = C.Report.figure2 ~rops ~stress ~kind ~placement () in
      let dir = Filename.temp_dir "dramstress_chaos" ".store" in
      (* the sweep runs against a store, as [plane --store] does *)
      let figure2_in_store () =
        with_sweep_store ~cmd:"chaos" (Some dir) @@ fun checkpoint ->
        C.Report.figure2 ?checkpoint ~rops ~stress ~kind ~placement ()
      in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun f ->
              try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            (Sys.readdir dir);
          try Sys.rmdir dir with Sys_error _ -> ())
        (fun () ->
          Chaos.configure ~seed "truncate_checkpoint@2";
          O.clear_cache ();
          let chaotic = figure2_in_store () in
          let inj = Chaos.injected Chaos.Truncate_checkpoint in
          check "chaos struck" (inj > 0);
          check "running campaign unaffected by truncation"
            (String.equal chaotic clean);
          finish_class Chaos.Truncate_checkpoint;
          Chaos.disarm ();
          O.clear_cache ();
          let resumed = figure2_in_store () in
          check "resume after truncation is byte-identical"
            (String.equal resumed clean));

      Printf.printf "reconciliation\n";
      check "util.chaos.injected = sum of class injections"
        (counter "util.chaos.injected" - t0_injected = !expected_total);
      check "per-class telemetry counters sum to the total"
        (List.fold_left
           (fun acc (f, t0) ->
             acc
             + counter ("util.chaos.injected." ^ Chaos.fault_name f)
             - t0)
           0 t0_class
        = !expected_total);
      !violations
    in
    if violations > 0 then begin
      Printf.printf "chaos: %d violation(s)\n" violations;
      exit 1
    end
    else Printf.printf "chaos: all invariants hold\n"
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Self-test the failure paths with deterministic fault injection")
    Term.(const run $ telemetry_term $ seed_arg)

(* ------------------------------------------------------------------ *)
(* campaign: manifest-driven studies over a persistent result store    *)
(* ------------------------------------------------------------------ *)

module Cp = Dramstress_campaign
module B = Dramstress_util.Build_info

let manifest_pos idx docv =
  Arg.(required & pos idx (some file) None
       & info [] ~docv ~doc:"Campaign manifest file (s-expression).")

let store_opt_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Campaign store directory. Default: the manifest path \
                 with its extension replaced by $(b,.campaign).")

let store_dir_of manifest = function
  | Some dir -> dir
  | None -> Filename.remove_extension manifest ^ ".campaign"

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains (default: the manifest's sim section, \
                 else the machine).")

let server_arg =
  Arg.(value & opt (some string) None
       & info [ "server" ] ~docv:"SOCK"
           ~doc:"Submit the manifest to a running $(b,dramstress serve) \
                 daemon at this Unix-domain socket instead of simulating \
                 locally; per-point results stream back as they land.")

let reconnect_arg =
  Arg.(value & opt int 10
       & info [ "reconnect" ] ~docv:"N"
           ~doc:"With $(b,--server): reconnect and resubmit up to N times \
                 when the connection drops mid-campaign. Completed points \
                 persist server-side, so a resubmission reuses them.")

let campaign_run_cmd =
  let run tel fail_on_error jobs manifest store_dir server reconnect =
    match server with
    | Some socket ->
      let failed =
        with_telemetry tel @@ fun () ->
        let text = In_channel.with_open_text manifest In_channel.input_all in
        let on_event = function
          | Cp.Protocol.Point { descr; status; payload } ->
            Printf.printf "%-44s %-9s %s\n%!" descr
              (Cp.Protocol.string_of_point_status status)
              payload
          | _ -> ()
        in
        (match
           Cp.Service.Client.submit_retrying ?jobs ~attempts:reconnect
             ~on_event ~socket text
         with
        | Ok o ->
          Printf.printf
            "campaign: %d point(s) planned, %d reused, %d simulated, %d \
             deduped, %d failed\n"
            o.Cp.Service.Client.planned o.Cp.Service.Client.reused
            o.Cp.Service.Client.simulated o.Cp.Service.Client.deduped
            o.Cp.Service.Client.failed;
          o.Cp.Service.Client.failed
        | Error msg ->
          prerr_endline ("dramstress: server error: " ^ msg);
          exit 1)
      in
      if fail_on_error && failed > 0 then exit 3
    | None ->
      let failures =
        with_telemetry tel @@ fun () ->
        let m = Cp.Manifest.load manifest in
        let dir = store_dir_of manifest store_dir in
        with_store ~name:m.Cp.Manifest.name dir @@ fun store ->
        let s = Cp.Runner.run ?jobs ~store m in
        Format.printf "%a@." Cp.Runner.pp_summary s;
        List.map
          (fun f -> f.Dramstress_util.Outcome.error)
          s.Cp.Runner.failures
      in
      failures_exit ~fail_on_error failures
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a campaign: simulate only the points its store does \
             not already hold (locally, or via a campaign server)")
    Term.(const run $ telemetry_term $ fail_on_error_arg $ jobs_arg
          $ manifest_pos 0 "MANIFEST" $ store_opt_arg $ server_arg
          $ reconnect_arg)

let campaign_status_cmd =
  let run tel manifest store_dir =
    with_telemetry tel @@ fun () ->
    let m = Cp.Manifest.load manifest in
    let dir = store_dir_of manifest store_dir in
    with_store ~name:m.Cp.Manifest.name dir @@ fun store ->
    let states = Cp.Runner.states ~store m in
    let count f = List.length (List.filter f states) in
    let done_ = count (fun (_, s) -> match s with `Done _ -> true | _ -> false) in
    let failed = count (fun (_, s) -> match s with `Failed _ -> true | _ -> false) in
    let missing = count (fun (_, s) -> match s with `Missing -> true | _ -> false) in
    List.iter
      (fun (p, st) ->
        Printf.printf "%-44s %s\n"
          (Format.asprintf "%a" Cp.Plan.pp_point p)
          (match st with
          | `Done r -> "done: " ^ C.Table1.br_string r.Cp.Plan.br
          | `Failed msg -> "FAILED: " ^ msg
          | `Missing -> "missing"))
      states;
    Printf.printf "\n%d point(s): %d done, %d failed, %d missing\n"
      (List.length states) done_ failed missing;
    (match Store.engines store with
    | [] | [ _ ] -> ()
    | engines ->
      Printf.printf "store written by %d engine build(s):\n"
        (List.length engines);
      List.iter (fun (e, n) -> Printf.printf "  %6d  %s\n" n e) engines)
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Classify every planned point against the store without \
             simulating")
    Term.(const run $ telemetry_term $ manifest_pos 0 "MANIFEST"
          $ store_opt_arg)

let campaign_query_cmd =
  let defect_filter_arg =
    Arg.(value & opt (some string) None
         & info [ "d"; "defect" ] ~docv:"ID" ~doc:"Only this defect id.")
  in
  let stress_filter_arg =
    Arg.(value & opt (some string) None
         & info [ "stress" ] ~docv:"LABEL" ~doc:"Only this stress label.")
  in
  let run tel manifest store_dir defect stress =
    with_telemetry tel @@ fun () ->
    let m = Cp.Manifest.load manifest in
    let dir = store_dir_of manifest store_dir in
    with_store ~name:m.Cp.Manifest.name dir @@ fun store ->
    Cp.Runner.states ~store m
    |> List.filter (fun ((p : Cp.Plan.point), _) ->
           (match defect with
           | Some id -> p.Cp.Plan.defect.D.id = id
           | None -> true)
           && match stress with
              | Some l -> p.Cp.Plan.stress_label = l
              | None -> true)
    |> List.iter (fun (p, st) ->
           match st with
           | `Done (r : Cp.Plan.result) ->
             Printf.printf "%-44s %-12s %s\n"
               (Format.asprintf "%a" Cp.Plan.pp_point p)
               (C.Table1.br_string r.Cp.Plan.br)
               (C.Detection.to_string r.Cp.Plan.detection)
           | `Failed msg ->
             Printf.printf "%-44s FAILED: %s\n"
               (Format.asprintf "%a" Cp.Plan.pp_point p)
               msg
           | `Missing ->
             Printf.printf "%-44s missing\n"
               (Format.asprintf "%a" Cp.Plan.pp_point p))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Print stored border results for (a filtered subset of) the \
             campaign's points")
    Term.(const run $ telemetry_term $ manifest_pos 0 "MANIFEST"
          $ store_opt_arg $ defect_filter_arg $ stress_filter_arg)

let campaign_diff_cmd =
  let dir_pos idx docv =
    Arg.(required & pos idx (some string) None
         & info [] ~docv ~doc:"Campaign store directory.")
  in
  let stress_a_arg =
    Arg.(value & opt (some string) None
         & info [ "stress-a" ] ~docv:"LABEL"
             ~doc:"Compare side A at this stress label (with \
                   $(b,--stress-b): Table-1 nominal-vs-stressed mode). \
                   Default: match equal labels across the sides.")
  in
  let stress_b_arg =
    Arg.(value & opt (some string) None
         & info [ "stress-b" ] ~docv:"LABEL"
             ~doc:"Compare side B at this stress label.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write CSV to FILE.")
  in
  let fail_on_diff_arg =
    Arg.(value & flag
         & info [ "fail-on-diff" ]
             ~doc:"Exit with status 5 when any row shifted or is missing \
                   a side — the self-diff-must-be-empty check in CI.")
  in
  let run tel ma da mb db sa sb csv fail_on_diff =
    let shifted_or_missing =
      with_telemetry tel @@ fun () ->
      let side mpath dpath =
        let m = Cp.Manifest.load mpath in
        let store = Store.open_ ~name:m.Cp.Manifest.name dpath in
        {
          Cp.Diff.store;
          manifest = m;
          label = Printf.sprintf "%s (%s)" m.Cp.Manifest.name dpath;
        }
      in
      let a = side ma da in
      let b = side mb db in
      Fun.protect
        ~finally:(fun () ->
          Store.close a.Cp.Diff.store;
          Store.close b.Cp.Diff.store)
        (fun () ->
          let pairing =
            match (sa, sb) with
            | None, None -> Cp.Diff.Matched_stresses
            | Some a, Some b -> Cp.Diff.Stress_pair { a; b }
            | _ ->
              failwith "--stress-a and --stress-b must be given together"
          in
          let d = Cp.Diff.v ~pairing ~a ~b () in
          print_string (Cp.Diff.render d);
          Option.iter
            (fun file ->
              Dramstress_util.Csvout.write_file file (Cp.Diff.to_csv d))
            csv;
          d.Cp.Diff.shifted + d.Cp.Diff.missing)
    in
    if fail_on_diff && shifted_or_missing > 0 then exit 5
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two campaign stores (or two stress settings) and \
             report border-resistance shifts per defect")
    Term.(const run $ telemetry_term $ manifest_pos 0 "MANIFEST_A"
          $ dir_pos 1 "DIR_A" $ manifest_pos 2 "MANIFEST_B"
          $ dir_pos 3 "DIR_B" $ stress_a_arg $ stress_b_arg $ csv_arg
          $ fail_on_diff_arg)

let campaign_cmd =
  Cmd.group
    (Cmd.info "campaign"
       ~doc:"Declarative studies: run a manifest against a persistent \
             result store; query and diff stores")
    [ campaign_run_cmd; campaign_status_cmd; campaign_query_cmd;
      campaign_diff_cmd ]

(* ------------------------------------------------------------------ *)
(* serve: the campaign service daemon (and its control client)         *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"SOCK"
             ~doc:"Unix-domain socket path (default: \
                   $(b,DIR/dramstress.sock) under $(b,--store)).")
  in
  let serve_store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Store directory the server owns (created if needed).")
  in
  let shards_serve_arg =
    Arg.(value & opt int 16
         & info [ "shards" ] ~docv:"N"
             ~doc:"Shard a freshly created store N ways by fingerprint \
                   prefix. An existing store keeps its own layout.")
  in
  let name_arg =
    Arg.(value & opt string "service"
         & info [ "name" ] ~docv:"NAME" ~doc:"Store name for a fresh store.")
  in
  let stop_arg =
    Arg.(value & flag
         & info [ "stop" ]
             ~doc:"Client mode: ask the daemon at the socket to shut down \
                   (in-flight submissions complete first).")
  in
  let status_flag_arg =
    Arg.(value & flag
         & info [ "status" ]
             ~doc:"Client mode: print the daemon's store summary and \
                   in-flight count.")
  in
  let counters_arg =
    Arg.(value & flag
         & info [ "counters" ]
             ~doc:"Client mode: print the daemon's telemetry counters, \
                   one $(b,name value) line each.")
  in
  let no_sandbox_arg =
    Arg.(value & flag
         & info [ "no-sandbox" ]
             ~doc:"Execute points in-process over domains instead of the \
                   supervised worker-process pool. Faster to start, but a \
                   solver crash then takes the daemon with it.")
  in
  let max_active_arg =
    Arg.(value & opt int 4
         & info [ "max-active" ] ~docv:"N"
             ~doc:"Admission control: at most N submissions execute \
                   concurrently.")
  in
  let queue_arg =
    Arg.(value & opt int 8
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission control: up to N further submissions wait \
                   server-side; beyond that clients get a typed \
                   $(b,busy) response with a retry hint.")
  in
  let read_timeout_arg =
    Arg.(value & opt float 10.0
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Drop a connection whose frame stalls mid-transmission \
                   for this long (slowloris defence). 0 disables. Idle \
                   connections between frames are never dropped.")
  in
  let worker_deaths_arg =
    Arg.(value & opt int 3
         & info [ "worker-deaths" ] ~docv:"K"
             ~doc:"Quarantine a point as failed after it kills K \
                   consecutive sandbox workers.")
  in
  let worker_timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "worker-timeout" ] ~docv:"SECONDS"
             ~doc:"SIGKILL a sandbox worker stuck on one point longer than \
                   this (counts as a worker death).")
  in
  let run tel socket store_dir shards name jobs stop status counters
      no_sandbox max_active queue read_timeout worker_deaths worker_timeout =
    with_telemetry tel @@ fun () ->
    let socket_of () =
      match (socket, store_dir) with
      | Some s, _ -> s
      | None, Some d -> Filename.concat d "dramstress.sock"
      | None, None -> failwith "serve: need --socket or --store"
    in
    if stop then begin
      match
        Cp.Service.Client.request ~socket:(socket_of ()) Cp.Protocol.Shutdown
      with
      | Cp.Protocol.Bye -> print_endline "server stopping"
      | _ -> failwith "unexpected reply to shutdown"
    end
    else if counters then begin
      match
        Cp.Service.Client.request ~socket:(socket_of ()) Cp.Protocol.Counters
      with
      | Cp.Protocol.Counter_values cs ->
        List.iter (fun (n, v) -> Printf.printf "%s %d\n" n v) cs
      | _ -> failwith "unexpected reply to counters"
    end
    else if status then begin
      match
        Cp.Service.Client.request ~socket:(socket_of ()) Cp.Protocol.Status
      with
      | Cp.Protocol.Status_report { name; engine; records; shards; inflight }
        ->
        Printf.printf
          "store:    %s\nengine:   %s\nrecords:  %d\nshards:   %d\n\
           inflight: %d\n"
          name engine records shards inflight
      | _ -> failwith "unexpected reply to status"
    end
    else begin
      let dir =
        match store_dir with
        | Some d -> d
        | None -> failwith "serve: --store DIR required to run the daemon"
      in
      let store = Store.open_ ~name ~shards dir in
      let socket_path = socket_of () in
      let srv =
        match
          Cp.Service.create ?jobs ~sandbox:(not no_sandbox)
            ~max_task_deaths:worker_deaths ?task_timeout:worker_timeout
            ~max_active ~queue ~read_timeout ~store ~socket_path ()
        with
        | srv -> srv
        | exception Cp.Service.Already_running path ->
          Store.close store;
          Printf.eprintf
            "dramstress serve: another daemon is already listening on %s\n%!"
            path;
          exit 2
      in
      let graceful = Sys.Signal_handle (fun _ -> Cp.Service.stop srv) in
      Sys.set_signal Sys.sigterm graceful;
      Sys.set_signal Sys.sigint graceful;
      Printf.printf
        "dramstress serve: listening on %s (store %s, %d shard(s), %s)\n%!"
        socket_path dir (Store.shards store)
        (if Cp.Service.sandboxed srv then "sandboxed workers"
         else "in-process execution");
      Cp.Service.serve srv
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the campaign service: a daemon owning a sharded store, \
             executing concurrent campaign submissions over a local \
             socket with supervised worker processes, admission control \
             and in-flight deduplication")
    Term.(const run $ telemetry_term $ socket_arg $ serve_store_arg
          $ shards_serve_arg $ name_arg $ jobs_arg $ stop_arg
          $ status_flag_arg $ counters_arg $ no_sandbox_arg $ max_active_arg
          $ queue_arg $ read_timeout_arg $ worker_deaths_arg
          $ worker_timeout_arg)

(* ------------------------------------------------------------------ *)
(* store: offline store maintenance                                    *)
(* ------------------------------------------------------------------ *)

let store_merge_cmd =
  let dir_pos idx docv doc =
    Arg.(required & pos idx (some string) None & info [] ~docv ~doc)
  in
  let run tel src dst =
    with_telemetry tel @@ fun () ->
    if not (Sys.file_exists src && Sys.is_directory src) then
      failwith (src ^ " is not a store directory");
    (* an existing store keeps its own name; a fresh DST is "store" *)
    let dst_store = Store.open_ ~name:"store" dst in
    let src_store = Store.open_ ~name:"merge-src" src in
    Fun.protect
      ~finally:(fun () ->
        Store.close src_store;
        Store.close dst_store)
      (fun () ->
        let st = Store.merge ~src:src_store ~dst:dst_store in
        Printf.printf "merged %s into %s: %d added, %d replaced, %d kept\n"
          src dst st.Store.added st.Store.replaced st.Store.kept)
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Union SRC's records into DST by content address; on \
             conflicting payloads the current-engine record wins, \
             otherwise DST keeps its copy")
    Term.(const run $ telemetry_term
          $ dir_pos 0 "SRC" "Source store directory (read only)."
          $ dir_pos 1 "DST" "Destination store directory (created if needed).")

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Offline maintenance of campaign result stores")
    [ store_merge_cmd ]

(* ------------------------------------------------------------------ *)
(* version: build metadata                                             *)
(* ------------------------------------------------------------------ *)

let version_cmd =
  let run () =
    print_endline B.identity;
    Printf.printf "version: %s\ngit:     %s\nocaml:   %s\ndune:    %s\n"
      B.version B.git B.ocaml B.dune
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:"Print build metadata — the engine identity stamped into \
             every campaign-store record")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

let catalog_cmd =
  let run tel =
    with_telemetry tel @@ fun () -> print_string (D.describe_figure7 ())
  in
  Cmd.v (Cmd.info "catalog" ~doc:"Show the defect catalog (Figure 7)")
    Term.(const run $ telemetry_term)

let () =
  (* opt into fault injection when DRAMSTRESS_CHAOS is set; dormant
     otherwise (one atomic load per site) *)
  Dramstress_util.Chaos.configure_from_env ();
  let doc = "stress optimization for DRAM cell defect tests (DATE 2003 reproduction)" in
  let info = Cmd.info "dramstress" ~version:B.identity ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; plane_cmd; br_cmd; stress_cmd; table1_cmd; shmoo_cmd;
            march_cmd; catalog_cmd; sim_cmd; chaos_cmd; campaign_cmd;
            serve_cmd; store_cmd; version_cmd ]))
