module C = Dramstress_circuit
module Tel = Dramstress_util.Telemetry

let c_lanes = Tel.Counter.make "engine.ensemble.lanes"
let c_batches = Tel.Counter.make "engine.ensemble.batches"
let c_masked = Tel.Counter.make "engine.ensemble.masked_lane_iters"
let c_lane_failures = Tel.Counter.make "engine.ensemble.lane_failures"

(* per-lane transient accounting: one run per lane, one accepted or
   rejected step per lane-solve *)
let c_runs = Tel.Counter.make "engine.transient.runs"
let c_accepted = Tel.Counter.make "engine.transient.steps_accepted"
let c_rejected = Tel.Counter.make "engine.transient.steps_rejected"

let h_dt =
  Tel.Histogram.make ~unit_:"s" ~lo:1e-15 ~hi:1e-3 ~buckets:48
    "engine.transient.dt_s"

type lane = {
  ics : (string * float) list;
  override : (string * float) option;
}

(* one segment of the fixed piecewise-uniform grid: for each of its
   steps, in order, [span.(0)] and [span.(1)] are set to the step's start
   and end and [f ()] runs; returns the time the next segment starts
   from. The step times travel through [span] rather than as arguments,
   so the walk allocates nothing per step and a run can count its grid
   before committing memory to it. [Float.min] and [Float.max] are
   spelled as comparisons: same values, no boxing. *)
let walk_segment f span t0 (t_end, dt) =
  let t = ref t0 in
  while !t < t_end -. (dt /. 2.0) do
    let s = !t +. dt in
    let t_next = if s < t_end then s else t_end in
    span.(0) <- !t;
    span.(1) <- t_next;
    f ();
    t := t_next
  done;
  if !t > t_end then !t else t_end

let run compiled ?(opts = Options.default) ?deadline_at ~segments ~lanes
    ~probes () =
  let n_lanes = Array.length lanes in
  if n_lanes = 0 then invalid_arg "Ensemble.run: no lanes";
  Tel.Counter.incr c_batches;
  Tel.Counter.add c_lanes n_lanes;
  Tel.Counter.add c_runs n_lanes;
  if not (opts.Options.dt_scale > 0.0) then
    invalid_arg "Ensemble.run: dt_scale must be positive";
  (* the degradation knob: refine every segment's nominal step uniformly
     without touching the segment plan itself *)
  let segments =
    if opts.Options.dt_scale = 1.0 then segments
    else
      List.map (fun (t_end, dt) -> (t_end, dt *. opts.Options.dt_scale))
        segments
  in
  (match segments with
  | [] -> invalid_arg "Ensemble.run: no segments"
  | _ ->
    ignore
      (List.fold_left
         (fun t_prev (t_end, dt) ->
           if dt <= 0.0 then invalid_arg "Ensemble.run: dt <= 0";
           if t_end <= t_prev then
             invalid_arg "Ensemble.run: segment ends must increase";
           t_end)
         0.0 segments));
  let sys = Mna.make compiled in
  let ws = Mna.make_workspace sys in
  let n_nodes = Mna.n_nodes sys in
  let size = Mna.size sys in
  let n_caps = Mna.n_capacitors sys in
  (* one shared topology: every overriding lane must name the same
     resistor; lanes without an override ride at the netlist value *)
  let override_index = ref (-1) in
  let override_g = Array.make n_lanes 0.0 in
  Array.iteri
    (fun li lane ->
      match lane.override with
      | None -> ()
      | Some (name, r) -> (
        if not (r > 0.0) then
          invalid_arg "Ensemble.run: override resistance must be positive";
        match Mna.resistor_index sys name with
        | None -> invalid_arg ("Ensemble.run: unknown resistor " ^ name)
        | Some idx ->
          if !override_index = -1 then override_index := idx
          else if !override_index <> idx then
            invalid_arg "Ensemble.run: lanes must override the same resistor";
          override_g.(li) <- 1.0 /. r))
    lanes;
  let override_index = !override_index in
  if override_index >= 0 then
    Array.iteri
      (fun li lane ->
        if lane.override = None then
          override_g.(li) <- Mna.resistor_g sys override_index)
      lanes;
  let probe_ids =
    Array.of_list
      (List.map
         (fun name ->
           try C.Netlist.compiled_node compiled name
           with Not_found ->
             invalid_arg ("Ensemble.run: unknown probe node " ^ name))
         probes)
  in
  let n_probes = Array.length probe_ids in
  (* per-lane state rows: committed unknowns, working Newton iterate,
     previous accepted node voltages, capacitor history. Row identity is
     stable for the whole run — the Newton loop and [Mna] read and write
     the rows directly, so a solve allocates nothing per lane per
     iteration (only the per-solve [reactive] records below). *)
  let xs = Array.init n_lanes (fun _ -> Array.make size 0.0) in
  let xw = Array.init n_lanes (fun _ -> Array.make size 0.0) in
  let pvs = Array.init n_lanes (fun _ -> Array.make n_nodes 0.0) in
  let pcs = Array.init n_lanes (fun _ -> Array.make (Int.max 1 n_caps) 0.0) in
  (* per-lane ICs -> committed state *)
  Array.iteri
    (fun li lane ->
      let v = pvs.(li) in
      List.iter
        (fun (name, value) ->
          match
            try Some (C.Netlist.compiled_node compiled name)
            with Not_found -> None
          with
          | Some n ->
            if n = 0 then invalid_arg "Ensemble.run: cannot set ground IC";
            v.(n) <- value
          | None -> invalid_arg ("Ensemble.run: unknown IC node " ^ name))
        lane.ics;
      Array.blit (Mna.pack sys v) 0 xs.(li) 0 size)
    lanes;
  let dead : exn option array = Array.make n_lanes None in
  let n_live = ref n_lanes in
  let lane_failed li e =
    dead.(li) <- Some e;
    decr n_live;
    Tel.Counter.incr c_lane_failures
  in
  (* per-solve flags, reused across solves *)
  let active = Array.make n_lanes false in
  let lane_done = Array.make n_lanes false in
  let lane_err : exn option array = Array.make n_lanes None in
  let lane_diverge = Array.make n_lanes false in
  (* per-lane reactive records, rebuilt each solve (dt' changes); the
     prev arrays alias the lane's state rows, so [Mna] reads them with
     no copying *)
  let reacts =
    Array.make n_lanes
      { Mna.dt = 0.0; prev_v = [||]; prev_cap_current = [||] }
  in
  (* Masked batched Newton solve at one time point for the lanes chosen
     by [sel] (dead lanes are always skipped). Each sweep of the loop
     performs one [Newton.iterate] per still-running lane, with the
     deadline polled before each; lanes that converged sit the rest
     out. On exit [lane_done]/[lane_err] hold the per-lane verdicts; a
     converged lane's iterate is in its [xw] row. [Newton.Timeout] is
     not a lane verdict: it leaves the whole run. *)
  let solve_batch ~t_now ~dt' ~sel =
    Mna.eval_controls_into sys ws ~t_now;
    let n_active = ref 0 in
    for li = 0 to n_lanes - 1 do
      let a = dead.(li) = None && sel li in
      active.(li) <- a;
      lane_done.(li) <- false;
      lane_err.(li) <- None;
      lane_diverge.(li) <- false;
      if a then begin
        incr n_active;
        Array.blit xs.(li) 0 xw.(li) 0 size;
        reacts.(li) <-
          { Mna.dt = dt'; prev_v = pvs.(li); prev_cap_current = pcs.(li) }
      end
    done;
    let remaining = ref !n_active in
    let iter = ref 0 in
    while !remaining > 0 do
      incr iter;
      let iter = !iter in
      if iter > 1 then begin
        (* lanes that already converged sit this sweep out *)
        let masked = !n_active - !remaining in
        if masked > 0 then Tel.Counter.add c_masked masked
      end;
      for li = 0 to n_lanes - 1 do
        if active.(li) && (not lane_done.(li)) && lane_err.(li) = None then begin
          if iter = 1 then lane_diverge.(li) <- Newton.chaos_diverge ();
          Newton.check_deadline ~deadline_at ~t_now;
          let x = xw.(li) in
          if override_index >= 0 then
            Mna.set_resistor_override ws ~index:override_index
              ~g:override_g.(li);
          match Newton.iterate sys ws ~opts ~t_now ~reactive:reacts.(li) ~iter x
          with
          | worst ->
            if (not lane_diverge.(li)) && worst <= Newton.tolerance ~opts x
            then begin
              Newton.record_solve iter;
              lane_done.(li) <- true;
              decr remaining
            end
            else if iter >= opts.Options.max_newton then begin
              (try Newton.fail ~t_now ~iter ~worst
               with e -> lane_err.(li) <- Some e);
              decr remaining
            end
          | exception (Newton.Numerical_health _ as e) ->
            lane_err.(li) <- Some e;
            decr remaining
        end
      done
    done
  in
  (* accept the converged iterate in [xw] as lane [li]'s new state;
     [reacts.(li)] still holds the reactive record of the solve that
     produced the iterate (same dt', prev arrays alias this lane's
     rows), and [cap_currents_into] updates the history in place —
     each slot's previous current is read before it is overwritten *)
  let commit li =
    let x = xw.(li) in
    Array.blit x 0 xs.(li) 0 size;
    Mna.cap_currents_into sys ~opts ~x ~reactive:reacts.(li) ~out:pcs.(li);
    Mna.voltages_into sys x ~out:pvs.(li)
  in
  (* initial quasi-static solve: a near-zero BE step pins capacitor
     voltages at their ICs while making resistive nodes consistent. A
     lane whose init solve fails carries the Newton error itself (no
     step retries exist at t=0). *)
  let dt0_qs = 1e-18 in
  solve_batch ~t_now:0.0 ~dt':dt0_qs ~sel:(fun _ -> true);
  for li = 0 to n_lanes - 1 do
    match lane_err.(li) with
    | Some e -> lane_failed li e
    | None -> commit li
  done;
  let probe_names = Array.of_list probes in
  if !n_live = 0 then
    (* nothing to integrate: no grid, times or sample rows are ever
       allocated for a batch that died at t=0 *)
    Array.map (fun d -> Error (Option.get d)) dead
  else begin
    let span = [| 0.0; 0.0 |] in
    let n_steps = ref 0 in
    ignore
      (List.fold_left
         (fun t seg -> walk_segment (fun () -> incr n_steps) span t seg)
         0.0 segments);
    let n_pts = !n_steps + 1 in
    let times = Array.make n_pts 0.0 in
    let samples =
      Array.init n_lanes (fun li ->
          if dead.(li) = None then Array.make_matrix n_probes n_pts 0.0
          else [||])
    in
    let record li pt =
      let lane_samples = samples.(li) in
      let pv = pvs.(li) in
      for p = 0 to n_probes - 1 do
        lane_samples.(p).(pt) <- pv.(probe_ids.(p))
      done
    in
    for li = 0 to n_lanes - 1 do
      if dead.(li) = None then record li 0
    done;
    let accepted dt =
      Tel.Counter.incr c_accepted;
      Tel.Histogram.observe h_dt dt
    in
    let max_retries = 4 in
    (* per-lane catch-up after a failed batch step: the halving
       recursion, where the batch attempt at the full grid step was
       attempt #1 with the full retry budget. An exhausted budget
       surfaces as Step_failed so sweep-level callers can report which
       point died; a numerically sick step gets the same halving
       retries — a smaller step often routes around the sick region —
       but re-raises the typed health error itself when they run out. *)
    let catchup li ~seg_start ~seg_end ~t_next ~t_prev0 ~dt0 ~first_err =
      let sel i = i = li in
      let rec attempt t_prev dt retries =
        let t_now = t_prev +. dt in
        solve_batch ~t_now ~dt':dt ~sel;
        if lane_done.(li) then begin
          accepted dt;
          commit li;
          if t_now >= t_next -. 1e-21 then ()
          else attempt t_now (t_next -. t_now) retries
        end
        else handle t_prev dt retries (Option.get lane_err.(li))
      and handle t_prev dt retries err =
        Tel.Counter.incr c_rejected;
        match err with
        | Newton.No_convergence { t; iterations; worst } ->
          if retries > 0 then attempt t_prev (dt /. 2.0) (retries - 1)
          else
            raise
              (Transient.Step_failed
                 { seg_start; seg_end; t; dt; retries = max_retries;
                   iterations; worst })
        | _ ->
          if retries > 0 then attempt t_prev (dt /. 2.0) (retries - 1)
          else raise err
      in
      handle t_prev0 dt0 max_retries first_err
    in
    (* snapshot of the batch attempt's per-lane verdicts, taken before
       any catch-up (whose solves reuse the shared flag arrays) *)
    let step_ok = Array.make n_lanes false in
    let step_err : exn option array = Array.make n_lanes None in
    let pt = ref 0 in
    let step ~seg_start ~seg_end () =
      if !n_live > 0 then begin
        let t_prev = span.(0) and t_next = span.(1) in
        let dt0 = t_next -. t_prev in
        solve_batch ~t_now:t_next ~dt':dt0 ~sel:(fun _ -> true);
        for li = 0 to n_lanes - 1 do
          step_ok.(li) <- lane_done.(li);
          step_err.(li) <- lane_err.(li)
        done;
        for li = 0 to n_lanes - 1 do
          if dead.(li) = None && step_ok.(li) then begin
            accepted dt0;
            commit li
          end
        done;
        for li = 0 to n_lanes - 1 do
          if dead.(li) = None && not step_ok.(li) then begin
            let first_err = Option.get step_err.(li) in
            match
              catchup li ~seg_start ~seg_end ~t_next ~t_prev0:t_prev ~dt0
                ~first_err
            with
            | () -> ()
            | exception
                ((Transient.Step_failed _ | Newton.Numerical_health _) as e) ->
              lane_failed li e
          end
        done;
        incr pt;
        times.(!pt) <- t_next;
        for li = 0 to n_lanes - 1 do
          if dead.(li) = None then record li !pt
        done
      end
    in
    ignore
      (List.fold_left
         (fun (seg_start, t) ((t_end, dt) as seg) ->
           ( t_end,
             Tel.with_span "transient.segment"
               ~attrs:(fun () ->
                 [ ("t_start", Tel.Float seg_start);
                   ("t_end", Tel.Float t_end);
                   ("dt", Tel.Float dt) ])
               (fun () ->
                 walk_segment (step ~seg_start ~seg_end:t_end) span t seg) ))
         (0.0, 0.0) segments);
    Array.init n_lanes (fun li ->
        match dead.(li) with
        | Some e -> Error e
        | None ->
          let probe_values = samples.(li) in
          Ok
            {
              Transient.times;
              probe_names;
              probe_values;
              final_v = Array.copy pvs.(li);
              probe_interps =
                Transient.make_interps times probe_names probe_values;
            })
  end
