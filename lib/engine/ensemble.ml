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

(* one segment of the fixed piecewise-uniform grid, walked from the time
   in [span.(1)]: for each of its steps, in order, [span.(0)] and
   [span.(1)] are set to the step's start and end and [f ()] runs; then
   [span.(1)] holds the time the next segment starts from. The times
   travel through [span] rather than as arguments or results, so the
   walk allocates nothing per step or per segment, and a run can count
   its grid before committing memory to it. [Float.min] and [Float.max]
   are spelled as comparisons: same values, no boxing. *)
let walk_segment f span (t_end, dt) =
  let t = ref span.(1) in
  while !t < t_end -. (dt /. 2.0) do
    let s = !t +. dt in
    let t_next = if s < t_end then s else t_end in
    span.(0) <- !t;
    span.(1) <- t_next;
    f ();
    t := t_next
  done;
  span.(1) <- (if !t > t_end then !t else t_end)

(* [run]'s arguments checked against the deck before anything is
   integrated: every [Invalid_argument] of a run comes from here. Returns
   the segments scaled by [opts.dt_scale], the system, the overridden
   resistor's index (-1 for none) with each lane's conductance for it,
   the probes' node ids, and each lane's initial node voltages. *)
let prepare compiled ~opts ~segments ~lanes ~probes =
  let n_lanes = Array.length lanes in
  if n_lanes = 0 then invalid_arg "Ensemble.run: no lanes";
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
           if dt <= 0.0 then
             invalid_arg (Printf.sprintf "Ensemble.run: dt %g <= 0" dt);
           if t_end <= t_prev then
             invalid_arg "Ensemble.run: segment ends must increase";
           t_end)
         0.0 segments));
  let sys = Mna.make compiled in
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
  let initial_v =
    Array.map
      (fun lane ->
        let v = Array.make (Mna.n_nodes sys) 0.0 in
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
        v)
      lanes
  in
  (segments, sys, override_index, override_g, probe_ids, initial_v)

let check compiled ~segments ~lanes ~probes =
  ignore (prepare compiled ~opts:Options.default ~segments ~lanes ~probes)

let run compiled ?(opts = Options.default) ?deadline_at ~segments ~lanes
    ~probes () =
  let segments, sys, override_index, override_g, probe_ids, pvs =
    prepare compiled ~opts ~segments ~lanes ~probes
  in
  let n_lanes = Array.length lanes in
  let ws = Mna.make_workspace sys in
  (* the run counts in its workspace, added to the registry once, when
     the run ends or raises *)
  let tally = Mna.tally ws in
  Fun.protect ~finally:(fun () -> Mna.flush ws) @@ fun () ->
  Tel.Tally.incr tally c_batches;
  Tel.Tally.add tally c_lanes n_lanes;
  Tel.Tally.add tally c_runs n_lanes;
  let size = Mna.size sys in
  let n_probes = Array.length probe_ids in
  (* per-lane state rows: committed unknowns, working Newton iterate,
     the node voltages at the last two accepted time points (the
     capacitors' history, held by the [reactive] records below; the
     last from [prepare]) and the predictor's history. The Newton loop
     and [Mna] read and write these rows directly, so a solve allocates
     nothing per lane; the committed rows rotate instead of being
     copied. *)
  let xs = Array.init n_lanes (fun _ -> Array.make size 0.0) in
  let xw = Array.init n_lanes (fun _ -> Array.make size 0.0) in
  (* predictor history: the unknowns before the lane's last accepted
     step and before the one ahead of it, and the two steps' lengths
     (0 while there is none). [commit] rotates the three state rows. *)
  let xp = Array.init n_lanes (fun _ -> Array.make size 0.0) in
  let xpp = Array.init n_lanes (fun _ -> Array.make size 0.0) in
  let hdt = Array.make n_lanes 0.0 in
  let hdt2 = Array.make n_lanes 0.0 in
  (* per-lane ICs -> committed state *)
  Array.iteri (fun li v -> Array.blit (Mna.pack sys v) 0 xs.(li) 0 size) pvs;
  let dead : exn option array = Array.make n_lanes None in
  let n_live = ref n_lanes in
  let lane_failed li e =
    dead.(li) <- Some e;
    decr n_live;
    Tel.Tally.incr tally c_lane_failures
  in
  (* per-solve flags, reused across solves *)
  let active = Array.make n_lanes false in
  let lane_done = Array.make n_lanes false in
  let lane_err : exn option array = Array.make n_lanes None in
  let lane_diverge = Array.make n_lanes false in
  (* per-lane reactive records, one per lane for the whole run: each
     solve sets its step length and ratio, and [commit] rotates the two
     node-voltage rows *)
  let reacts =
    Array.init n_lanes (fun li ->
        { Mna.step = { Mna.dt = 0.0; omega = 0.0 }; prev_v = pvs.(li);
          prev2_v = Array.make (Mna.n_nodes sys) 0.0 })
  in
  (* Newton's starting point for a step of length [dt'] from lane [li]'s
     committed state x_n: the quadratic through its last three accepted
     states x_{n-2}, x_{n-1}, x_n, extrapolated by [dt'], when neither
     [dt'] nor the last step grew; the linear extrapolation
     x_n + (x_n - x_{n-1}) dt'/h1 along the last step when only [dt']
     did not grow; x_n itself otherwise. A growing step (active cycle ->
     pause, a ratio of ~2e7) would extrapolate far past anything the
     history saw. In Newton form, with h1 and h2 the last two steps,
       x = x_n + (x_n - x_{n-1}) a - (x_{n-1} - x_{n-2}) b,
       a = dt'/h1 + b h2/h1,  b = dt' (dt' + h1) / (h2 (h1 + h2)),
     which is 3 x_n - 3 x_{n-1} + x_{n-2} on a uniform grid. The slack
     absorbs grid steps [t_next - t_prev] that differ from their
     segment's nominal step in the last bits. *)
  let predict li dt' =
    let x = xs.(li) and w = xw.(li) and h1 = hdt.(li) and h2 = hdt2.(li) in
    if h1 > 0.0 && dt' <= h1 *. (1.0 +. 1e-9) then begin
      let p = xp.(li) in
      if h2 > 0.0 && h1 <= h2 *. (1.0 +. 1e-9) then begin
        let pp = xpp.(li) in
        let b = dt' *. (dt' +. h1) /. (h2 *. (h1 +. h2)) in
        let a = (dt' +. (b *. h2)) /. h1 in
        for i = 0 to size - 1 do
          let xi = x.(i) and pi = p.(i) in
          w.(i) <- xi +. ((xi -. pi) *. a) -. ((pi -. pp.(i)) *. b)
        done
      end
      else begin
        let r = dt' /. h1 in
        for i = 0 to size - 1 do
          w.(i) <- x.(i) +. ((x.(i) -. p.(i)) *. r)
        done
      end
    end
    else Array.blit x 0 w 0 size
  in
  (* Masked batched Newton solve at one time point for the lanes chosen
     by [sel] (dead lanes are always skipped). Each sweep of the loop
     performs one [Newton.iterate] per still-running lane, with the
     deadline polled before each; lanes that converged sit the rest
     out. On exit [lane_done]/[lane_err] hold the per-lane verdicts; a
     converged lane's iterate is in its [xw] row. [Newton.Timeout] is
     not a lane verdict: it leaves the whole run. *)
  let solve_batch ~t_now ~dt' ~sel =
    Mna.eval_controls_into sys ws ~t_now ~dt:dt';
    let n_active = ref 0 in
    for li = 0 to n_lanes - 1 do
      let a = dead.(li) = None && sel li in
      active.(li) <- a;
      lane_done.(li) <- false;
      lane_err.(li) <- None;
      lane_diverge.(li) <- false;
      if a then begin
        incr n_active;
        predict li dt';
        (* the BDF2 ratio: 0, which is backward Euler, when the lane has
           no last step (the t=0 step and the one after it) or when [dt']
           more than doubles it (active cycle -> pause); a halving
           catch-up (ratios 1/2, then up to 2) stays BDF2. The slack
           absorbs grid steps that differ from their nominal length in
           the last bits. *)
        let st = reacts.(li).Mna.step and h = hdt.(li) in
        st.Mna.omega <-
          (if h > 0.0 && dt' <= 2.0 *. h *. (1.0 +. 1e-9) then dt' /. h
           else 0.0);
        st.Mna.dt <- dt'
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
        if masked > 0 then Tel.Tally.add tally c_masked masked
      end;
      for li = 0 to n_lanes - 1 do
        if active.(li) && (not lane_done.(li)) && lane_err.(li) = None then begin
          if iter = 1 then lane_diverge.(li) <- Newton.chaos_diverge ();
          Newton.check_deadline ~deadline_at ~t_now;
          let x = xw.(li) in
          if override_index >= 0 then
            Mna.set_resistor_override ws ~index:override_index ~gs:override_g
              ~lane:li;
          match
            Newton.iterate sys ws ~opts ~t_now ~reactive:reacts.(li) ~iter
              ~diverge:lane_diverge.(li) x
          with
          | true ->
            lane_done.(li) <- true;
            decr remaining
          | false -> ()
          | exception
              ((Newton.No_convergence _ | Newton.Numerical_health _) as e) ->
            lane_err.(li) <- Some e;
            decr remaining
        end
      done
    done
  in
  (* accept the converged iterate in [xw] as lane [li]'s new state;
     [reacts.(li)] still holds the reactive record of the solve that
     produced the iterate (same dt'), and the workspace the controls of
     its time point, which fill the fixed nodes of the new voltage row *)
  let commit li =
    let x = xw.(li) in
    let oldest = xpp.(li) in
    xpp.(li) <- xp.(li);
    xp.(li) <- xs.(li);
    xs.(li) <- oldest;
    let r = reacts.(li) in
    hdt2.(li) <- hdt.(li);
    hdt.(li) <- r.Mna.step.Mna.dt;
    Array.blit x 0 oldest 0 size;
    let older = r.Mna.prev2_v in
    r.Mna.prev2_v <- r.Mna.prev_v;
    r.Mna.prev_v <- older;
    Mna.voltages_into sys ws x ~out:older
  in
  (* initial quasi-static solve: a near-zero backward-Euler step (the
     lane has no last step yet) pins capacitor voltages at their ICs
     while making resistive nodes consistent. A lane whose init solve
     fails carries the Newton error itself (no step retries exist at
     t=0). *)
  let dt0_qs = 1e-18 in
  solve_batch ~t_now:0.0 ~dt':dt0_qs ~sel:(fun _ -> true);
  for li = 0 to n_lanes - 1 do
    match lane_err.(li) with
    | Some e -> lane_failed li e
    | None -> commit li
  done;
  (* the quasi-static step is no history to extrapolate from, nor for
     BDF2 to difference across: the first grid step is backward Euler *)
  Array.fill hdt 0 n_lanes 0.0;
  Array.fill hdt2 0 n_lanes 0.0;
  let probe_names = Array.of_list probes in
  if !n_live = 0 then
    (* nothing to integrate: no grid, times or sample rows are ever
       allocated for a batch that died at t=0 *)
    Array.map (fun d -> Error (Option.get d)) dead
  else begin
    let span = [| 0.0; 0.0 |] in
    let n_steps = ref 0 in
    let count () = incr n_steps in
    List.iter (walk_segment count span) segments;
    let n_pts = !n_steps + 1 in
    let times = Array.make n_pts 0.0 in
    let samples =
      Array.init n_lanes (fun li ->
          if dead.(li) = None then Array.make_matrix n_probes n_pts 0.0
          else [||])
    in
    let record li pt =
      let lane_samples = samples.(li) in
      let pv = reacts.(li).Mna.prev_v in
      for p = 0 to n_probes - 1 do
        lane_samples.(p).(pt) <- pv.(probe_ids.(p))
      done
    in
    for li = 0 to n_lanes - 1 do
      if dead.(li) = None then record li 0
    done;
    (* the step length reaches the histogram through a float array,
       which boxes nothing *)
    let dt_cell = [| 0.0 |] in
    let[@inline] accepted dt =
      Tel.Tally.incr tally c_accepted;
      dt_cell.(0) <- dt;
      Tel.Tally.observe_at tally h_dt dt_cell 0
    in
    let max_retries = 4 in
    (* per-lane catch-up after a failed batch step: the halving
       recursion, where the batch attempt at the full grid step was
       attempt #1 with the full retry budget. An exhausted budget
       surfaces as Step_failed so sweep-level callers can report which
       point died; a numerically sick step gets the same halving
       retries — a smaller step often routes around the sick region —
       but re-raises the typed health error itself when they run out. *)
    (* the nominal start and end of the segment being walked, read only
       to report a failed step *)
    let seg_bounds = [| 0.0; 0.0 |] in
    let catchup li ~t_next ~t_prev0 ~dt0 ~first_err =
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
        Tel.Tally.incr tally c_rejected;
        match err with
        | Newton.No_convergence { t; iterations; worst } ->
          if retries > 0 then attempt t_prev (dt /. 2.0) (retries - 1)
          else
            raise
              (Transient.Step_failed
                 { seg_start = seg_bounds.(0); seg_end = seg_bounds.(1); t;
                   dt; retries = max_retries; iterations; worst })
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
    let step () =
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
              catchup li ~t_next ~t_prev0:t_prev ~dt0 ~first_err
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
    span.(1) <- 0.0;
    List.iter
      (fun ((t_end, dt) as seg) ->
        seg_bounds.(0) <- seg_bounds.(1);
        seg_bounds.(1) <- t_end;
        (* the span's closures only while telemetry records them: a
           cycle is a few dozen segments, one per stretch between
           control corners *)
        if Tel.enabled () then
          let seg_start = seg_bounds.(0) in
          Tel.with_span "transient.segment"
            ~attrs:(fun () ->
              [ ("t_start", Tel.Float seg_start); ("t_end", Tel.Float t_end);
                ("dt", Tel.Float dt) ])
            (fun () -> walk_segment step span seg)
        else walk_segment step span seg)
      segments;
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
              final_v = Array.copy reacts.(li).Mna.prev_v;
              probe_interps =
                Transient.make_interps times probe_names probe_values;
            })
  end
