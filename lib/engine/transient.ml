module C = Dramstress_circuit
module I = Dramstress_util.Interp
module Tel = Dramstress_util.Telemetry

let c_runs = Tel.Counter.make "engine.transient.runs"
let c_accepted = Tel.Counter.make "engine.transient.steps_accepted"
let c_rejected = Tel.Counter.make "engine.transient.steps_rejected"

let h_dt =
  Tel.Histogram.make ~unit_:"s" ~lo:1e-15 ~hi:1e-3 ~buckets:48
    "engine.transient.dt_s"

type result = {
  times : float array;
  probe_names : string array;
  probe_values : float array array;
  final_v : float array;
  probe_interps : (string, I.t) Hashtbl.t;
}

exception
  Step_failed of {
    seg_start : float;
    seg_end : float;
    t : float;
    dt : float;
    retries : int;
    iterations : int;
    worst : float;
  }

let () =
  Printexc.register_printer (function
    | Step_failed { seg_start; seg_end; t; dt; retries; iterations; worst } ->
      Some
        (Printf.sprintf
           "Transient.Step_failed { segment %.4g..%.4g s; t=%.4g s; dt=%.4g \
            s; %d halving retries exhausted; %d Newton iterations; worst \
            update %.3g V }"
           seg_start seg_end t dt retries iterations worst)
    | _ -> None)

let probe result name =
  match Hashtbl.find_opt result.probe_interps name with
  | Some interp -> interp
  | None -> raise Not_found

let value_at result name t = I.eval (probe result name) t

(* the sampled times strictly increase, so the interpolant can take the
   arrays directly without the sort/dedup pass of [I.of_points] *)
let make_interps times probe_names probe_values =
  let tbl = Hashtbl.create (Array.length probe_names) in
  Array.iteri
    (fun i name ->
      if not (Hashtbl.mem tbl name) then
        Hashtbl.add tbl name (I.of_sorted_arrays times probe_values.(i)))
    probe_names;
  tbl

let run compiled ?(opts = Options.default) ?deadline_at ~segments ~ics ~probes
    () =
  Tel.Counter.incr c_runs;
  if not (opts.Options.dt_scale > 0.0) then
    invalid_arg "Transient.run: dt_scale must be positive";
  (* the degradation knob: refine every segment's nominal step uniformly
     without touching the segment plan itself *)
  let segments =
    if opts.Options.dt_scale = 1.0 then segments
    else
      List.map (fun (t_end, dt) -> (t_end, dt *. opts.Options.dt_scale))
        segments
  in
  (match segments with
  | [] -> invalid_arg "Transient.run: no segments"
  | _ ->
    ignore
      (List.fold_left
         (fun t_prev (t_end, dt) ->
           if dt <= 0.0 then invalid_arg "Transient.run: dt <= 0";
           if t_end <= t_prev then
             invalid_arg "Transient.run: segment ends must increase";
           t_end)
         0.0 segments));
  let sys = Mna.make compiled in
  let ws = Mna.make_workspace sys in
  let n_nodes = Mna.n_nodes sys in
  let v = Array.make n_nodes 0.0 in
  List.iter
    (fun (name, value) ->
      match
        (try Some (C.Netlist.compiled_node compiled name) with Not_found -> None)
      with
      | Some n ->
        if n = 0 then invalid_arg "Transient.run: cannot set ground IC";
        v.(n) <- value
      | None -> invalid_arg ("Transient.run: unknown IC node " ^ name))
    ics;
  let probe_ids =
    Array.of_list
      (List.map
         (fun name ->
           try C.Netlist.compiled_node compiled name
           with Not_found ->
             invalid_arg ("Transient.run: unknown probe node " ^ name))
         probes)
  in
  (* initial quasi-static solve: a near-zero BE step pins capacitor
     voltages at their ICs while making resistive nodes consistent *)
  let reactive0 =
    { (Mna.init_reactive sys ~prev_v:v) with Mna.dt = 1e-18 }
  in
  let x =
    ref (Newton.solve sys ~ws ?deadline_at ~opts ~t_now:0.0
           ~reactive:reactive0 ~x0:(Mna.pack sys v) ())
  in
  (* committed node voltages and capacitor history: one row each for
     the whole run, updated in place on every accepted step the way
     [Ensemble] commits a lane *)
  let prev_v = Mna.voltages sys !x in
  let prev_cap = Mna.cap_currents sys ~opts ~x:!x ~reactive:reactive0 in
  let times = ref [ 0.0 ] in
  let samples = ref [ Array.map (fun id -> prev_v.(id)) probe_ids ] in
  let record t =
    times := t :: !times;
    samples := Array.map (fun id -> prev_v.(id)) probe_ids :: !samples
  in
  let max_retries = 4 in
  (* one accepted step from the current state to t_next, with halving
     retries on Newton failure; an exhausted retry budget surfaces as
     Step_failed so sweep-level callers can report which point died *)
  let advance ~seg_start ~seg_end t_prev t_next =
    let rec attempt t_prev dt retries =
      let t_now = t_prev +. dt in
      let reactive = { Mna.dt; prev_v; prev_cap_current = prev_cap } in
      match Newton.solve sys ~ws ?deadline_at ~opts ~t_now ~reactive ~x0:!x ()
      with
      | x_new ->
        Tel.Counter.incr c_accepted;
        Tel.Histogram.observe h_dt dt;
        x := x_new;
        (* history first: it reads the previous voltages *)
        Mna.cap_currents_into sys ~opts ~x:x_new ~reactive ~out:prev_cap;
        Mna.voltages_into sys x_new ~out:prev_v;
        if t_now >= t_next -. 1e-21 then ()
        else attempt t_now (t_next -. t_now) retries
      | exception Newton.No_convergence { t; iterations; worst } ->
        Tel.Counter.incr c_rejected;
        if retries > 0 then attempt t_prev (dt /. 2.0) (retries - 1)
        else
          raise
            (Step_failed
               { seg_start; seg_end; t; dt; retries = max_retries; iterations;
                 worst })
      (* a numerically sick step gets the same halving retries — a
         smaller step often routes around the sick region — but an
         exhausted budget re-raises the typed health error itself so
         the retry ladder and sweep reports keep the diagnosis.
         Newton.Timeout is deliberately not caught: a point past its
         wall-clock budget must fail now, not retry. *)
      | exception (Newton.Numerical_health _ as e) ->
        Tel.Counter.incr c_rejected;
        if retries > 0 then attempt t_prev (dt /. 2.0) (retries - 1)
        else raise e
    in
    attempt t_prev (t_next -. t_prev) max_retries
  in
  let t = ref 0.0 in
  ignore
    (List.fold_left
       (fun seg_start (t_end, dt) ->
         Tel.with_span "transient.segment"
           ~attrs:(fun () ->
             [ ("t_start", Tel.Float seg_start);
               ("t_end", Tel.Float t_end);
               ("dt", Tel.Float dt) ])
           (fun () ->
             while !t < t_end -. (dt /. 2.0) do
               let t_next = Float.min t_end (!t +. dt) in
               advance ~seg_start ~seg_end:t_end !t t_next;
               t := t_next;
               record !t
             done;
             t := Float.max !t t_end);
         t_end)
       0.0 segments);
  let times_arr = Array.of_list (List.rev !times) in
  let n_pts = Array.length times_arr in
  let samples_arr = Array.of_list (List.rev !samples) in
  let probe_values =
    Array.init (Array.length probe_ids) (fun i ->
        Array.init n_pts (fun k -> samples_arr.(k).(i)))
  in
  let probe_names = Array.of_list probes in
  {
    times = times_arr;
    probe_names;
    probe_values;
    final_v = prev_v;
    probe_interps = make_interps times_arr probe_names probe_values;
  }
