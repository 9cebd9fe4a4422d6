module C = Dramstress_circuit
module D = Dramstress_circuit.Device
module W = Dramstress_circuit.Waveform
module L = Dramstress_util.Linalg
module E = Dramstress_engine

(* the length of the consistency step at t=0, as in production *)
let dt_quasi_static = 1e-18

let replay (compiled : C.Netlist.compiled) ~(opts : E.Options.t) ?override
    ~ics ~probes ~times () =
  let devices = compiled.C.Netlist.devices in
  let n_nodes = compiled.C.Netlist.n_nodes in
  let node name =
    try C.Netlist.compiled_node compiled name
    with Not_found -> invalid_arg ("Reference.replay: unknown node " ^ name)
  in
  (* node n is unknown n - 1; the voltage sources' branch currents
     follow, in device order *)
  let n_v = n_nodes - 1 in
  let n_src = ref 0 in
  let branch =
    Array.map
      (function
        | D.Vsource _ ->
          incr n_src;
          n_v + !n_src - 1
        | _ -> -1)
      devices
  in
  let size = n_v + !n_src in
  (match override with
  | Some (name, _)
    when not
           (Array.exists
              (function D.Resistor r -> r.name = name | _ -> false)
              devices) ->
    invalid_arg ("Reference.replay: unknown resistor " ^ name)
  | _ -> ());
  let resistance name r =
    match override with Some (n, ohms) when n = name -> ohms | _ -> r
  in
  let caps =
    Array.of_list
      (List.filter_map
         (function D.Capacitor { a; b; c; _ } -> Some (a, b, c) | _ -> None)
         (Array.to_list devices))
  in
  let v x n = if n = 0 then 0.0 else x.(n - 1) in
  (* The system linearized around [x] at time [t], for a step of length
     [dt] from the accepted state [prev], whose own step had length
     [dt_prev] from the state [prev2] before it ([dt_prev] 0 when there
     is none). Rows and columns are unknowns; -1 is ground. *)
  let assemble ~t ~dt ~dt_prev ~prev ~prev2 x =
    let a = L.create size size and b = Array.make size 0.0 in
    let add i j g = if i >= 0 && j >= 0 then a.(i).(j) <- a.(i).(j) +. g in
    let inject n i = if n > 0 then b.(n - 1) <- b.(n - 1) +. i in
    let conductance g p q =
      add (p - 1) (p - 1) g;
      add (q - 1) (q - 1) g;
      add (p - 1) (q - 1) (-.g);
      add (q - 1) (p - 1) (-.g)
    in
    for i = 0 to n_v - 1 do
      add i i E.Options.gmin
    done;
    (* each capacitor's companion, from the variable-step BDF2 formula
         C dv/dt ~ (C/dt) [ (1+2w)/(1+w) v - (1+w) v_prev
                            + w^2/(1+w) v_prev2 ],  w = dt/dt_prev:
       a conductance in parallel with the history current. Backward
       Euler, C/dt and C/dt * v_prev, on a step with no previous one or
       one that more than doubles it. *)
    Array.iter
      (fun (p, q, c) ->
        let vab s = v s p -. v s q in
        let g, hist =
          if dt_prev > 0.0 && dt <= 2.0 *. dt_prev *. (1.0 +. 1e-9) then
            let w = dt /. dt_prev in
            ( c /. dt *. (1.0 +. (2.0 *. w)) /. (1.0 +. w),
              c /. dt
              *. (((1.0 +. w) *. vab prev)
                 -. (w *. w /. (1.0 +. w) *. vab prev2)) )
          else (c /. dt, c /. dt *. vab prev)
        in
        conductance g p q;
        inject p hist;
        inject q (-.hist))
      caps;
    Array.iteri
      (fun di d ->
        match d with
        | D.Capacitor _ -> ()
        | D.Resistor { name; a = p; b = q; r } ->
          conductance (1.0 /. resistance name r) p q
        | D.Switch { a = p; b = q; ctrl; g_on; g_off; threshold; _ } ->
          (* the switch state at the step's midpoint *)
          let on = W.eval ctrl (t -. (dt /. 2.0)) > threshold in
          conductance (if on then g_on else g_off) p q
        | D.Vsource { pos; neg; wave; _ } ->
          (* the branch current leaves [pos] and enters [neg]; its row
             holds v_pos - v_neg = V(t) *)
          let br = branch.(di) in
          add (pos - 1) br 1.0;
          add (neg - 1) br (-1.0);
          add br (pos - 1) 1.0;
          add br (neg - 1) (-1.0);
          b.(br) <- W.eval wave t
        | D.Isource { pos; neg; wave; _ } ->
          let i = W.eval wave t in
          inject pos (-.i);
          inject neg i
        | D.Mosfet { d = nd; g = ng; s = ns; model; m; _ } ->
          (* the drain current, linearized:
             I = I0 + gm (vgs - vgs0) + gds (vds - vds0), drain to
             source *)
          let vgs = v x ng -. v x ns and vds = v x nd -. v x ns in
          let e = C.Mosfet.ids model ~temp:opts.temp ~vgs ~vds in
          let id = m *. e.C.Mosfet.id
          and gm = m *. e.C.Mosfet.gm
          and gds = m *. e.C.Mosfet.gds in
          let i0 = id -. (gm *. vgs) -. (gds *. vds) in
          List.iter
            (fun (row, sign) ->
              add row (ng - 1) (sign *. gm);
              add row (nd - 1) (sign *. gds);
              add row (ns - 1) (-.sign *. (gm +. gds)))
            [ (nd - 1, 1.0); (ns - 1, -1.0) ];
          inject nd (-.i0);
          inject ns i0)
      devices;
    (a, b)
  in
  (* damped Newton from [x0], every node move clamped *)
  let solve ~t ~dt ~dt_prev ~prev ~prev2 x0 =
    let x = Array.copy x0 in
    let rec iterate iter =
      let a, b = assemble ~t ~dt ~dt_prev ~prev ~prev2 x in
      let x_new = L.lu_solve (L.lu_factor a) b in
      let worst = ref 0.0 and largest = ref 0.0 in
      for i = 0 to size - 1 do
        if i < n_v then begin
          let dx = x_new.(i) -. x.(i) in
          let m = opts.max_step_v in
          worst := Float.max !worst (Float.abs dx);
          x.(i) <- x.(i) +. Float.max (-.m) (Float.min m dx);
          largest := Float.max !largest (Float.abs x.(i))
        end
        else x.(i) <- x_new.(i)
      done;
      let bound = E.Options.abstol +. (E.Options.reltol *. !largest) in
      if !worst <= opts.tol_scale *. bound then x
      else if iter >= opts.max_newton then
        failwith
          (Printf.sprintf "Reference.replay: no convergence at t=%g (%g V)" t
             !worst)
      else iterate (iter + 1)
    in
    iterate 1
  in
  let n_times = Array.length times in
  if n_times = 0 || times.(0) <> 0.0 then
    invalid_arg "Reference.replay: times must start at 0.0";
  let probe_ids = Array.of_list (List.map node probes) in
  let samples = Array.map (fun _ -> Array.make n_times 0.0) probe_ids in
  let record k x =
    Array.iteri (fun p n -> samples.(p).(k) <- v x n) probe_ids
  in
  let x_ic = Array.make size 0.0 in
  List.iter (fun (name, value) -> x_ic.(node name - 1) <- value) ics;
  (* the t=0 step and the first step after it have no previous step *)
  let state = ref (solve ~t:0.0 ~dt:dt_quasi_static ~dt_prev:0.0 ~prev:x_ic
                     ~prev2:x_ic x_ic) in
  let before = ref !state in
  record 0 !state;
  for k = 1 to n_times - 1 do
    let dt = times.(k) -. times.(k - 1) in
    let dt_prev = if k = 1 then 0.0 else times.(k - 1) -. times.(k - 2) in
    let next = solve ~t:times.(k) ~dt ~dt_prev ~prev:!state ~prev2:!before
                 !state in
    before := !state;
    state := next;
    record k !state
  done;
  let probe_names = Array.of_list probes in
  {
    E.Transient.times = Array.copy times;
    probe_names;
    probe_values = samples;
    final_v = Array.init n_nodes (v !state);
    probe_interps = E.Transient.make_interps times probe_names samples;
  }

let check ~eps_final ~eps_trace ~what (expected : E.Transient.result)
    (actual : E.Transient.result) =
  let close eps v w = Float.abs (v -. w) <= eps *. (1.0 +. Float.abs w) in
  Array.iteri
    (fun i v ->
      let w = actual.E.Transient.final_v.(i) in
      if not (close eps_final v w) then
        Alcotest.failf "%s: final_v.(%d): reference %.12g vs engine %.12g" what
          i v w)
    expected.E.Transient.final_v;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun k v ->
          let w = actual.E.Transient.probe_values.(i).(k) in
          if not (close eps_trace v w) then
            Alcotest.failf
              "%s: probe %s at point %d: reference %.12g vs engine %.12g" what
              expected.E.Transient.probe_names.(i) k v w)
        row)
    expected.E.Transient.probe_values
