module C = Dramstress_circuit
module L = Dramstress_util.Linalg
module Tel = Dramstress_util.Telemetry

let c_template_rebuilds = Tel.Counter.make "engine.mna.template_rebuilds"
let c_lu_factors = Tel.Counter.make "engine.mna.lu_factors"
let c_lu_solves = Tel.Counter.make "engine.mna.lu_solves"

(* one factorization + one substitution happened (the naive Newton path
   calls this; the incremental path counts inside [solve_in_place]) *)
let record_factor_solve () =
  Tel.Counter.incr c_lu_factors;
  Tel.Counter.incr c_lu_solves

(* Pre-resolved stamp plans: every name lookup and node-to-row mapping is
   done once at [make] time, so the per-iteration hot path only walks
   flat arrays of integers and floats. Devices split into a
   *static-linear* part (resistors, voltage-source topology, capacitor
   conductances — fixed for a given time step and integrator) that is
   pre-stamped into a cached template, and a *dynamic* part (switches,
   source values, capacitor history, MOSFET linearizations) restamped on
   top of a row-wise copy of the template. *)

type res_plan = { r_a : int; r_b : int; g_res : float }

type switch_plan = {
  s_a : int;
  s_b : int;
  ctrl : C.Waveform.t;
  g_on : float;
  g_off : float;
  threshold : float;
}

type cap_plan = { c_a : int; c_b : int; slot : int; cap : float }
type vsrc_plan = { v_pos : int; v_neg : int; row : int; v_wave : C.Waveform.t }
type isrc_plan = { i_pos : int; i_neg : int; i_wave : C.Waveform.t }

type mos_plan = {
  m_d : int;
  m_g : int;
  m_s : int;
  model : C.Mosfet.model;
  mult : float;
}

type t = {
  compiled : C.Netlist.compiled;
  n_nodes : int;
  n_vsources : int;
  size : int;
  vsrc_branch : (string, int) Hashtbl.t;  (* vsource name -> branch index *)
  cap_index : (string, int) Hashtbl.t;    (* capacitor name -> slot *)
  res_index : (string, int) Hashtbl.t;    (* resistor name -> plan index *)
  n_caps : int;
  resistors : res_plan array;
  switches : switch_plan array;
  caps : cap_plan array;
  vsrcs : vsrc_plan array;
  isrcs : isrc_plan array;
  mosfets : mos_plan array;
}

let make (compiled : C.Netlist.compiled) =
  let n_nodes = compiled.n_nodes in
  let vsrc_branch = Hashtbl.create 8 in
  let cap_index = Hashtbl.create 8 in
  let nv = ref 0 and nc = ref 0 in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Vsource { name; _ } ->
        Hashtbl.add vsrc_branch name !nv;
        incr nv
      | C.Device.Capacitor { name; _ } ->
        Hashtbl.add cap_index name !nc;
        incr nc
      | C.Device.Resistor _ | C.Device.Isource _ | C.Device.Switch _
      | C.Device.Mosfet _ ->
        ())
    compiled.devices;
  let resistors = ref [] and switches = ref [] and caps = ref [] in
  let vsrcs = ref [] and isrcs = ref [] and mosfets = ref [] in
  let res_index = Hashtbl.create 8 in
  let nr = ref 0 in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Resistor { name; a; b; r; _ } ->
        Hashtbl.add res_index name !nr;
        incr nr;
        resistors := { r_a = a; r_b = b; g_res = 1.0 /. r } :: !resistors
      | C.Device.Switch { a; b; ctrl; g_on; g_off; threshold; _ } ->
        switches := { s_a = a; s_b = b; ctrl; g_on; g_off; threshold } :: !switches
      | C.Device.Capacitor { name; a; b; c; _ } ->
        caps :=
          { c_a = a; c_b = b; slot = Hashtbl.find cap_index name; cap = c }
          :: !caps
      | C.Device.Vsource { name; pos; neg; wave } ->
        vsrcs :=
          { v_pos = pos; v_neg = neg;
            row = n_nodes - 1 + Hashtbl.find vsrc_branch name; v_wave = wave }
          :: !vsrcs
      | C.Device.Isource { pos; neg; wave; _ } ->
        isrcs := { i_pos = pos; i_neg = neg; i_wave = wave } :: !isrcs
      | C.Device.Mosfet { d; g; s; model; m; _ } ->
        mosfets := { m_d = d; m_g = g; m_s = s; model; mult = m } :: !mosfets)
    compiled.devices;
  let arr l = Array.of_list (List.rev !l) in
  {
    compiled;
    n_nodes;
    n_vsources = !nv;
    size = n_nodes - 1 + !nv;
    vsrc_branch;
    cap_index;
    res_index;
    n_caps = !nc;
    resistors = arr resistors;
    switches = arr switches;
    caps = arr caps;
    vsrcs = arr vsrcs;
    isrcs = arr isrcs;
    mosfets = arr mosfets;
  }

let size sys = sys.size
let n_nodes sys = sys.n_nodes
let n_capacitors sys = sys.n_caps
let resistor_index sys name = Hashtbl.find_opt sys.res_index name
let resistor_g sys index = sys.resistors.(index).g_res

(* The structural nonzero pattern of every system any assembly of [sys]
   can produce — derived from the stamp PLANS, never from numeric
   values: a MOSFET's gm is zero below threshold and nonzero above, a
   switch conductance swings between g_on and g_off, but the stamped
   POSITIONS are fixed. This is what {!Dramstress_util.Sparse_lu}
   analyses once per topology. *)
let structural_pattern sys =
  let n = sys.size in
  let pat = Array.make_matrix n n false in
  let mark r c = if r > 0 && c > 0 then pat.(r - 1).(c - 1) <- true in
  let mark_g a b =
    mark a a;
    mark b b;
    mark a b;
    mark b a
  in
  for node = 1 to sys.n_nodes - 1 do
    pat.(node - 1).(node - 1) <- true (* gmin *)
  done;
  Array.iter (fun p -> mark_g p.r_a p.r_b) sys.resistors;
  Array.iter (fun p -> mark_g p.s_a p.s_b) sys.switches;
  Array.iter (fun p -> mark_g p.c_a p.c_b) sys.caps;
  Array.iter
    (fun p ->
      (* branch rows/cols land past the node block; mark them directly *)
      if p.v_pos > 0 then begin
        pat.(p.v_pos - 1).(p.row) <- true;
        pat.(p.row).(p.v_pos - 1) <- true
      end;
      if p.v_neg > 0 then begin
        pat.(p.v_neg - 1).(p.row) <- true;
        pat.(p.row).(p.v_neg - 1) <- true
      end)
    sys.vsrcs;
  Array.iter
    (fun p ->
      (* gds between d and s, plus the gm VCCS controlled by (g, s) *)
      mark_g p.m_d p.m_s;
      mark p.m_d p.m_g;
      mark p.m_s p.m_g)
    sys.mosfets;
  pat

let[@inline] node_voltage _sys x node = if node = 0 then 0.0 else x.(node - 1)

let voltages sys x =
  Array.init sys.n_nodes (fun n -> if n = 0 then 0.0 else x.(n - 1))

let voltages_into sys x ~out =
  out.(0) <- 0.0;
  for n = 1 to sys.n_nodes - 1 do
    out.(n) <- x.(n - 1)
  done

let pack sys node_voltages =
  Array.init sys.size (fun i ->
      if i < sys.n_nodes - 1 then node_voltages.(i + 1) else 0.0)

let branch_current sys x name =
  x.(sys.n_nodes - 1 + Hashtbl.find sys.vsrc_branch name)

type reactive = {
  dt : float;
  prev_v : float array;
  prev_cap_current : float array;
}

let dc_reactive sys =
  { dt = 0.0; prev_v = Array.make sys.n_nodes 0.0;
    prev_cap_current = Array.make sys.n_caps 0.0 }

(* Stamping helpers. Node indices map to matrix rows as [node - 1];
   ground (0) contributions are dropped. All [@inline]: without flambda
   a float argument to a call that is not inlined is boxed, once per
   stamp per Newton iteration. *)

let[@inline] stamp_g g mat a b =
  let ia = a - 1 and ib = b - 1 in
  if ia >= 0 then mat.(ia).(ia) <- mat.(ia).(ia) +. g;
  if ib >= 0 then mat.(ib).(ib) <- mat.(ib).(ib) +. g;
  if ia >= 0 && ib >= 0 then begin
    mat.(ia).(ib) <- mat.(ia).(ib) -. g;
    mat.(ib).(ia) <- mat.(ib).(ia) -. g
  end

(* current [i] injected INTO node [n] appears on the RHS *)
let[@inline] stamp_i i rhs n = if n > 0 then rhs.(n - 1) <- rhs.(n - 1) +. i

(* VCCS: current g * (v_cp - v_cn) flows from node [p] to node [n]
   (leaves p, enters n). First-order function on purpose — an inner
   closure here would allocate once per MOSFET per Newton iteration. *)
let[@inline] stamp_vccs_set mat r c v =
  if r > 0 && c > 0 then mat.(r - 1).(c - 1) <- mat.(r - 1).(c - 1) +. v

let[@inline] stamp_vccs g mat p n cp cn =
  stamp_vccs_set mat p cp g;
  stamp_vccs_set mat p cn (-.g);
  stamp_vccs_set mat n cp (-.g);
  stamp_vccs_set mat n cn g

(* capacitor companion conductance for one time step *)
let[@inline] cap_g ~(opts : Options.t) ~dt c =
  match opts.integrator with
  | Options.Backward_euler -> c /. dt
  | Options.Trapezoidal -> 2.0 *. c /. dt

let mosfet_stamps ~temp mat rhs x sys (m : C.Device.t) =
  match m with
  | C.Device.Mosfet { d; g; s; model; m = mult; _ } ->
    let vd = node_voltage sys x d
    and vg = node_voltage sys x g
    and vs = node_voltage sys x s in
    let vgs = vg -. vs and vds = vd -. vs in
    let e = C.Mosfet.ids model ~temp ~vgs ~vds in
    let id = e.id *. mult and gm = e.gm *. mult and gds = e.gds *. mult in
    (* linearized: Id(v) = Ieq + gm*vgs + gds*vds *)
    let ieq = id -. (gm *. vgs) -. (gds *. vds) in
    (* gds acts like a resistor d-s *)
    stamp_g gds mat d s;
    (* gm: current gm*(vg - vs) flowing d -> s *)
    stamp_vccs gm mat d s g s;
    (* Ieq flows from d to s through the device: leaves d, enters s *)
    stamp_i (-.ieq) rhs d;
    stamp_i ieq rhs s
  | C.Device.Resistor _ | C.Device.Capacitor _ | C.Device.Vsource _
  | C.Device.Isource _ | C.Device.Switch _ ->
    assert false

(* Reference from-scratch assembly (the seed implementation). Kept alive
   as the golden baseline: the incremental workspace path below must
   produce identical systems, which the regression tests assert. *)
let assemble ?override sys ~(opts : Options.t) ~t_now ~x ~reactive =
  let n = sys.size in
  let mat = L.create n n in
  let rhs = Array.make n 0.0 in
  (* gmin to ground on every node keeps floating subcircuits solvable *)
  for node = 1 to sys.n_nodes - 1 do
    mat.(node - 1).(node - 1) <- mat.(node - 1).(node - 1) +. opts.gmin
  done;
  let branch_row name = sys.n_nodes - 1 + Hashtbl.find sys.vsrc_branch name in
  let res_plan = ref 0 in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Resistor { a; b; r; _ } ->
        let g =
          match override with
          | Some (index, g) when index = !res_plan -> g
          | Some _ | None -> 1.0 /. r
        in
        incr res_plan;
        stamp_g g mat a b
      | C.Device.Switch { a; b; ctrl; g_on; g_off; threshold; _ } ->
        let g = if C.Waveform.eval ctrl t_now > threshold then g_on else g_off in
        stamp_g g mat a b
      | C.Device.Capacitor { name; a; b; c; _ } ->
        if reactive.dt > 0.0 then begin
          let vab_prev = reactive.prev_v.(a) -. reactive.prev_v.(b) in
          let slot = Hashtbl.find sys.cap_index name in
          let g = cap_g ~opts ~dt:reactive.dt c in
          let i_hist =
            match opts.integrator with
            | Options.Backward_euler -> g *. vab_prev
            | Options.Trapezoidal ->
              (g *. vab_prev) +. reactive.prev_cap_current.(slot)
          in
          stamp_g g mat a b;
          stamp_i i_hist rhs a;
          stamp_i (-.i_hist) rhs b
        end
      | C.Device.Vsource { name; pos; neg; wave } ->
        let row = branch_row name in
        (* branch current leaves pos, enters neg *)
        if pos > 0 then begin
          mat.(pos - 1).(row) <- mat.(pos - 1).(row) +. 1.0;
          mat.(row).(pos - 1) <- mat.(row).(pos - 1) +. 1.0
        end;
        if neg > 0 then begin
          mat.(neg - 1).(row) <- mat.(neg - 1).(row) -. 1.0;
          mat.(row).(neg - 1) <- mat.(row).(neg - 1) -. 1.0
        end;
        rhs.(row) <- C.Waveform.eval wave t_now
      | C.Device.Isource { pos; neg; wave; _ } ->
        let i = C.Waveform.eval wave t_now in
        (* positive current flows pos -> neg through the source: leaves
           the pos node, is injected into the neg node *)
        stamp_i (-.i) rhs pos;
        stamp_i i rhs neg
      | C.Device.Mosfet _ ->
        mosfet_stamps ~temp:opts.temp mat rhs x sys d)
    sys.compiled.devices;
  (mat, rhs)

(* ------------------------------------------------------------------ *)
(* Incremental assembly workspace                                      *)
(* ------------------------------------------------------------------ *)

module Sp = Dramstress_util.Sparse_lu

type workspace = {
  w_size : int;
  mat : L.matrix;          (* stamped system, factored in place *)
  rhs : float array;       (* stamped RHS, overwritten with the solution *)
  tmpl : L.matrix;         (* cached static-linear template *)
  (* scalar fields rather than a key tuple: the validity check runs every
     Newton iteration and must not allocate *)
  mutable tmpl_valid : bool;
  mutable tmpl_dt : float;
  mutable tmpl_gmin : float;
  mutable tmpl_trapezoidal : bool;
  mutable tmpl_excluded : int;
  (* per-lane resistance override (ensemble sweeps): plan index of the
     resistor excluded from the template, and the conductance stamped in
     its place after every template copy. [-1] = no override. Stamping
     the lane conductance directly — rather than adding a delta on top
     of the base stamp — keeps the lane's conductance exact across the
     full 1e3..1e11 Ohm sweep range (a delta cancels catastrophically
     when the lane and base conductances differ by orders of magnitude) *)
  mutable excluded_res : int;
  mutable override_g : float;
  (* cached control evaluations for the current t_now, shared across
     ensemble lanes (one waveform walk per time point, not per lane) *)
  sw_g : float array;
  vs_v : float array;
  is_i : float array;
  scratch : float array;
  mutable slu : Sp.t option;  (* lazily built on the first sparse solve *)
  (* per-MOSFET temperature-resolved constants, valid for [mos_temp]
     (nan until the first assembly) *)
  mutable mos_temp : float;
  mutable mos_prep : C.Mosfet.prepared array;
  node_v : float array;   (* per-node voltages of the iterate *)
  mos_eval : float array; (* id, gm, gds of the device being stamped *)
}

let make_workspace sys =
  let n = sys.size in
  {
    w_size = n;
    mat = L.create n n;
    rhs = Array.make n 0.0;
    tmpl = L.create n n;
    tmpl_valid = false;
    tmpl_dt = 0.0;
    tmpl_gmin = 0.0;
    tmpl_trapezoidal = false;
    tmpl_excluded = -1;
    excluded_res = -1;
    override_g = 0.0;
    sw_g = Array.make (Array.length sys.switches) 0.0;
    vs_v = Array.make (Array.length sys.vsrcs) 0.0;
    is_i = Array.make (Array.length sys.isrcs) 0.0;
    scratch = Array.make n 0.0;
    slu = None;
    mos_temp = Float.nan;
    mos_prep = [||];
    node_v = Array.make sys.n_nodes 0.0;
    mos_eval = Array.make 3 0.0;
  }

let set_resistor_override ws ~index ~g =
  ws.excluded_res <- index;
  ws.override_g <- g

let resistor_override ws =
  if ws.excluded_res < 0 then None else Some (ws.excluded_res, ws.override_g)

(* static-linear part: gmin regularization, resistors, voltage-source
   topology and — for a fixed (dt, integrator) — the capacitor companion
   conductances. Everything here is independent of t, x and history. A
   resistor under lane override is left out (its lane conductance is
   stamped fresh after each template copy instead). *)
let rebuild_template sys ws ~(opts : Options.t) ~dt =
  let tmpl = ws.tmpl in
  for i = 0 to ws.w_size - 1 do
    Array.fill tmpl.(i) 0 ws.w_size 0.0
  done;
  for node = 1 to sys.n_nodes - 1 do
    tmpl.(node - 1).(node - 1) <- tmpl.(node - 1).(node - 1) +. opts.gmin
  done;
  Array.iteri
    (fun i p ->
      if i <> ws.excluded_res then stamp_g p.g_res tmpl p.r_a p.r_b)
    sys.resistors;
  Array.iter
    (fun p ->
      if p.v_pos > 0 then begin
        tmpl.(p.v_pos - 1).(p.row) <- tmpl.(p.v_pos - 1).(p.row) +. 1.0;
        tmpl.(p.row).(p.v_pos - 1) <- tmpl.(p.row).(p.v_pos - 1) +. 1.0
      end;
      if p.v_neg > 0 then begin
        tmpl.(p.v_neg - 1).(p.row) <- tmpl.(p.v_neg - 1).(p.row) -. 1.0;
        tmpl.(p.row).(p.v_neg - 1) <- tmpl.(p.row).(p.v_neg - 1) -. 1.0
      end)
    sys.vsrcs;
  if dt > 0.0 then
    Array.iter
      (fun p -> stamp_g (cap_g ~opts ~dt p.cap) tmpl p.c_a p.c_b)
      sys.caps

(* Evaluate every control waveform at [t_now] into the workspace
   buffers. Split out of assembly so the ensemble engine can walk the
   waveforms once per time point and share the values across all lanes
   (they integrate on one shared grid). *)
let eval_controls_into sys ws ~t_now =
  for i = 0 to Array.length sys.switches - 1 do
    let p = sys.switches.(i) in
    ws.sw_g.(i) <-
      (if C.Waveform.eval p.ctrl t_now > p.threshold then p.g_on else p.g_off)
  done;
  for i = 0 to Array.length sys.vsrcs - 1 do
    ws.vs_v.(i) <- C.Waveform.eval sys.vsrcs.(i).v_wave t_now
  done;
  for i = 0 to Array.length sys.isrcs - 1 do
    ws.is_i.(i) <- C.Waveform.eval sys.isrcs.(i).i_wave t_now
  done

(* assembly from pre-evaluated controls ([eval_controls_into]) *)
let assemble_into_pre sys ws ~(opts : Options.t) ~x ~reactive =
  let n = ws.w_size in
  assert (n = sys.size);
  let trapezoidal =
    match opts.integrator with
    | Options.Backward_euler -> false
    | Options.Trapezoidal -> true
  in
  (if
     (not ws.tmpl_valid)
     || ws.tmpl_dt <> reactive.dt
     || ws.tmpl_gmin <> opts.gmin
     || ws.tmpl_trapezoidal <> trapezoidal
     || ws.tmpl_excluded <> ws.excluded_res
   then begin
     Tel.Counter.incr c_template_rebuilds;
     rebuild_template sys ws ~opts ~dt:reactive.dt;
     ws.tmpl_valid <- true;
     ws.tmpl_dt <- reactive.dt;
     ws.tmpl_gmin <- opts.gmin;
     ws.tmpl_trapezoidal <- trapezoidal;
     ws.tmpl_excluded <- ws.excluded_res
   end);
  let mat = ws.mat and rhs = ws.rhs in
  for i = 0 to n - 1 do
    Array.blit ws.tmpl.(i) 0 mat.(i) 0 n
  done;
  Array.fill rhs 0 n 0.0;
  (if ws.excluded_res >= 0 then
     let p = sys.resistors.(ws.excluded_res) in
     stamp_g ws.override_g mat p.r_a p.r_b);
  (* dynamic stamps: switch state and source values at t_now, capacitor
     history currents, MOSFET linearization around x. Indexed loops, not
     [Array.iter]: this body runs every Newton iteration and a closure per
     device class would be allocated on each call. *)
  for i = 0 to Array.length sys.switches - 1 do
    let p = sys.switches.(i) in
    stamp_g ws.sw_g.(i) mat p.s_a p.s_b
  done;
  if reactive.dt > 0.0 then
    for i = 0 to Array.length sys.caps - 1 do
      let p = sys.caps.(i) in
      let vab_prev = reactive.prev_v.(p.c_a) -. reactive.prev_v.(p.c_b) in
      let g = cap_g ~opts ~dt:reactive.dt p.cap in
      let i_hist =
        match opts.integrator with
        | Options.Backward_euler -> g *. vab_prev
        | Options.Trapezoidal ->
          (g *. vab_prev) +. reactive.prev_cap_current.(p.slot)
      in
      stamp_i i_hist rhs p.c_a;
      stamp_i (-.i_hist) rhs p.c_b
    done;
  for i = 0 to Array.length sys.vsrcs - 1 do
    rhs.(sys.vsrcs.(i).row) <- ws.vs_v.(i)
  done;
  for i = 0 to Array.length sys.isrcs - 1 do
    let p = sys.isrcs.(i) in
    let i_src = ws.is_i.(i) in
    stamp_i (-.i_src) rhs p.i_pos;
    stamp_i i_src rhs p.i_neg
  done;
  if not (ws.mos_temp = opts.temp) then begin
    ws.mos_prep <-
      Array.map
        (fun p -> C.Mosfet.prepare p.model ~temp:opts.temp)
        sys.mosfets;
    ws.mos_temp <- opts.temp
  end;
  let v = ws.node_v and e = ws.mos_eval in
  if Array.length sys.mosfets > 0 then voltages_into sys x ~out:v;
  for i = 0 to Array.length sys.mosfets - 1 do
    let p = sys.mosfets.(i) in
    C.Mosfet.ids_into ws.mos_prep.(i) v ~d:p.m_d ~g:p.m_g ~s:p.m_s e;
    let vgs = v.(p.m_g) -. v.(p.m_s) and vds = v.(p.m_d) -. v.(p.m_s) in
    let id = e.(0) *. p.mult
    and gm = e.(1) *. p.mult
    and gds = e.(2) *. p.mult in
    let ieq = id -. (gm *. vgs) -. (gds *. vds) in
    stamp_g gds mat p.m_d p.m_s;
    stamp_vccs gm mat p.m_d p.m_s p.m_g p.m_s;
    stamp_i (-.ieq) rhs p.m_d;
    stamp_i ieq rhs p.m_s
  done

module Chaos = Dramstress_util.Chaos

let solve_in_place sys ws =
  record_factor_solve ();
  if Chaos.armed () && Chaos.fire Chaos.Perturb_jacobian then
    (* zero a row: crisply rank-deficient, so the factorization's pivot
       guard must catch it — the detection the chaos harness asserts *)
    Array.fill ws.mat.(0) 0 ws.w_size 0.0;
  let slu =
    match ws.slu with
    | Some s -> s
    | None ->
      let s = Sp.make ~n:ws.w_size ~pattern:(structural_pattern sys) in
      ws.slu <- Some s;
      s
  in
  Sp.factor slu ws.mat;
  Sp.solve slu ~scratch:ws.scratch ws.rhs

let solution ws = ws.rhs

(* [out] may alias [reactive.prev_cap_current]: each capacitor reads
   only its own slot's previous current before overwriting that same
   slot, so the in-place update is well-defined. *)
let cap_currents_into sys ~(opts : Options.t) ~x ~reactive ~out =
  for k = 0 to Array.length sys.caps - 1 do
    let p = sys.caps.(k) in
    if reactive.dt > 0.0 then begin
      let vab = node_voltage sys x p.c_a -. node_voltage sys x p.c_b in
      let vab_prev = reactive.prev_v.(p.c_a) -. reactive.prev_v.(p.c_b) in
      let i =
        match opts.integrator with
        | Options.Backward_euler -> p.cap /. reactive.dt *. (vab -. vab_prev)
        | Options.Trapezoidal ->
          (2.0 *. p.cap /. reactive.dt *. (vab -. vab_prev))
          -. reactive.prev_cap_current.(p.slot)
      in
      out.(p.slot) <- i
    end
    else out.(p.slot) <- 0.0
  done

