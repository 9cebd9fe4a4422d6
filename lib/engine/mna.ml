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

module Sp = Dramstress_util.Sparse_lu

(* Pre-resolved stamp plans: every name lookup, node-to-row mapping and
   matrix position is resolved once at [make] time, so the per-iteration
   hot path only walks flat arrays of integers and floats. The system
   matrix is a flat vector of {!Sp} slot values, and each plan carries
   the slots its stamps add into ([-1] where a stamp would touch the
   ground row or column, which is dropped). Devices split into a
   *static-linear* part (resistors, voltage-source topology, capacitor
   conductances — fixed for a given time step and integrator) that is
   pre-stamped into a cached template, and a *dynamic* part (switches,
   source values, capacitor history, MOSFET linearizations) restamped on
   top of a copy of the template. *)

(* the slots of a conductance between nodes a and b: (a,a), (b,b),
   (a,b) and (b,a) *)
type g4 = { aa : int; bb : int; ab : int; ba : int }

type res_plan = { r_slots : g4; g_res : float }

(* [s_wave], [v_wave] and [i_wave] index the system's distinct control
   waveforms ([waves]) *)
type switch_plan = {
  s_slots : g4;
  s_wave : int;
  g_on : float;
  g_off : float;
  threshold : float;
}

type cap_plan = { c_a : int; c_b : int; c_slots : g4; hist : int; cap : float }

(* [row] is the branch row; the ±1 incidences sit at (pos,row),
   (row,pos), (neg,row) and (row,neg) *)
type vsrc_plan = {
  row : int;
  pos_row : int;
  row_pos : int;
  neg_row : int;
  row_neg : int;
  v_wave : int;
}

type isrc_plan = { i_pos : int; i_neg : int; i_wave : int }

(* gds stamps like a conductance d-s; the gm VCCS adds at (d,g), (d,s),
   (s,g) and (s,s), the second and fourth shared with [m_gds] *)
type mos_plan = {
  m_d : int;
  m_g : int;
  m_s : int;
  model : C.Mosfet.model;
  mult : float;
  m_gds : g4;
  m_dg : int;
  m_sg : int;
}

type t = {
  compiled : C.Netlist.compiled;
  n_nodes : int;
  n_vsources : int;
  size : int;
  vsrc_branch : (string, int) Hashtbl.t;  (* vsource name -> branch index *)
  res_index : (string, int) Hashtbl.t;    (* resistor name -> plan index *)
  n_caps : int;
  sp : Sp.t;  (* slots and column order of the pattern; never factored *)
  nnz : int;  (* slot count *)
  gmin_slots : int array;      (* per node 1..n_nodes-1: its diagonal *)
  row0_slots : int array;      (* the slots of row 0 (chaos site) *)
  waves : C.Waveform.t array;  (* distinct control waveforms *)
  resistors : res_plan array;
  switches : switch_plan array;
  caps : cap_plan array;
  vsrcs : vsrc_plan array;
  isrcs : isrc_plan array;
  mosfets : mos_plan array;
}

(* The structural nonzero pattern of every system any assembly can
   produce — derived from the devices, never from numeric values: a
   MOSFET's gm is zero below threshold and nonzero above, a switch
   conductance swings between g_on and g_off, but the stamped POSITIONS
   are fixed. This is what {!Sp} numbers into slots and analyses once
   per topology. *)
let structural_pattern (compiled : C.Netlist.compiled) ~size ~branch_row =
  let pat = Array.make_matrix size size false in
  (* matrix indices; ground's [-1] is dropped *)
  let mark r c = if r >= 0 && c >= 0 then pat.(r).(c) <- true in
  let mark_g a b =
    let ia = a - 1 and ib = b - 1 in
    mark ia ia;
    mark ib ib;
    mark ia ib;
    mark ib ia
  in
  for node = 1 to compiled.n_nodes - 1 do
    mark (node - 1) (node - 1) (* gmin *)
  done;
  Array.iter
    (fun d ->
      match d with
      | C.Device.Resistor { a; b; _ }
      | C.Device.Switch { a; b; _ }
      | C.Device.Capacitor { a; b; _ } ->
        mark_g a b
      | C.Device.Vsource { name; pos; neg; _ } ->
        let row = branch_row name in
        mark (pos - 1) row;
        mark row (pos - 1);
        mark (neg - 1) row;
        mark row (neg - 1)
      | C.Device.Isource _ -> ()
      | C.Device.Mosfet { d; g; s; _ } ->
        (* gds between d and s, plus the gm VCCS controlled by (g, s) *)
        mark_g d s;
        mark (d - 1) (g - 1);
        mark (s - 1) (g - 1))
    compiled.devices;
  pat

let make (compiled : C.Netlist.compiled) =
  let n_nodes = compiled.n_nodes in
  let vsrc_branch = Hashtbl.create 8 in
  let nv = ref 0 and nc = ref 0 in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Vsource { name; _ } ->
        Hashtbl.add vsrc_branch name !nv;
        incr nv
      | C.Device.Capacitor _ -> incr nc
      | C.Device.Resistor _ | C.Device.Isource _ | C.Device.Switch _
      | C.Device.Mosfet _ ->
        ())
    compiled.devices;
  let size = n_nodes - 1 + !nv in
  let branch_row name = n_nodes - 1 + Hashtbl.find vsrc_branch name in
  let pattern = structural_pattern compiled ~size ~branch_row in
  (* slots and column order, computed once per topology: every
     workspace's handle is a [Sp.fresh] copy of this one *)
  let sp = Sp.make ~n:size ~pattern in
  let at r c = if r >= 0 && c >= 0 then Sp.slot sp r c else -1 in
  let g4 a b =
    let ia = a - 1 and ib = b - 1 in
    { aa = at ia ia; bb = at ib ib; ab = at ia ib; ba = at ib ia }
  in
  let resistors = ref [] and switches = ref [] and caps = ref [] in
  let vsrcs = ref [] and isrcs = ref [] and mosfets = ref [] in
  let res_index = Hashtbl.create 8 in
  let nr = ref 0 and hist = ref 0 in
  (* a column's switches and sources share a few control waveforms (six
     switches read the precharge signal): each distinct one is evaluated
     once per time point *)
  let waves = ref [] and wave_ix = Hashtbl.create 16 in
  let wave_index w =
    match Hashtbl.find_opt wave_ix w with
    | Some i -> i
    | None ->
      let i = Hashtbl.length wave_ix in
      Hashtbl.add wave_ix w i;
      waves := w :: !waves;
      i
  in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Resistor { name; a; b; r; _ } ->
        Hashtbl.add res_index name !nr;
        incr nr;
        resistors := { r_slots = g4 a b; g_res = 1.0 /. r } :: !resistors
      | C.Device.Switch { a; b; ctrl; g_on; g_off; threshold; _ } ->
        switches :=
          { s_slots = g4 a b; s_wave = wave_index ctrl; g_on; g_off; threshold }
          :: !switches
      | C.Device.Capacitor { a; b; c; _ } ->
        caps := { c_a = a; c_b = b; c_slots = g4 a b; hist = !hist; cap = c }
                :: !caps;
        incr hist
      | C.Device.Vsource { name; pos; neg; wave } ->
        let row = branch_row name in
        vsrcs :=
          { row; pos_row = at (pos - 1) row; row_pos = at row (pos - 1);
            neg_row = at (neg - 1) row; row_neg = at row (neg - 1);
            v_wave = wave_index wave }
          :: !vsrcs
      | C.Device.Isource { pos; neg; wave; _ } ->
        isrcs :=
          { i_pos = pos; i_neg = neg; i_wave = wave_index wave } :: !isrcs
      | C.Device.Mosfet { d; g; s; model; m; _ } ->
        mosfets :=
          { m_d = d; m_g = g; m_s = s; model; mult = m; m_gds = g4 d s;
            m_dg = at (d - 1) (g - 1); m_sg = at (s - 1) (g - 1) }
          :: !mosfets)
    compiled.devices;
  let arr l = Array.of_list (List.rev !l) in
  {
    compiled;
    n_nodes;
    n_vsources = !nv;
    size;
    vsrc_branch;
    res_index;
    n_caps = !nc;
    sp;
    nnz = Sp.nnz sp;
    gmin_slots = Array.init (n_nodes - 1) (fun i -> at i i);
    row0_slots =
      Array.of_list
        (List.filter_map
           (fun j -> if pattern.(0).(j) then Some (at 0 j) else None)
           (List.init size Fun.id));
    waves = arr waves;
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
  mutable dt : float;
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
  let res_plan = ref 0 and cap_hist = ref 0 in
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
      | C.Device.Capacitor { a; b; c; _ } ->
        let slot = !cap_hist in
        incr cap_hist;
        if reactive.dt > 0.0 then begin
          let vab_prev = reactive.prev_v.(a) -. reactive.prev_v.(b) in
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

(* Slot stamps: the same additions, in the same order, as the dense
   [stamp_g] / [stamp_vccs] above, into the slot vector. A [-1] slot is
   a ground row or column. *)

let[@inline] stamp_at v s x = if s >= 0 then v.(s) <- v.(s) +. x

let[@inline] stamp_g4 g v q =
  if q.aa >= 0 then v.(q.aa) <- v.(q.aa) +. g;
  if q.bb >= 0 then v.(q.bb) <- v.(q.bb) +. g;
  if q.ab >= 0 then begin
    v.(q.ab) <- v.(q.ab) -. g;
    v.(q.ba) <- v.(q.ba) -. g
  end

type workspace = {
  w_size : int;
  vals : float array;      (* stamped system by slot, factored from here *)
  rhs : float array;       (* stamped RHS, overwritten with the solution *)
  tmpl : float array;      (* cached static-linear template, by slot *)
  (* scalar fields rather than a key tuple: the validity check runs every
     Newton iteration and must not allocate *)
  mutable tmpl_valid : bool;
  mutable tmpl_dt : float;
  mutable tmpl_gmin : float;
  mutable tmpl_trapezoidal : bool;
  mutable tmpl_excluded : int;
  (* per-lane resistance override (ensemble sweeps): plan index of the
     resistor excluded from the template, and the conductance stamped in
     its place after every template copy, [override_gs.(override_lane)]:
     the lanes' conductances stay in their flat array, so selecting a
     lane boxes no float. [-1] = no override. Stamping
     the lane conductance directly — rather than adding a delta on top
     of the base stamp — keeps the lane's conductance exact across the
     full 1e3..1e11 Ohm sweep range (a delta cancels catastrophically
     when the lane and base conductances differ by orders of magnitude) *)
  mutable excluded_res : int;
  mutable override_gs : float array;
  mutable override_lane : int;
  (* cached control evaluations for the current t_now, shared across
     ensemble lanes (one waveform walk per time point, not per lane):
     each distinct waveform's value, and each switch's conductance *)
  wave_v : float array;
  sw_g : float array;
  scratch : float array;
  slu : Sp.t;  (* [Sp.fresh] of [sys]'s: the same slots and order *)
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
    vals = Array.make sys.nnz 0.0;
    rhs = Array.make n 0.0;
    tmpl = Array.make sys.nnz 0.0;
    tmpl_valid = false;
    tmpl_dt = 0.0;
    tmpl_gmin = 0.0;
    tmpl_trapezoidal = false;
    tmpl_excluded = -1;
    excluded_res = -1;
    override_gs = [||];
    override_lane = 0;
    (* sized by the layout, not by how many waveforms happen to be
       equal: a workspace serves every system of one layout *)
    wave_v =
      Array.make
        (Array.length sys.switches + Array.length sys.vsrcs
        + Array.length sys.isrcs)
        0.0;
    sw_g = Array.make (Array.length sys.switches) 0.0;
    scratch = Array.make n 0.0;
    slu = Sp.fresh sys.sp;
    mos_temp = Float.nan;
    mos_prep = [||];
    node_v = Array.make sys.n_nodes 0.0;
    mos_eval = Array.make 3 0.0;
  }

let set_resistor_override ws ~index ~gs ~lane =
  ws.excluded_res <- index;
  ws.override_gs <- gs;
  ws.override_lane <- lane

let resistor_override ws =
  if ws.excluded_res < 0 then None
  else Some (ws.excluded_res, ws.override_gs.(ws.override_lane))

(* static-linear part: gmin regularization, resistors, voltage-source
   topology and — for a fixed (dt, integrator) — the capacitor companion
   conductances. Everything here is independent of t, x and history. A
   resistor under lane override is left out (its lane conductance is
   stamped fresh after each template copy instead). *)
let rebuild_template sys ws ~(opts : Options.t) ~dt =
  let tmpl = ws.tmpl in
  Array.fill tmpl 0 (Array.length tmpl) 0.0;
  Array.iter (fun s -> stamp_at tmpl s opts.gmin) sys.gmin_slots;
  Array.iteri
    (fun i p -> if i <> ws.excluded_res then stamp_g4 p.g_res tmpl p.r_slots)
    sys.resistors;
  Array.iter
    (fun p ->
      if p.pos_row >= 0 then begin
        tmpl.(p.pos_row) <- tmpl.(p.pos_row) +. 1.0;
        tmpl.(p.row_pos) <- tmpl.(p.row_pos) +. 1.0
      end;
      if p.neg_row >= 0 then begin
        tmpl.(p.neg_row) <- tmpl.(p.neg_row) -. 1.0;
        tmpl.(p.row_neg) <- tmpl.(p.row_neg) -. 1.0
      end)
    sys.vsrcs;
  if dt > 0.0 then
    Array.iter
      (fun p -> stamp_g4 (cap_g ~opts ~dt p.cap) tmpl p.c_slots)
      sys.caps

(* Evaluate every control waveform at [t_now] into the workspace
   buffers. Split out of assembly so the ensemble engine can walk the
   waveforms once per time point and share the values across all lanes
   (they integrate on one shared grid). *)
let eval_controls_into sys ws ~t_now =
  let wv = ws.wave_v in
  C.Waveform.eval_into sys.waves t_now wv;
  for i = 0 to Array.length sys.switches - 1 do
    let p = sys.switches.(i) in
    ws.sw_g.(i) <- (if wv.(p.s_wave) > p.threshold then p.g_on else p.g_off)
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
  let v = ws.vals and rhs = ws.rhs in
  Array.blit ws.tmpl 0 v 0 sys.nnz;
  Array.fill rhs 0 n 0.0;
  (if ws.excluded_res >= 0 then
     stamp_g4 ws.override_gs.(ws.override_lane) v
       sys.resistors.(ws.excluded_res).r_slots);
  (* dynamic stamps: switch state and source values at t_now, capacitor
     history currents, MOSFET linearization around x. Indexed loops, not
     [Array.iter]: this body runs every Newton iteration and a closure per
     device class would be allocated on each call. *)
  for i = 0 to Array.length sys.switches - 1 do
    stamp_g4 ws.sw_g.(i) v sys.switches.(i).s_slots
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
          (g *. vab_prev) +. reactive.prev_cap_current.(p.hist)
      in
      stamp_i i_hist rhs p.c_a;
      stamp_i (-.i_hist) rhs p.c_b
    done;
  for i = 0 to Array.length sys.vsrcs - 1 do
    let p = sys.vsrcs.(i) in
    rhs.(p.row) <- ws.wave_v.(p.v_wave)
  done;
  for i = 0 to Array.length sys.isrcs - 1 do
    let p = sys.isrcs.(i) in
    let i_src = ws.wave_v.(p.i_wave) in
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
  let nv = ws.node_v and e = ws.mos_eval in
  if Array.length sys.mosfets > 0 then voltages_into sys x ~out:nv;
  for i = 0 to Array.length sys.mosfets - 1 do
    let p = sys.mosfets.(i) in
    C.Mosfet.ids_into ws.mos_prep.(i) nv ~d:p.m_d ~g:p.m_g ~s:p.m_s e;
    let vgs = nv.(p.m_g) -. nv.(p.m_s) and vds = nv.(p.m_d) -. nv.(p.m_s) in
    let id = e.(0) *. p.mult
    and gm = e.(1) *. p.mult
    and gds = e.(2) *. p.mult in
    let ieq = id -. (gm *. vgs) -. (gds *. vds) in
    let q = p.m_gds in
    stamp_g4 gds v q;
    (* the gm VCCS, in [stamp_vccs] order *)
    stamp_at v p.m_dg gm;
    stamp_at v q.ab (-.gm);
    stamp_at v p.m_sg (-.gm);
    stamp_at v q.bb gm;
    stamp_i (-.ieq) rhs p.m_d;
    stamp_i ieq rhs p.m_s
  done

module Chaos = Dramstress_util.Chaos

let solve_in_place sys ws =
  record_factor_solve ();
  if Chaos.armed () && Chaos.fire Chaos.Perturb_jacobian then
    (* zero a row: crisply rank-deficient, so the factorization's pivot
       guard must catch it — the detection the chaos harness asserts *)
    Array.iter (fun s -> ws.vals.(s) <- 0.0) sys.row0_slots;
  Sp.factor ws.slu ws.vals;
  Sp.solve ws.slu ~scratch:ws.scratch ws.rhs

let solution ws = ws.rhs

let lu_schedule ws = Sp.schedule ws.slu

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
          -. reactive.prev_cap_current.(p.hist)
      in
      out.(p.hist) <- i
    end
    else out.(p.hist) <- 0.0
  done
