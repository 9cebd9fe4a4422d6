module C = Dramstress_circuit
module Tel = Dramstress_util.Telemetry

let c_template_rebuilds = Tel.Counter.make "engine.mna.template_rebuilds"
let c_lu_factors = Tel.Counter.make "engine.mna.lu_factors"
let c_lu_solves = Tel.Counter.make "engine.mna.lu_solves"

module Sp = Dramstress_util.Sparse_lu

(* Pre-resolved stamp plans: every name lookup, node-to-row mapping and
   matrix position is resolved once at [make] time, so the per-iteration
   hot path only walks flat arrays of integers and floats. The system
   matrix is a flat vector of {!Sp} slot values followed by one
   coupling slot per (free row, fixed column) position, and each plan
   carries the slots its stamps add into ([-1] where a stamp would
   touch a ground row or column, or the row of a fixed node, which are
   dropped). Devices split into a *static-linear* part (resistors,
   voltage-source topology, capacitor conductances — fixed for a given
   time step) that is pre-stamped into a cached
   template, and a *dynamic* part (switches, source values, capacitor
   history, MOSFET linearizations) restamped on top of a copy of the
   template. *)

(* the slots of a conductance between nodes a and b: (a,a), (b,b),
   (a,b) and (b,a); with one node fixed, one of [ab] and [ba] is a
   coupling slot and the other dropped *)
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

(* [c_a]/[c_b] are nodes (they index per-node voltages), [c_ra]/[c_rb]
   their rows *)
type cap_plan = {
  c_a : int;
  c_b : int;
  c_ra : int;
  c_rb : int;
  c_slots : g4;
  cap : float;
}

(* a floating source: [row] is its branch row; the ±1 incidences sit at
   (pos,row), (row,pos), (neg,row) and (row,neg) *)
type vsrc_plan = {
  row : int;
  pos_row : int;
  row_pos : int;
  neg_row : int;
  row_neg : int;
  v_wave : int;
}

(* [i_pos]/[i_neg] are rows *)
type isrc_plan = { i_pos : int; i_neg : int; i_wave : int }

(* gds stamps like a conductance d-s; the gm VCCS adds at (d,g), (d,s),
   (s,g) and (s,s), the second and fourth shared with [m_gds].
   [m_d]/[m_g]/[m_s] are nodes, [m_rd]/[m_rs] rows *)
type mos_plan = {
  m_d : int;
  m_g : int;
  m_s : int;
  m_rd : int;
  m_rs : int;
  model : C.Mosfet.model;
  mult : float;
  m_gds : g4;
  m_dg : int;
  m_sg : int;
}

type t = {
  compiled : C.Netlist.compiled;
  n_nodes : int;
  n_free : int;  (* free node unknowns, x.(0 .. n_free-1) *)
  size : int;
  unk : int array;        (* per node: its unknown, -1 for ground or fixed *)
  node_wave : int array;  (* per node: its fixing source's wave, or -1 *)
  res_index : (string, int) Hashtbl.t;    (* resistor name -> plan index *)
  sp : Sp.t;  (* slots and column order of the pattern; never factored *)
  nnz : int;  (* LU slot count; coupling slots follow *)
  coup_row : int array;   (* per coupling slot: its row *)
  coup_wave : int array;  (* per coupling slot: its fixed column's wave *)
  gmin_slots : int array;      (* per free node: its diagonal *)
  row0_slots : int array;      (* the slots of row 0 (chaos site) *)
  waves : C.Waveform.t array;  (* distinct control waveforms *)
  resistors : res_plan array;
  switches : switch_plan array;
  caps : cap_plan array;
  vsrcs : vsrc_plan array;
  isrcs : isrc_plan array;
  mosfets : mos_plan array;
}

(* A voltage source from a node to ground fixes that node: its voltage
   is the source's value, known before any solve. The first such source
   of a node fixes it; the node and the source's branch current leave
   the unknowns. Every other source keeps its branch row. *)
let is_grounded fixing = function
  | C.Device.Vsource { pos; neg = 0; _ } ->
    pos > 0 && Option.is_none fixing.(pos)
  | _ -> false

(* The structural nonzero pattern of every system any assembly can
   produce — derived from the devices, never from numeric values: a
   MOSFET's gm is zero below threshold and nonzero above, a switch
   conductance swings between g_on and g_off, but the stamped POSITIONS
   are fixed. This is what {!Sp} numbers into slots and analyses once
   per topology. Positions in the row or column of ground or of a fixed
   node ([unk] -1) are not in it. *)
let structural_pattern (compiled : C.Netlist.compiled) ~size ~unk ~branch_row =
  let pat = Array.make_matrix size size false in
  let mark r c = if r >= 0 && c >= 0 then pat.(r).(c) <- true in
  let mark_g a b =
    let ia = unk.(a) and ib = unk.(b) in
    mark ia ia;
    mark ib ib;
    mark ia ib;
    mark ib ia
  in
  Array.iter (fun r -> mark r r (* gmin *)) unk;
  Array.iter
    (fun d ->
      match d with
      | C.Device.Resistor { a; b; _ }
      | C.Device.Switch { a; b; _ }
      | C.Device.Capacitor { a; b; _ } ->
        mark_g a b
      | C.Device.Vsource { name; pos; neg; _ } ->
        let row = branch_row name in
        mark unk.(pos) row;
        mark row unk.(pos);
        mark unk.(neg) row;
        mark row unk.(neg)
      | C.Device.Isource _ -> ()
      | C.Device.Mosfet { d; g; s; _ } ->
        (* gds between d and s, plus the gm VCCS controlled by (g, s) *)
        mark_g d s;
        mark unk.(d) unk.(g);
        mark unk.(s) unk.(g))
    compiled.devices;
  pat

let make (compiled : C.Netlist.compiled) =
  let n_nodes = compiled.n_nodes in
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
  (* per node, the waveform of the source that fixes it; then the free
     nodes' and the floating sources' unknowns *)
  let fixing = Array.make n_nodes None in
  let vsrc_branch = Hashtbl.create 8 in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Vsource { name; pos; wave; _ } when is_grounded fixing d ->
        fixing.(pos) <- Some wave;
        Hashtbl.add vsrc_branch name (-1)
      | _ -> ())
    compiled.devices;
  let unk = Array.make n_nodes (-1) in
  let n_free = ref 0 in
  for node = 1 to n_nodes - 1 do
    if Option.is_none fixing.(node) then begin
      unk.(node) <- !n_free;
      incr n_free
    end
  done;
  let n_free = !n_free in
  let nv = ref 0 in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Vsource { name; _ } when not (Hashtbl.mem vsrc_branch name) ->
        Hashtbl.add vsrc_branch name (n_free + !nv);
        incr nv
      | C.Device.Vsource _ | C.Device.Resistor _ | C.Device.Capacitor _
      | C.Device.Isource _ | C.Device.Switch _ | C.Device.Mosfet _ ->
        ())
    compiled.devices;
  let size = n_free + !nv in
  let branch_row name = Hashtbl.find vsrc_branch name in
  let pattern = structural_pattern compiled ~size ~unk ~branch_row in
  (* slots and column order, computed once per topology: every
     workspace's handle is a [Sp.fresh] copy of this one *)
  let sp = Sp.make ~n:size ~pattern in
  let nnz = Sp.nnz sp in
  let node_wave =
    Array.map (function Some w -> wave_index w | None -> -1) fixing
  in
  let at r c = if r >= 0 && c >= 0 then Sp.slot sp r c else -1 in
  (* the slot of (row [r], column of node [b]): an LU slot for a free
     node, a coupling slot (numbered from [nnz] up, one per position)
     for a fixed one *)
  let coup = Hashtbl.create 16 and coup_rows = ref [] in
  let at_node r b =
    if r < 0 then -1
    else if unk.(b) >= 0 then Sp.slot sp r unk.(b)
    else if node_wave.(b) < 0 then -1
    else
      match Hashtbl.find_opt coup (r, b) with
      | Some s -> s
      | None ->
        let s = nnz + Hashtbl.length coup in
        Hashtbl.add coup (r, b) s;
        coup_rows := (r, node_wave.(b)) :: !coup_rows;
        s
  in
  let g4 a b =
    let ia = unk.(a) and ib = unk.(b) in
    { aa = at_node ia a; bb = at_node ib b;
      ab = at_node ia b; ba = at_node ib a }
  in
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
        resistors := { r_slots = g4 a b; g_res = 1.0 /. r } :: !resistors
      | C.Device.Switch { a; b; ctrl; g_on; g_off; threshold; _ } ->
        switches :=
          { s_slots = g4 a b; s_wave = wave_index ctrl; g_on; g_off; threshold }
          :: !switches
      | C.Device.Capacitor { a; b; c; _ } ->
        caps :=
          { c_a = a; c_b = b; c_ra = unk.(a); c_rb = unk.(b); c_slots = g4 a b;
            cap = c }
          :: !caps
      | C.Device.Vsource { name; pos; neg; wave } ->
        let row = branch_row name in
        if row >= 0 then
          vsrcs :=
            { row; pos_row = at unk.(pos) row; row_pos = at_node row pos;
              neg_row = at unk.(neg) row; row_neg = at_node row neg;
              v_wave = wave_index wave }
            :: !vsrcs
      | C.Device.Isource { pos; neg; wave; _ } ->
        isrcs :=
          { i_pos = unk.(pos); i_neg = unk.(neg); i_wave = wave_index wave }
          :: !isrcs
      | C.Device.Mosfet { d; g; s; model; m; _ } ->
        mosfets :=
          { m_d = d; m_g = g; m_s = s; m_rd = unk.(d); m_rs = unk.(s); model;
            mult = m; m_gds = g4 d s; m_dg = at_node unk.(d) g;
            m_sg = at_node unk.(s) g }
          :: !mosfets)
    compiled.devices;
  let arr l = Array.of_list (List.rev !l) in
  let coup = arr coup_rows in
  {
    compiled;
    n_nodes;
    n_free;
    size;
    unk;
    node_wave;
    res_index;
    sp;
    nnz;
    coup_row = Array.map fst coup;
    coup_wave = Array.map snd coup;
    gmin_slots = Array.init n_free (fun i -> at i i);
    row0_slots =
      (if size = 0 then [||]
       else
         Array.of_list
           (List.filter_map
              (fun j -> if pattern.(0).(j) then Some (at 0 j) else None)
              (List.init size Fun.id)));
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
let n_free_nodes sys = sys.n_free
let resistor_index sys name = Hashtbl.find_opt sys.res_index name
let resistor_g sys index = sys.resistors.(index).g_res

let pack sys node_voltages =
  let x = Array.make sys.size 0.0 in
  Array.iteri (fun n u -> if u >= 0 then x.(u) <- node_voltages.(n)) sys.unk;
  x

(* all floats, so stored flat: setting a field boxes nothing *)
type step = { mutable dt : float; mutable omega : float }

type reactive = {
  step : step;
  mutable prev_v : float array;
  mutable prev2_v : float array;
}

(* The variable-step BDF2 companion of a capacitor C for a step of
   length h after one of length h_ (omega = h/h_):
     i = (C/h) [ (1+2w)/(1+w) v_{n+1} - (1+w) v_n + w^2/(1+w) v_{n-1} ],
   a conductance C·[companion_factor] in parallel with the history
   current C·[(1+w)/h · v_n - w^2/((1+w) h) · v_{n-1}]. At omega = 0
   every term in v_{n-1} drops and the rule is backward Euler. *)
let[@inline] companion_factor ~dt ~omega =
  (1.0 +. (2.0 *. omega)) /. ((1.0 +. omega) *. dt)

(* ------------------------------------------------------------------ *)
(* Assembly workspace                                                 *)
(* ------------------------------------------------------------------ *)

(* Slot stamps into the slot vector; [-1] is a dropped position. All
   [@inline]: without flambda a float argument to a call that is not
   inlined is boxed, once per stamp per Newton iteration. *)

let[@inline] stamp_at v s x = if s >= 0 then v.(s) <- v.(s) +. x

let[@inline] stamp_g4 g v q =
  stamp_at v q.aa g;
  stamp_at v q.bb g;
  stamp_at v q.ab (-.g);
  stamp_at v q.ba (-.g)

type workspace = {
  w_size : int;
  vals : float array;      (* stamped system by slot, factored from here *)
  rhs : float array;       (* stamped RHS, overwritten with the solution *)
  tmpl : float array;      (* cached static-linear template, by slot *)
  (* scalar fields rather than a key tuple: the validity check runs every
     Newton iteration and must not allocate *)
  mutable tmpl_valid : bool;
  mutable tmpl_k : float;  (* the companion factor the template holds *)
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
     each distinct waveform's value and PWL cursor, each switch's
     conductance, and the largest fixed node voltage (one float, kept
     in an array so that storing it boxes nothing) *)
  wave_v : float array;
  wave_mid : float array;  (* the same at the step's midpoint *)
  times : float array;     (* the step's end and midpoint *)
  cursors : int array;
  sw_g : float array;
  fixed_max : float array;
  newton_acc : float array;  (* [Newton.update]'s three results *)
  scratch : float array;
  slu : Sp.t;  (* [Sp.fresh] of [sys]'s: the same slots and order *)
  (* counts since the last [flush]: template rebuilds and LU factors
     here (each factor is also one solve), and the tally the engine's
     other per-run counters go to *)
  mutable n_rebuilds : int;
  mutable n_factors : int;
  tally : Tel.Tally.t;
  (* per-MOSFET temperature-resolved constants, valid for [mos_temp]
     (nan until the first assembly) *)
  mutable mos_temp : float;
  mutable mos_prep : C.Mosfet.prepared array;
  node_v : float array;   (* per-node voltages of the iterate *)
  mos_eval : float array; (* id, gm, gds of the device being stamped *)
}

let make_workspace sys =
  let n = sys.size in
  let n_slots = sys.nnz + Array.length sys.coup_row in
  (* sized by the layout (a device has at most one waveform), not by
     how many waveforms happen to be equal: a workspace serves every
     system of one layout *)
  let n_waves = Array.length sys.compiled.devices in
  {
    w_size = n;
    vals = Array.make n_slots 0.0;
    rhs = Array.make n 0.0;
    tmpl = Array.make n_slots 0.0;
    tmpl_valid = false;
    tmpl_k = 0.0;
    tmpl_excluded = -1;
    excluded_res = -1;
    override_gs = [||];
    override_lane = 0;
    wave_v = Array.make n_waves 0.0;
    wave_mid = Array.make n_waves 0.0;
    times = [| 0.0; 0.0 |];
    cursors = Array.make n_waves 0;
    sw_g = Array.make (Array.length sys.switches) 0.0;
    fixed_max = [| 0.0 |];
    newton_acc = Array.make 3 0.0;
    scratch = Array.make n 0.0;
    slu = Sp.fresh sys.sp;
    n_rebuilds = 0;
    n_factors = 0;
    tally = Tel.Tally.create ();
    mos_temp = Float.nan;
    mos_prep = [||];
    node_v = Array.make sys.n_nodes 0.0;
    mos_eval = Array.make 3 0.0;
  }

let set_resistor_override ws ~index ~gs ~lane =
  ws.excluded_res <- index;
  ws.override_gs <- gs;
  ws.override_lane <- lane

(* per-node voltages of [x]: free nodes from [x], fixed ones from the
   controls left by the last [eval_controls_into] *)
let voltages_into sys ws x ~out =
  let wv = ws.wave_v in
  out.(0) <- 0.0;
  for node = 1 to sys.n_nodes - 1 do
    let u = sys.unk.(node) in
    out.(node) <- (if u >= 0 then x.(u) else wv.(sys.node_wave.(node)))
  done

let fixed_abs_max ws = ws.fixed_max
let newton_acc ws = ws.newton_acc

(* static-linear part: gmin regularization, resistors, voltage-source
   topology and — for a fixed companion factor [k] — the capacitor
   companion conductances C·k. Everything here is independent of t, x
   and history. A resistor under lane override is left out (its lane
   conductance is stamped fresh after each template copy instead). *)
let rebuild_template sys ws ~k =
  (* indexed loops: the grid's control corners change the companion
     factor a few dozen times per cycle, and a closure over [k] would be
     allocated on each rebuild *)
  let tmpl = ws.tmpl in
  Array.fill tmpl 0 (Array.length tmpl) 0.0;
  for i = 0 to Array.length sys.gmin_slots - 1 do
    stamp_at tmpl sys.gmin_slots.(i) Options.gmin
  done;
  for i = 0 to Array.length sys.resistors - 1 do
    let p = sys.resistors.(i) in
    if i <> ws.excluded_res then stamp_g4 p.g_res tmpl p.r_slots
  done;
  for i = 0 to Array.length sys.vsrcs - 1 do
    let p = sys.vsrcs.(i) in
    stamp_at tmpl p.pos_row 1.0;
    stamp_at tmpl p.row_pos 1.0;
    stamp_at tmpl p.neg_row (-1.0);
    stamp_at tmpl p.row_neg (-1.0)
  done;
  for i = 0 to Array.length sys.caps - 1 do
    let p = sys.caps.(i) in
    stamp_g4 (p.cap *. k) tmpl p.c_slots
  done

(* Evaluate every control waveform at [t_now] into the workspace
   buffers. Split out of assembly so the ensemble engine can walk the
   waveforms once per time point and share the values across all lanes
   (they integrate on one shared grid). A switch takes its state from
   the middle of the step, [t_now - dt/2], not from its end: its control
   crossing the threshold at a grid point then flips it exactly there,
   rising or falling, and a crossing between two grid points rounds to
   the nearer one instead of always to the later. *)
let eval_controls_into sys ws ~t_now ~dt =
  let wv = ws.wave_v and wm = ws.wave_mid and ts = ws.times in
  ts.(0) <- t_now;
  ts.(1) <- t_now -. (dt /. 2.0);
  if Array.length sys.switches > 0 then begin
    C.Waveform.eval_into sys.waves ~cursors:ws.cursors ts 1 wm;
    for i = 0 to Array.length sys.switches - 1 do
      let p = sys.switches.(i) in
      ws.sw_g.(i) <- (if wm.(p.s_wave) > p.threshold then p.g_on else p.g_off)
    done
  end;
  C.Waveform.eval_into sys.waves ~cursors:ws.cursors ts 0 wv;
  let m = ref 0.0 in
  for node = 1 to sys.n_nodes - 1 do
    let w = sys.node_wave.(node) in
    if w >= 0 then begin
      let a = Float.abs wv.(w) in
      if a > !m || a <> a then m := a
    end
  done;
  ws.fixed_max.(0) <- !m

(* assembly from pre-evaluated controls ([eval_controls_into]) *)
let assemble_into_pre sys ws ~(opts : Options.t) ~x ~reactive =
  let n = ws.w_size in
  assert (n = sys.size);
  let dt = reactive.step.dt and omega = reactive.step.omega in
  let k = companion_factor ~dt ~omega in
  (if
     (not ws.tmpl_valid)
     || ws.tmpl_k <> k
     || ws.tmpl_excluded <> ws.excluded_res
   then begin
     ws.n_rebuilds <- ws.n_rebuilds + 1;
     rebuild_template sys ws ~k;
     ws.tmpl_valid <- true;
     ws.tmpl_k <- k;
     ws.tmpl_excluded <- ws.excluded_res
   end);
  let v = ws.vals and rhs = ws.rhs and wv = ws.wave_v in
  Array.blit ws.tmpl 0 v 0 (Array.length v);
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
  let h1 = (1.0 +. omega) /. dt
  and h2 = omega *. omega /. ((1.0 +. omega) *. dt) in
  let pv = reactive.prev_v and ppv = reactive.prev2_v in
  for i = 0 to Array.length sys.caps - 1 do
    let p = sys.caps.(i) in
    let a = p.c_a and b = p.c_b in
    let i_hist =
      p.cap *. ((h1 *. (pv.(a) -. pv.(b))) -. (h2 *. (ppv.(a) -. ppv.(b))))
    in
    stamp_at rhs p.c_ra i_hist;
    stamp_at rhs p.c_rb (-.i_hist)
  done;
  for i = 0 to Array.length sys.vsrcs - 1 do
    let p = sys.vsrcs.(i) in
    rhs.(p.row) <- wv.(p.v_wave)
  done;
  for i = 0 to Array.length sys.isrcs - 1 do
    let p = sys.isrcs.(i) in
    let i_src = wv.(p.i_wave) in
    stamp_at rhs p.i_pos (-.i_src);
    stamp_at rhs p.i_neg i_src
  done;
  if not (ws.mos_temp = opts.temp) then begin
    ws.mos_prep <-
      Array.map
        (fun p -> C.Mosfet.prepare p.model ~temp:opts.temp)
        sys.mosfets;
    ws.mos_temp <- opts.temp
  end;
  let nv = ws.node_v and e = ws.mos_eval in
  if Array.length sys.mosfets > 0 then voltages_into sys ws x ~out:nv;
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
    (* the gm VCCS *)
    stamp_at v p.m_dg gm;
    stamp_at v q.ab (-.gm);
    stamp_at v p.m_sg (-.gm);
    stamp_at v q.bb gm;
    stamp_at rhs p.m_rd (-.ieq);
    stamp_at rhs p.m_rs ieq
  done;
  (* the columns of fixed nodes move to the right-hand side *)
  let nnz = sys.nnz in
  for k = 0 to Array.length sys.coup_row - 1 do
    let r = sys.coup_row.(k) in
    rhs.(r) <- rhs.(r) -. (v.(nnz + k) *. wv.(sys.coup_wave.(k)))
  done

module Chaos = Dramstress_util.Chaos

let solve_in_place sys ws =
  ws.n_factors <- ws.n_factors + 1;
  if Chaos.armed () && Chaos.fire Chaos.Perturb_jacobian then
    (* zero a row: crisply rank-deficient, so the factorization's pivot
       guard must catch it — the detection the chaos harness asserts *)
    Array.iter (fun s -> ws.vals.(s) <- 0.0) sys.row0_slots;
  Sp.factor ws.slu ws.vals;
  Sp.solve ws.slu ~scratch:ws.scratch ws.rhs

let solution ws = ws.rhs

let tally ws = ws.tally

let flush ws =
  Tel.Tally.add ws.tally c_template_rebuilds ws.n_rebuilds;
  Tel.Tally.add ws.tally c_lu_factors ws.n_factors;
  Tel.Tally.add ws.tally c_lu_solves ws.n_factors;
  ws.n_rebuilds <- 0;
  ws.n_factors <- 0;
  Tel.Tally.flush ws.tally;
  Sp.flush ws.slu

let lu_schedule ws = Sp.schedule ws.slu
