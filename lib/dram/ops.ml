module W = Dramstress_circuit.Waveform
module D = Dramstress_defect.Defect
module E = Dramstress_engine
module I = Dramstress_util.Interp
module Tel = Dramstress_util.Telemetry
module Par = Dramstress_util.Par

let c_requests = Tel.Counter.make "dram.ops.requests"
let c_hits = Tel.Counter.make "dram.ops.cache_hits"
let c_misses = Tel.Counter.make "dram.ops.cache_misses"
let c_evictions = Tel.Counter.make "dram.ops.cache_evictions"
let c_retry_attempts = Tel.Counter.make "dram.ops.retry_attempts"
let c_degraded = Tel.Counter.make "dram.ops.degraded_runs"
let c_failed = Tel.Counter.make "dram.ops.failed_runs"
let c_deadline = Tel.Counter.make "dram.ops.deadline_exceeded"

(* which escalation stage finally rescued a degraded run: 1 = first
   retry stage, 2 = second, ... — the policy's effectiveness profile *)
let h_retry_stage =
  Tel.Histogram.make ~unit_:"stage" ~lo:1.0 ~hi:16.0 ~buckets:8
    "dram.ops.retry_success_stage"

exception
  Exhausted_retries of { error : exn; attempts : int; stages : string list }

let () =
  Printexc.register_printer (function
    | Exhausted_retries { error; attempts; stages } ->
      Some
        (Printf.sprintf
           "Ops.Exhausted_retries { %d retry attempts (%s) all failed; last \
            error: %s }"
           attempts
           (String.concat ", " stages)
           (Printexc.to_string error))
    | _ -> None)

(* the retry count a sweep layer should attach to a Failed outcome for
   this error ({!Dramstress_util.Par.parallel_map_outcomes}) *)
let retries_of = function Exhausted_retries { attempts; _ } -> attempts | _ -> 0

type op = W0 | W1 | R | Pause of float | Ham of int

let pp_op ppf = function
  | W0 -> Format.pp_print_string ppf "w0"
  | W1 -> Format.pp_print_string ppf "w1"
  | R -> Format.pp_print_string ppf "r"
  | Pause d ->
    Format.fprintf ppf "p%a" Dramstress_util.Units.pp_si d
  | Ham 1 -> Format.pp_print_string ppf "ham"
  | Ham n -> Format.fprintf ppf "ham%d" n

let parse_seq s =
  let tokens =
    String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) s)
    |> List.filter (fun t -> t <> "")
  in
  let parse_tok t =
    match String.lowercase_ascii t with
    | "w0" -> W0
    | "w1" -> W1
    | "r" | "r0" | "r1" -> R
    | "ham" -> Ham 1
    | tok when String.length tok > 3 && String.sub tok 0 3 = "ham" -> begin
      match int_of_string_opt (String.sub tok 3 (String.length tok - 3)) with
      | Some n when n > 0 -> Ham n
      | Some _ | None -> invalid_arg ("Ops.parse_seq: bad hammer count " ^ t)
    end
    | tok when String.length tok > 1 && tok.[0] = 'p' -> begin
      match float_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
      | Some d when d > 0.0 -> Pause d
      | Some _ | None -> invalid_arg ("Ops.parse_seq: bad pause " ^ t)
    end
    | _ -> invalid_arg ("Ops.parse_seq: unknown op " ^ t)
  in
  List.map parse_tok tokens

let seq_to_string ops =
  String.concat " " (List.map (Format.asprintf "%a" pp_op) ops)

type op_result = {
  op : op;
  t_start : float;
  t_end : float;
  vc_end : float;
  sensed : int option;
  separation : float option;
}

type outcome = {
  results : op_result list;
  trace : E.Transient.result;
  built : Column.built;
  phases : Timing.t;
}

let vc_curve outcome = E.Transient.probe outcome.trace outcome.built.Column.vc_node

let sensed_bits outcome =
  List.filter_map (fun r -> r.sensed) outcome.results

(* The stress vector's own sequence contributions: a retention wait
   and/or a burst of aggressor activations slipped in just before the
   first read, so ANY detection condition crosses with the wait/hammer
   stress axes without being rewritten. Sequences with no read have
   nothing to detect and are left alone. Neutral stresses (wait = 0,
   hammer = 0) return the list physically unchanged. *)
let effective_ops ~(stress : Stress.t) ops =
  let extra =
    (if stress.Stress.wait > 0.0 then [ Pause stress.Stress.wait ] else [])
    @ (if stress.Stress.hammer > 0 then [ Ham stress.Stress.hammer ] else [])
  in
  if extra = [] || not (List.mem R ops) then ops
  else
    let rec insert = function
      | [] -> []
      | R :: rest -> extra @ R :: rest
      | op :: rest -> op :: insert rest
    in
    insert ops

(* Expand the op list into control-signal step events and time segments.
   Returns (controls, segments, schedule) where schedule carries the
   per-op absolute instants needed to interpret the trace. *)
let plan ~(tech : Tech.t) ~(stress : Stress.t) ~inverted ~steps_per_cycle ops =
  let ops = effective_ops ~stress ops in
  let ph = Timing.phases tech stress in
  let wl_high = stress.Stress.vdd +. tech.Tech.wl_boost in
  let dt_active = stress.Stress.tcyc /. float_of_int steps_per_cycle in
  (* step-event accumulators, in reverse time order *)
  let wl = ref [] and wlr = ref [] and pre = ref [] and sae = ref [] in
  let wlnb = ref [] in
  let colsel = ref [] in
  let wacc_hi = ref [] and wacc_lo = ref [] in
  let wref_hi = ref [] and wref_lo = ref [] in
  let segments = ref [] and schedule = ref [] in
  (* the instants where a control waveform of the current cycle bends,
     each step event's start and the end of its [t_edge] ramp, and
     where a switch it drives flips, the ramp's midpoint (every control
     steps between 0 and 1 V or drives no switch; switches flip at
     0.5 V) *)
  let corners = ref [] in
  let push r ev = r := ev :: !r in
  let event r ((t, _) as ev) =
    push r ev;
    let e = tech.Tech.t_edge in
    corners := t :: (t +. (e /. 2.0)) :: (t +. e) :: !corners
  in
  (* the cycle [off, t_end] as uniform pieces between its corners, each
     stepped at most [dt_active] apart and in at least two steps, so that
     every control corner is a grid point: a ramp that falls between two
     grid points would move by up to a step, and with it the write window
     the border depends on. With a half ramp taken in one step, O1's
     residual after a w0 at 150 steps per cycle lay 11 mV from its
     1600-step value; in two steps, 3 mV. Corners closer than a quarter
     step merge. *)
  let cycle_segments off t_end =
    let min_piece = dt_active /. 4.0 in
    let cuts =
      List.sort_uniq Float.compare
        (List.filter (fun t -> t > off && t < t_end) !corners)
    in
    corners := [];
    let piece t0 t1 =
      let n = Float.ceil (((t1 -. t0) /. dt_active) -. 1e-9) in
      push segments (t1, (t1 -. t0) /. Float.max 2.0 n)
    in
    let last =
      List.fold_left
        (fun t0 t ->
          if t -. t0 < min_piece || t_end -. t < min_piece then t0
          else begin
            piece t0 t;
            t
          end)
        off cuts
    in
    piece last t_end
  in
  let active_cycle off op =
    (* a hammer cycle activates the neighbour (aggressor) row: same
       precharge/sense choreography, but the pulse lands on wl_nb *)
    let row = match op with Ham _ -> wlnb | W0 | W1 | R | Pause _ -> wl in
    event pre (off +. ph.Timing.t_pre_off, 0.0);
    event pre (off +. ph.Timing.t_wl_off +. 1e-9, 1.0);
    event row (off +. ph.Timing.t_wl_on, wl_high);
    event row (off +. ph.Timing.t_wl_off, 0.0);
    (* the reference word line is cut off at sense enable so the dummy
       does not load the paired line during latch regeneration *)
    event wlr (off +. ph.Timing.t_wl_on, wl_high);
    event wlr (off +. ph.Timing.t_sense -. 0.5e-9, 0.0);
    event sae (off +. ph.Timing.t_sense, 1.0);
    event sae (off +. ph.Timing.t_wl_off, 0.0);
    (match op with
    | W0 | W1 ->
      if ph.Timing.t_wr < ph.Timing.t_wl_off -. 1e-9 then begin
        (* physical bit: logical bit, inverted on the complementary line *)
        let logical = match op with W0 -> 0 | W1 | R | Pause _ | Ham _ -> 1 in
        let physical = if inverted then 1 - logical else logical in
        let acc_drive = if physical = 1 then wacc_hi else wacc_lo in
        let ref_drive = if physical = 1 then wref_lo else wref_hi in
        event acc_drive (off +. ph.Timing.t_wr, 1.0);
        event acc_drive (off +. ph.Timing.t_wl_off, 0.0);
        event ref_drive (off +. ph.Timing.t_wr, 1.0);
        event ref_drive (off +. ph.Timing.t_wl_off, 0.0)
      end
    | R ->
      (* connect the output buffer once the latch has regenerated *)
      event colsel (off +. ph.Timing.t_decide, 1.0);
      event colsel (off +. ph.Timing.t_wl_off, 0.0)
    | Pause _ | Ham _ -> ());
    cycle_segments off (off +. ph.Timing.t_cyc)
  in
  let off = ref 0.0 in
  List.iter
    (fun op ->
      let t_start = !off in
      (match op with
      | Pause d ->
        let dt_pause = Float.max dt_active (d /. 1000.0) in
        push segments (t_start +. d, dt_pause);
        off := t_start +. d
      | Ham n ->
        for i = 0 to n - 1 do
          active_cycle (t_start +. (float_of_int i *. ph.Timing.t_cyc)) op
        done;
        off := t_start +. (float_of_int (Int.max 0 n) *. ph.Timing.t_cyc)
      | W0 | W1 | R ->
        active_cycle t_start op;
        off := t_start +. ph.Timing.t_cyc);
      push schedule (op, t_start, !off))
    ops;
  let mk v0 events = W.pwl_steps ~t_edge:tech.Tech.t_edge v0 (List.rev events) in
  let controls =
    {
      Column.wl = mk 0.0 !wl;
      wl_ref = mk 0.0 !wlr;
      wl_nb = mk 0.0 !wlnb;
      pre = mk 1.0 !pre;
      sae = mk 0.0 !sae;
      wr_acc_hi = mk 0.0 !wacc_hi;
      wr_acc_lo = mk 0.0 !wacc_lo;
      wr_ref_hi = mk 0.0 !wref_hi;
      wr_ref_lo = mk 0.0 !wref_lo;
      colsel = mk 0.0 !colsel;
    }
  in
  (controls, List.rev !segments, List.rev !schedule, ph)

(* ------------------------------------------------------------------ *)
(* Transient memo cache                                                *)
(* ------------------------------------------------------------------ *)

(* The sweep layers above (Plane, Sc_eval, Report, Table1, Shmoo) keep
   re-running identical operation sequences: every plane recomputes the
   same defect-free Vmp bisection, and Vsa bisections share their probe
   reads across planes and stress axes. A bounded LRU keyed by the full
   simulation key — everything [run] depends on — makes those
   repeats free.

   Domain-safety choice: ONE shared cache guarded by a mutex, rather
   than per-domain caches merged after the fact. The critical section is
   a hash lookup (microseconds) while a miss costs an entire transient
   simulation (milliseconds to seconds), so contention is negligible and
   a shared cache lets parallel sweep workers reuse each other's results
   mid-sweep — per-domain caches would only merge after the sweep ends,
   too late to save anything. Outcomes are immutable once constructed
   (the trace's interp table is built eagerly by the integrator), so
   handing the same outcome to several domains is safe. *)

type cache_key = {
  k_tech : Tech.t;
  k_stress : Stress.t;
  k_sim : E.Options.t option;
  k_steps : int;
  k_defect : D.t option;
  k_vc_init : float;
  k_v_neighbour : float option;
  k_ops : op list;
}

(* [Hashtbl.hash] stops after 10 meaningful words, breadth first: on the
   bare record it reads the step count, the initial voltages and the
   first technology floats, never the defect, the stress or the op list,
   so every key of a sweep would share one bucket. The LRU is keyed by
   the record paired with a hash that takes each field on its own. *)
let hashed k =
  ( Hashtbl.hash
      ( Hashtbl.hash k.k_defect,
        Hashtbl.hash_param 16 64 k.k_stress,
        Hashtbl.hash_param 64 256 k.k_ops,
        Hashtbl.hash k.k_vc_init,
        Hashtbl.hash k.k_v_neighbour,
        k.k_steps,
        Hashtbl.hash k.k_sim,
        Hashtbl.hash k.k_tech ),
    k )

module Lru = Dramstress_util.Lru

module Cache = struct
  type stats = {
    requests : int;
    hits : int;
    misses : int;
    evictions : int;
    entries : int;
    capacity : int;
  }

  type t = {
    lock : Mutex.t;
    mutable lru : (int * cache_key, outcome) Lru.t;
    enabled : bool Atomic.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  (* outcomes a fresh handle holds before LRU eviction *)
  let capacity = 512

  let create ?(enabled = true) () =
    {
      lock = Mutex.create ();
      lru = Lru.create ~capacity ();
      enabled = Atomic.make enabled;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }

  let default = create ()

  let set_enabled t on = Atomic.set t.enabled on
  let is_enabled t = Atomic.get t.enabled
  let with_lru t f = Mutex.protect t.lock (fun () -> f t.lru)

  let reset_stats t =
    with_lru t (fun c ->
        Lru.reset_stats c;
        Atomic.set t.hits 0;
        Atomic.set t.misses 0)

  (* a fresh LRU means fresh hit/miss/eviction statistics *)
  let resize t capacity =
    Mutex.protect t.lock (fun () ->
        t.lru <- Lru.create ~capacity ();
        Atomic.set t.hits 0;
        Atomic.set t.misses 0)

  let clear t = with_lru t Lru.clear

  let stats t =
    with_lru t (fun c ->
        let hits = Atomic.get t.hits and misses = Atomic.get t.misses in
        {
          requests = hits + misses;
          hits;
          misses;
          evictions = Lru.evictions c;
          entries = Lru.length c;
          capacity = Lru.capacity c;
        })
end

let clear_cache () = Cache.clear Cache.default

(* the planner's cost metric: requests that actually reached the solver
   (ensemble lanes), i.e. what the paper counts as "simulations", with
   the cache on or off. Cached replays are free and excluded. *)
let simulations () = (Cache.stats Cache.default).misses

(* ------------------------------------------------------------------ *)
(* Retry / degradation ladder                                          *)
(* ------------------------------------------------------------------ *)

(* the solver failures the ladder retries. Newton.Timeout is deliberately
   absent: a point that exhausted its wall-clock budget must not walk the
   ladder (each stage only costs more wall time), so it propagates
   straight to the sweep layer as a Failed outcome *)
let recoverable = function
  | E.Transient.Step_failed _ | E.Newton.No_convergence _
  | E.Newton.Numerical_health _ ->
    true
  | _ -> false

let is_solver_failure = function
  | Exhausted_retries _ -> true
  | e -> recoverable e

(* A solver failure at one awkward resistance must not kill a 10k-point
   campaign: walk the configured escalation stages, each applied on top
   of the previous concessions, until one converges or the ladder runs
   dry (-> Exhausted_retries, which sweep layers convert into a Failed
   outcome slot). Only genuine convergence failures are retried —
   programming errors propagate immediately. *)
let degrade_config (cfg : Sim_config.t) stage =
  let base_sim = Option.value cfg.Sim_config.sim ~default:E.Options.default in
  match stage with
  | Sim_config.Halve_dt ->
    { cfg with
      Sim_config.sim =
        Some
          { base_sim with
            E.Options.dt_scale = base_sim.E.Options.dt_scale /. 2.0 } }
  | Sim_config.Raise_steps factor ->
    { cfg with
      Sim_config.steps_per_cycle = cfg.Sim_config.steps_per_cycle * factor }
  | Sim_config.Damped_newton { max_step_v; max_newton_scale } ->
    { cfg with
      Sim_config.sim =
        Some
          { base_sim with
            E.Options.max_step_v;
            max_newton = base_sim.E.Options.max_newton * max_newton_scale } }

(* interpret one simulated trace against the op schedule: per-op sensed
   bit, sense separation and end-of-op cell voltage *)
let interpret ~inverted ~schedule ~(ph : Timing.t) ~(built : Column.built)
    trace =
  let vc = E.Transient.probe trace built.Column.vc_node in
  let v_acc = E.Transient.probe trace built.Column.acc_bl in
  let v_ref = E.Transient.probe trace built.Column.ref_bl in
  let results =
    List.map
      (fun (op, t_start, t_end) ->
        let sensed, separation =
          match op with
          | R ->
            (* strobe late in the cycle, once regeneration has had the
               whole sense window: metastable outputs are still collapsed
               while slow clean reads have reached the rails *)
            let t_dec = t_start +. ph.Timing.t_wl_off -. 1e-9 in
            let va = I.eval v_acc t_dec and vr = I.eval v_ref t_dec in
            let physical = if va > vr then 1 else 0 in
            ( Some (if inverted then 1 - physical else physical),
              Some (Float.abs (va -. vr)) )
          | W0 | W1 | Pause _ | Ham _ -> (None, None)
        in
        { op; t_start; t_end; vc_end = I.eval vc (t_end -. 1e-12); sensed;
          separation })
      schedule
  in
  { results; trace; built; phases = ph }

(* the neighbour's initial level under a data-background pattern:
   all-1/all-0 pin it to a rail; checkerboard holds the complement of
   the victim's written value, i.e. the rail the victim STARTS from
   (the first write flips the victim to the other one) *)
let neighbour_of_pattern ~(stress : Stress.t) ~vc_init v_neighbour =
  match v_neighbour with
  | Some v -> v
  | None -> begin
    match stress.Stress.pattern with
    | Stress.All_1 -> stress.Stress.vdd
    | Stress.All_0 -> 0.0
    | Stress.Checkerboard ->
      if vc_init > 0.5 *. stress.Stress.vdd then stress.Stress.vdd else 0.0
  end

(* the netlist knobs the stress vector carries: leakage conductance
   directly, coupling as a fraction of the storage capacitance *)
let netlist_knobs ~(tech : Tech.t) ~(stress : Stress.t) =
  (stress.Stress.leak, stress.Stress.couple *. tech.Tech.c_cell)

type lane = { defect : D.t option; vc_init : float }

(* one ensemble run of [lanes] over a shared topology (defect kind and
   placement fixed across lanes): the column is built once, with the
   first lane's defect, and every lane with a defect (the first
   included) overrides [r_defect] with its own resistance as an {!Mna}
   resistor override. The overridden resistor stays out of the static
   template, so the netlist value never leaks into any lane and a lane
   computes the same bits alone or beside any batch mates. Per-lane
   initial cell voltages travel as lane ICs. *)
let execute ~(cfg : Sim_config.t) ?deadline_at ?v_neighbour ~stress ~lanes
    ops =
  let tech = cfg.Sim_config.tech in
  let vdd = stress.Stress.vdd in
  let defect0 = (List.hd lanes).defect in
  let inverted =
    match defect0 with
    | Some { D.placement = D.Comp_bl; _ } -> true
    | Some { D.placement = D.True_bl; _ } | None -> false
  in
  let controls, segments, schedule, ph =
    plan ~tech ~stress ~inverted
      ~steps_per_cycle:cfg.Sim_config.steps_per_cycle ops
  in
  let leak_g, couple = netlist_knobs ~tech ~stress in
  let built =
    Column.build ~tech ~vdd ~controls ~leak_g ~couple ?defect:defect0 ()
  in
  let opts =
    let base = Option.value cfg.Sim_config.sim ~default:E.Options.default in
    { base with E.Options.temp = Stress.temp_kelvin stress }
  in
  let elanes =
    Array.of_list
      (List.map
         (fun l ->
           (* per-lane pattern resolution: a checkerboard neighbour
              depends on the lane's own vc_init *)
           let v_nb =
             neighbour_of_pattern ~stress ~vc_init:l.vc_init v_neighbour
           in
           {
             E.Ensemble.ics =
               Column.initial_conditions built ~vdd ~vc_init:l.vc_init
                 ~v_neighbour:v_nb;
             override = Option.map (fun d -> ("r_defect", d.D.r)) l.defect;
           })
         lanes)
  in
  Array.map
    (Result.map (fun trace -> interpret ~inverted ~schedule ~ph ~built trace))
    (E.Ensemble.run built.Column.compiled ~opts ?deadline_at ~segments
       ~lanes:elanes ~probes:built.Column.probes ())

(* one lane, the full one-lane treatment minus the cache: deadline
   pinning, tracing span, the configured retry/degradation ladder and
   deadline counting. A lane alone in its ensemble, and one that falls
   out of a multi-lane ensemble, takes this path. *)
let execute_one ~(cfg : Sim_config.t) ?v_neighbour ~stress ~lane ops =
  (* the wall-clock budget covers the whole request — base attempt
     plus every retry stage — so it is pinned to an absolute instant
     here, once, rather than restarting per attempt *)
  let deadline_at =
    Option.map
      (fun budget_s -> (Unix.gettimeofday () +. budget_s, budget_s))
      cfg.Sim_config.deadline
  in
  let exec (c : Sim_config.t) =
    match execute ~cfg:c ?deadline_at ?v_neighbour ~stress ~lanes:[ lane ] ops
    with
    | [| Ok outcome |] -> outcome
    | [| Error e |] -> raise e
    | _ -> assert false
  in
  let rec attempt c stage_idx tried last_err = function
    | [] ->
      Tel.Counter.incr c_failed;
      raise
        (Exhausted_retries
           { error = last_err; attempts = List.length tried;
             stages = List.rev tried })
    | stage :: rest -> begin
      Tel.Counter.incr c_retry_attempts;
      let c = degrade_config c stage in
      let tried = Sim_config.stage_name stage :: tried in
      match
        Tel.with_span "ops.retry"
          ~attrs:(fun () ->
            [ ("stage", Tel.Str (Sim_config.stage_name stage));
              ("attempt", Tel.Int stage_idx) ])
          (fun () -> exec c)
      with
      | outcome ->
        Tel.Counter.incr c_degraded;
        Tel.Histogram.observe h_retry_stage (float_of_int stage_idx);
        outcome
      | exception e when recoverable e -> attempt c (stage_idx + 1) tried e rest
    end
  in
  let stages = cfg.Sim_config.retry.Sim_config.stages in
  Tel.with_span "ops.run"
    ~attrs:(fun () -> [ ("seq", Tel.Str (seq_to_string ops)) ])
    (fun () ->
      match
        try exec cfg
        with e when recoverable e && stages <> [] -> attempt cfg 1 [] e stages
      with
      | outcome -> outcome
      | exception (E.Newton.Timeout _ as e) ->
        let bt = Printexc.get_raw_backtrace () in
        Tel.Counter.incr c_deadline;
        Printexc.raise_with_backtrace e bt)

let store_outcome cache key outcome =
  if Cache.is_enabled cache then
    Cache.with_lru cache (fun c ->
        let ev0 = Lru.evictions c in
        Lru.add c key outcome;
        let d = Lru.evictions c - ev0 in
        if d > 0 then Tel.Counter.add c_evictions d)

let c_lane_fallbacks = Tel.Counter.make "dram.ops.lane_fallbacks"

let run_batch ?v_neighbour ?config:(cfg = Sim_config.default)
    ?(cache = Cache.default) ~stress ~lanes ops =
  if ops = [] then invalid_arg "Ops.run_batch: empty sequence";
  Stress.validate stress;
  let shape l =
    Option.map (fun { D.kind; placement; r = _ } -> (kind, placement)) l.defect
  in
  if List.exists (fun l -> shape l <> shape (List.hd lanes)) lanes then
    invalid_arg "Ops.run_batch: lanes must share one defect kind and placement";
  Sim_config.validate cfg;
  let lanes_arr = Array.of_list lanes in
  let n = Array.length lanes_arr in
  (* one cache key and one hit-or-miss tick per lane, whatever the batch
     width or whether caching is on: a bypassed lookup is a miss *)
  let keys =
    Array.map
      (fun l ->
        hashed
          { k_tech = cfg.Sim_config.tech; k_stress = stress;
            k_sim = cfg.Sim_config.sim;
            k_steps = cfg.Sim_config.steps_per_cycle; k_defect = l.defect;
            k_vc_init = l.vc_init; k_v_neighbour = v_neighbour; k_ops = ops })
      lanes_arr
  in
  let slots : (outcome, exn) result option array = Array.make n None in
  Array.iteri
    (fun i key ->
      Tel.Counter.incr c_requests;
      let cached =
        if Cache.is_enabled cache then
          Cache.with_lru cache (fun c -> Lru.find c key)
        else None
      in
      match cached with
      | Some o ->
        Atomic.incr cache.Cache.hits;
        Tel.Counter.incr c_hits;
        slots.(i) <- Some (Ok o)
      | None ->
        Atomic.incr cache.Cache.misses;
        Tel.Counter.incr c_misses)
    keys;
  let missing =
    List.filter (fun i -> Option.is_none slots.(i)) (List.init n Fun.id)
  in
  (* a run rescued by a degraded stage is cached under the BASE config
     key on purpose: the base configuration cannot produce an outcome
     at all (it fails), and repeat requests should get the degraded
     result instantly instead of re-walking the failure ladder *)
  let finish i outcome =
    store_outcome cache keys.(i) outcome;
    slots.(i) <- Some (Ok outcome)
  in
  let one_lane i =
    match execute_one ~cfg ?v_neighbour ~stress ~lane:lanes_arr.(i) ops with
    | outcome -> finish i outcome
    | exception e -> slots.(i) <- Some (Error e)
  in
  let ensemble = function
    | [ i ] -> one_lane i
    | group ->
      let results =
        Tel.with_span "ops.run_batch"
          ~attrs:(fun () ->
            [ ("seq", Tel.Str (seq_to_string ops));
              ("lanes", Tel.Int (List.length group)) ])
          (fun () ->
            execute ~cfg ?v_neighbour ~stress
              ~lanes:(List.map (fun i -> lanes_arr.(i)) group)
              ops)
      in
      List.iteri
        (fun j i ->
          match results.(j) with
          | Ok outcome -> finish i outcome
          | Error _ ->
            (* the lane died inside the ensemble (after its in-batch
               dt-halving retries). Its bits do not depend on its batch
               mates, so a deterministic failure repeats alone; the solo
               re-run — base attempt plus retry ladder — rescues a fault
               that does not repeat, such as an injected one, and walks
               the ladder for the rest. Non-convergent lanes end up as
               [Error Exhausted_retries] slots without disturbing batch
               mates. *)
            Tel.Counter.incr c_lane_fallbacks;
            one_lane i)
        group
  in
  (* the one batching decision: misses are cut into ensembles of the
     configured width, which fan out over domains. The wall-clock budget
     is a per-point contract; inside a shared ensemble one slow lane
     would burn every lane's budget, so deadline-bound requests run one
     lane per ensemble. A raise from a whole ensemble (e.g. a topology
     build failure, which would fail each of its lanes identically)
     becomes an [Error] for each of its lanes. *)
  let width =
    if cfg.Sim_config.deadline = None then Sim_config.resolve_lanes cfg
    else 1
  in
  ignore
    (Par.parallel_map ~jobs:(Sim_config.resolve_jobs cfg)
       (fun group ->
         try ensemble group
         with e -> List.iter (fun i -> slots.(i) <- Some (Error e)) group)
       (Par.chunks ~size:width missing));
  Array.to_list (Array.map Option.get slots)

let run ?defect ?(vc_init = 0.0) ?v_neighbour ?config ?cache ~stress ops =
  if ops = [] then invalid_arg "Ops.run: empty sequence";
  match
    run_batch ?v_neighbour ?config ?cache ~stress
      ~lanes:[ { defect; vc_init } ] ops
  with
  | [ Ok outcome ] -> outcome
  | [ Error e ] -> raise e
  | _ -> assert false
