type retry_stage =
  | Halve_dt
  | Raise_steps of int
  | Damped_newton of { max_step_v : float; max_newton_scale : int }

type retry_policy = { stages : retry_stage list }

let no_retry = { stages = [] }

(* escalation order mirrors how a SPICE operator rescues a diverging
   transient by hand: first a finer first step, then a finer step
   everywhere, finally a heavily damped Newton that trades iterations
   for robustness *)
let default_retry =
  {
    stages =
      [ Halve_dt; Raise_steps 4;
        Damped_newton { max_step_v = 0.25; max_newton_scale = 4 } ];
  }

let pp_stage ppf = function
  | Halve_dt -> Format.pp_print_string ppf "halve-dt"
  | Raise_steps n -> Format.fprintf ppf "steps-x%d" n
  | Damped_newton { max_step_v; max_newton_scale } ->
    Format.fprintf ppf "damped-newton(%.3gV,x%d)" max_step_v max_newton_scale

let stage_name s = Format.asprintf "%a" pp_stage s

let validate_policy p =
  List.iter
    (fun stage ->
      match stage with
      | Halve_dt -> ()
      | Raise_steps n ->
        if n < 2 then invalid_arg "Sim_config: Raise_steps factor < 2"
      | Damped_newton { max_step_v; max_newton_scale } ->
        if max_step_v <= 0.0 then
          invalid_arg "Sim_config: Damped_newton max_step_v <= 0";
        if max_newton_scale < 1 then
          invalid_arg "Sim_config: Damped_newton max_newton_scale < 1")
    p.stages

(* the transient resolution: BDF2 at 100 steps per cycle keeps every
   Table-1 row's stressed SC and directions, and every border within
   2 rel_tol of the search window, of a 1600-step reference
   (EXPERIMENTS.md, "One second-order integrator") *)
let default_steps_per_cycle = 100

type t = {
  tech : Tech.t;
  sim : Dramstress_engine.Options.t option;
  steps_per_cycle : int;
  jobs : int option;
  lanes : int option;
  retry : retry_policy;
  deadline : float option;
}

let default =
  {
    tech = Tech.default;
    sim = None;
    steps_per_cycle = default_steps_per_cycle;
    jobs = None;
    lanes = None;
    retry = default_retry;
    deadline = None;
  }

let validate_deadline = function
  | None -> ()
  | Some d ->
    if not (d > 0.0) then invalid_arg "Sim_config: deadline must be > 0"

let validate t =
  if t.steps_per_cycle < 1 then
    invalid_arg "Sim_config: steps_per_cycle < 1";
  validate_policy t.retry;
  validate_deadline t.deadline

let v ?(tech = Tech.default) ?sim
    ?(steps_per_cycle = default_steps_per_cycle) ?jobs ?lanes
    ?(retry = default_retry) ?deadline () =
  let t = { tech; sim; steps_per_cycle; jobs; lanes; retry; deadline } in
  validate t;
  t

(* ------------------------------------------------------------------ *)
(* Store keys                                                          *)
(* ------------------------------------------------------------------ *)

module Defect = Dramstress_defect.Defect
module M = Dramstress_circuit.Mosfet
module O = Dramstress_engine.Options

(* Records are taken apart field by field, so a field added to [Tech.t],
   [Mosfet.model] or [Options.t] does not compile here until the key
   prints it. [temp] comes from the stress, which every key prints. The
   Newton bound prints as its two terms at [tol_scale] and gmin as the
   engine's constant, so the text names every number the solve used. *)
let physics_key
    { tech; sim; steps_per_cycle; retry; jobs = _; lanes = _; deadline = _ } =
  let h k v = Printf.sprintf "%s=%h" k v and d k v = Printf.sprintf "%s=%d" k v in
  let mos k { M.name; polarity; vt0; kp; lambda; vt_tc; mu_exp; n_sub; t_ref } =
    Printf.sprintf "%s=(name=%s,%s,%s)" k name
      (if polarity = M.Nmos then "nmos" else "pmos")
      (String.concat ","
         [ h "vt0" vt0; h "kp" kp; h "lambda" lambda; h "vt_tc" vt_tc;
           h "mu_exp" mu_exp; h "n_sub" n_sub; h "t_ref" t_ref ])
  in
  let stage = function
    | Halve_dt -> "halve-dt"
    | Raise_steps n -> Printf.sprintf "steps-x%d" n
    | Damped_newton { max_step_v; max_newton_scale } ->
      Printf.sprintf "damped-newton(%h,x%d)" max_step_v max_newton_scale
  in
  let { Tech.c_bl; c_cell; c_ref; c_sa; c_out; access; sa_n; sa_p; wl_boost;
        g_switch; g_write; g_off; t_wl_on; t_share; t_wr_cmd; t_margin0;
        t_margin_duty; t_decide; t_edge } = tech
  and { O.tol_scale; max_newton; max_step_v; temp = _; dt_scale }
      = Option.value sim ~default:O.default in
  String.concat ","
    [ d "epoch" O.epoch; h "c_bl" c_bl; h "c_cell" c_cell; h "c_ref" c_ref;
      h "c_sa" c_sa; h "c_out" c_out; mos "access" access; mos "sa_n" sa_n;
      mos "sa_p" sa_p; h "wl_boost" wl_boost; h "g_switch" g_switch;
      h "g_write" g_write; h "g_off" g_off; h "t_wl_on" t_wl_on;
      h "t_share" t_share; h "t_wr_cmd" t_wr_cmd; h "t_margin0" t_margin0;
      h "t_margin_duty" t_margin_duty; h "t_decide" t_decide;
      h "t_edge" t_edge; h "abstol" (tol_scale *. O.abstol);
      h "reltol" (tol_scale *. O.reltol); d "max_newton" max_newton;
      h "gmin" O.gmin; h "max_step_v" max_step_v;
      (* BDF2 is the engine's only rule; still printed, as gmin is, so
         that the text names the rule its values came from *)
      "integrator=bdf2";
      h "dt_scale" dt_scale;
      d "steps_per_cycle" steps_per_cycle;
      "retry=" ^ String.concat ";" (List.map stage retry.stages) ]

(* the physics enters a key as the digest of its text, printed once per
   application to [t]; the rest is concatenated, not formatted, since a
   warm campaign builds several keys per point *)
let key t =
  let physics = "physics=" ^ Digest.to_hex (Digest.string (physics_key t)) in
  fun layer ~stress ~kind ~placement fields ->
    String.concat "|"
      (layer :: physics :: Stress.key stress
      :: String.concat ""
           [ "defect="; Defect.kind_name kind;
             (if placement = Defect.True_bl then "/true" else "/comp") ]
      :: fields)

let resolve_jobs t = Dramstress_util.Par.resolve_jobs ?jobs:t.jobs ()
let resolve_lanes t = Dramstress_util.Par.resolve_lanes ?lanes:t.lanes ()
