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
    steps_per_cycle = 400;
    jobs = None;
    lanes = None;
    retry = default_retry;
    deadline = None;
  }

let validate_deadline = function
  | None -> ()
  | Some d ->
    if not (d > 0.0) then invalid_arg "Sim_config: deadline must be > 0"

let v ?(tech = Tech.default) ?sim ?(steps_per_cycle = 400) ?jobs ?lanes
    ?(retry = default_retry) ?deadline () =
  if steps_per_cycle < 1 then
    invalid_arg "Sim_config.v: steps_per_cycle < 1";
  validate_policy retry;
  validate_deadline deadline;
  { tech; sim; steps_per_cycle; jobs; lanes; retry; deadline }

(* explicit legacy optionals always beat the bundled config, so existing
   call sites keep their meaning when a config is introduced around them *)
let resolve ?tech ?sim ?steps_per_cycle ?jobs ?lanes ?retry ?deadline ?config
    () =
  let base = Option.value config ~default in
  let t =
    {
      tech = Option.value tech ~default:base.tech;
      sim = (match sim with Some _ -> sim | None -> base.sim);
      steps_per_cycle =
        Option.value steps_per_cycle ~default:base.steps_per_cycle;
      jobs = (match jobs with Some _ -> jobs | None -> base.jobs);
      lanes = (match lanes with Some _ -> lanes | None -> base.lanes);
      retry = Option.value retry ~default:base.retry;
      deadline = (match deadline with Some _ -> deadline | None -> base.deadline);
    }
  in
  if t.steps_per_cycle < 1 then
    invalid_arg "Sim_config.resolve: steps_per_cycle < 1";
  validate_policy t.retry;
  validate_deadline t.deadline;
  t

let resolve_jobs t = Dramstress_util.Par.resolve_jobs ?jobs:t.jobs ()
let resolve_lanes t = Dramstress_util.Par.resolve_lanes ?lanes:t.lanes ()

let sweep_lanes t =
  if t.deadline <> None || Dramstress_util.Chaos.armed () then 1
  else resolve_lanes t
