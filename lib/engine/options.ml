type integrator = Backward_euler | Trapezoidal

type t = {
  abstol : float;
  reltol : float;
  max_newton : int;
  gmin : float;
  max_step_v : float;
  temp : float;
  integrator : integrator;
  naive_assembly : bool;
  dt_scale : float;
  health_guards : bool;
}

let default =
  {
    abstol = 1e-6;
    reltol = 1e-4;
    max_newton = 80;
    gmin = 1e-12;
    max_step_v = 1.0;
    temp = 300.15;
    integrator = Backward_euler;
    naive_assembly = false;
    dt_scale = 1.0;
    health_guards = true;
  }
