type integrator = Backward_euler | Trapezoidal

let epoch = 2
let gmin = 1e-12
let abstol = 1e-6
let reltol = 1e-4

type t = {
  tol_scale : float;
  max_newton : int;
  max_step_v : float;
  temp : float;
  integrator : integrator;
  dt_scale : float;
}

let default =
  {
    tol_scale = 1.0;
    max_newton = 80;
    max_step_v = 1.0;
    temp = 300.15;
    integrator = Backward_euler;
    dt_scale = 1.0;
  }
