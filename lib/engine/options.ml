let epoch = 3
let gmin = 1e-12
let abstol = 1e-6
let reltol = 1e-4

type t = {
  tol_scale : float;
  max_newton : int;
  max_step_v : float;
  temp : float;
  dt_scale : float;
}

let default =
  {
    tol_scale = 1.0;
    max_newton = 80;
    max_step_v = 1.0;
    temp = 300.15;
    dt_scale = 1.0;
  }
