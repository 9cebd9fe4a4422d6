type polarity = Nmos | Pmos

type model = {
  name : string;
  polarity : polarity;
  vt0 : float;
  kp : float;
  lambda : float;
  vt_tc : float;
  mu_exp : float;
  n_sub : float;
  t_ref : float;
}

let make polarity ?(lambda = 0.05) ?(vt_tc = 2e-3) ?(mu_exp = 1.5)
    ?(n_sub = 1.4) ?(t_ref = 300.15) ~name ~vt0 ~kp () =
  if vt0 < 0.0 || kp <= 0.0 then
    invalid_arg "Mosfet: vt0 and kp must be positive magnitudes";
  { name; polarity; vt0; kp; lambda; vt_tc; mu_exp; n_sub; t_ref }

let nmos ?lambda ?vt_tc ?mu_exp ?n_sub ?t_ref ~name ~vt0 ~kp () =
  make Nmos ?lambda ?vt_tc ?mu_exp ?n_sub ?t_ref ~name ~vt0 ~kp ()

let pmos ?lambda ?vt_tc ?mu_exp ?n_sub ?t_ref ~name ~vt0 ~kp () =
  make Pmos ?lambda ?vt_tc ?mu_exp ?n_sub ?t_ref ~name ~vt0 ~kp ()

let[@inline] vth_mag m ~temp = m.vt0 -. (m.vt_tc *. (temp -. m.t_ref))

let vth m ~temp =
  let v = vth_mag m ~temp in
  match m.polarity with Nmos -> v | Pmos -> -.v

let[@inline] kp_t m ~temp = m.kp *. ((temp /. m.t_ref) ** -.m.mu_exp)

type eval = { id : float; gm : float; gds : float }

(* numerically stable softplus and its derivative (logistic sigmoid) *)
let[@inline] softplus u =
  if u > 30.0 then u else if u < -30.0 then exp u else log1p (exp u)

let[@inline] sigmoid u =
  if u > 30.0 then 1.0
  else if u < -30.0 then exp u
  else 1.0 /. (1.0 +. exp (-.u))

(* Everything that depends only on (model, temperature): the ['**'] in
   [kp_t] alone is about a third of an evaluation, and a circuit
   evaluates every device at one temperature for a whole run. All-float,
   so the record is stored flat. *)
type prepared = {
  sgn : float;  (* +1 NMOS, -1 PMOS *)
  n : float;
  lambda : float;
  vt_th : float;
  vth : float;
  scale : float;
}

let prepare m ~temp =
  let vt_th = Dramstress_util.Units.thermal_voltage temp in
  let n = m.n_sub in
  let kp = kp_t m ~temp in
  {
    sgn = (match m.polarity with Nmos -> 1.0 | Pmos -> -1.0);
    n;
    lambda = m.lambda;
    vt_th;
    vth = vth_mag m ~temp;
    scale = 2.0 *. n *. kp *. vt_th *. vt_th;
  }

(* Polarity reflection and source/drain exchange are folded into sign
   fixups around one forward-frame EKV evaluation.

   Forward frame: NMOS with vds >= 0. PMOS is the NMOS dual at
   (-vgs, -vds) with Id = -Id_n, dId/dVgs = gm_n, dId/dVds = gds_n.
   Reverse bias (vds_n < 0) evaluates the mirrored device at
   vgs' = vgd = vgs - vds, vds' = -vds; Id = -Id'. Chain rule:
   dId/dvgs = -dId'/dvgs' * dvgs'/dvgs = -gm'.
   dId/dvds = -(gm' * dvgs'/dvds + gds' * dvds'/dvds) = gm' + gds'.

   Writes (id, gm, gds) to [out.(0..2)]; inlined into both entry points
   so the Newton stamp loop ([ids_into]) keeps every float unboxed. *)
let[@inline] eval_into p ~vgs ~vds (out : float array) =
  let sgn = p.sgn in
  let vgs_n = sgn *. vgs and vds_n = sgn *. vds in
  let reversed = vds_n < 0.0 in
  let vgs_f = if reversed then vgs_n -. vds_n else vgs_n in
  let vds_f = if reversed then -.vds_n else vds_n in
  let vt_th = p.vt_th and n = p.n and scale = p.scale in
  let vp = (vgs_f -. p.vth) /. n in
  let uf = vp /. (2.0 *. vt_th) in
  let ur = (vp -. vds_f) /. (2.0 *. vt_th) in
  let ff = softplus uf and fr = softplus ur in
  let i_f = ff *. ff and i_r = fr *. fr in
  let clm = 1.0 +. (p.lambda *. vds_f) in
  let id_f = scale *. (i_f -. i_r) *. clm in
  (* d i_f / d vp = ff * sigmoid(uf) / vt_th ; same pattern for i_r *)
  let dif_dvp = ff *. sigmoid uf /. vt_th in
  let dir_dvp = fr *. sigmoid ur /. vt_th in
  let gm_f = scale *. clm *. (dif_dvp -. dir_dvp) /. n in
  let gds_f =
    (scale *. clm *. (fr *. sigmoid ur /. vt_th))
    +. (scale *. (i_f -. i_r) *. p.lambda)
  in
  let id_n = if reversed then -.id_f else id_f in
  out.(0) <- sgn *. id_n;
  out.(1) <- (if reversed then -.gm_f else gm_f);
  out.(2) <- (if reversed then gm_f +. gds_f else gds_f)

let ids m ~temp ~vgs ~vds =
  let out = Array.make 3 0.0 in
  eval_into (prepare m ~temp) ~vgs ~vds out;
  { id = out.(0); gm = out.(1); gds = out.(2) }

let ids_into p v ~d ~g ~s out =
  let vs = v.(s) in
  eval_into p ~vgs:(v.(g) -. vs) ~vds:(v.(d) -. vs) out
