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

(* every model's reference temperature: 27 C, the paper's nominal, K *)
let t_ref = 300.15

let make polarity ?(lambda = 0.05) ?(vt_tc = 2e-3) ?(mu_exp = 1.5)
    ?(n_sub = 1.4) ~name ~vt0 ~kp () =
  if vt0 < 0.0 || kp <= 0.0 then
    invalid_arg "Mosfet: vt0 and kp must be positive magnitudes";
  { name; polarity; vt0; kp; lambda; vt_tc; mu_exp; n_sub; t_ref }

let nmos ?lambda ?vt_tc ?mu_exp ?n_sub ~name ~vt0 ~kp () =
  make Nmos ?lambda ?vt_tc ?mu_exp ?n_sub ~name ~vt0 ~kp ()

let pmos ?lambda ?vt_tc ?mu_exp ?n_sub ~name ~vt0 ~kp () =
  make Pmos ?lambda ?vt_tc ?mu_exp ?n_sub ~name ~vt0 ~kp ()

let[@inline] vth_mag m ~temp = m.vt0 -. (m.vt_tc *. (temp -. m.t_ref))

let vth m ~temp =
  let v = vth_mag m ~temp in
  match m.polarity with Nmos -> v | Pmos -> -.v

let[@inline] kp_t m ~temp = m.kp *. ((temp /. m.t_ref) ** -.m.mu_exp)

type eval = { id : float; gm : float; gds : float }

(* Everything that depends only on (model, temperature): the ['**'] in
   [kp_t] alone is about a third of an evaluation, and a circuit
   evaluates every device at one temperature for a whole run. The
   divisions by n and the thermal voltage are taken here as reciprocals,
   so an evaluation divides only for the two sigmoids. All-float, so the
   record is stored flat. *)
type prepared = {
  sgn : float;  (* +1 NMOS, -1 PMOS *)
  lambda : float;
  vth : float;
  scale : float;
  inv_n : float;
  inv_vt : float;
  inv_2vt : float;  (* 1 / (2 v_T): channel-end u per volt of vds *)
  u_per_v : float;  (* 1 / (2 n v_T): u per volt of vgs *)
}

let prepare m ~temp =
  let vt_th = Dramstress_util.Units.thermal_voltage temp in
  let n = m.n_sub in
  let kp = kp_t m ~temp in
  {
    sgn = (match m.polarity with Nmos -> 1.0 | Pmos -> -1.0);
    lambda = m.lambda;
    vth = vth_mag m ~temp;
    scale = 2.0 *. n *. kp *. vt_th *. vt_th;
    inv_n = 1.0 /. n;
    inv_vt = 1.0 /. vt_th;
    inv_2vt = 1.0 /. (2.0 *. vt_th);
    u_per_v = 1.0 /. (2.0 *. n *. vt_th);
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
  let scale = p.scale in
  (* uf = vp / (2 v_T) and ur = (vp - vds) / (2 v_T), vp = (vgs - vth)/n *)
  let uf = (vgs_f -. p.vth) *. p.u_per_v in
  let ur = uf -. (vds_f *. p.inv_2vt) in
  (* softplus u = ln (1 + e^u) and its derivative, the logistic
     sigmoid, from one e = exp (-|u|) per channel end:
     softplus u = max u 0 + log1p e, and sigmoid u is 1/(1+e) for
     u >= 0 and e/(1+e) below. Neither overflows at any u. *)
  let ef = exp (-.Float.abs uf) and er = exp (-.Float.abs ur) in
  let ff = (if uf > 0.0 then uf else 0.0) +. log1p ef in
  let fr = (if ur > 0.0 then ur else 0.0) +. log1p er in
  let sf = (if uf >= 0.0 then 1.0 else ef) /. (1.0 +. ef) in
  let sr = (if ur >= 0.0 then 1.0 else er) /. (1.0 +. er) in
  let i_f = ff *. ff and i_r = fr *. fr in
  let clm = 1.0 +. (p.lambda *. vds_f) in
  let id_f = scale *. (i_f -. i_r) *. clm in
  (* d i_f / d vp = ff * sigmoid(uf) / vt_th ; same pattern for i_r *)
  let dif_dvp = ff *. sf *. p.inv_vt in
  let dir_dvp = fr *. sr *. p.inv_vt in
  let gm_f = scale *. clm *. (dif_dvp -. dir_dvp) *. p.inv_n in
  let gds_f =
    (scale *. clm *. dir_dvp) +. (scale *. (i_f -. i_r) *. p.lambda)
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
