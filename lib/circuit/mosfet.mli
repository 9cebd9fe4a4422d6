(** Level-1/EKV-style MOSFET model with temperature dependence.

    The drain current uses the EKV interpolation between sub-threshold
    (exponential) and strong-inversion (square-law) conduction:

    {v
      v_p  = (v_gs - v_th(T)) / n
      i_f  = ln^2(1 + exp(v_p / (2 v_T)))           (forward)
      i_r  = ln^2(1 + exp((v_p - v_ds) / (2 v_T)))  (reverse)
      I_d  = 2 n k_p(T) v_T^2 (i_f - i_r) (1 + lambda v_ds)
    v}

    with v_T = kT/q. This single-piece expression is smooth (good for
    Newton) and carries exactly the three temperature mechanisms the
    paper's Section 4.2 identifies: threshold voltage (v_th rises as T
    falls), carrier mobility (k_p ~ T^-mu_exp, current rises as T falls)
    and sub-threshold leakage (falls steeply as T falls). *)

type polarity = Nmos | Pmos

type model = {
  name : string;
  polarity : polarity;
  vt0 : float;     (** threshold voltage magnitude at [t_ref], V *)
  kp : float;      (** transconductance k_p = mu Cox W/L at [t_ref], A/V^2 *)
  lambda : float;  (** channel-length modulation, 1/V *)
  vt_tc : float;   (** threshold tempco, V/K: v_th(T) = vt0 - vt_tc (T - t_ref) *)
  mu_exp : float;  (** mobility exponent: k_p(T) = kp (T/t_ref)^-mu_exp *)
  n_sub : float;   (** sub-threshold slope factor (>= 1) *)
  t_ref : float;   (** reference temperature, K *)
}

(** [nmos ~name ~vt0 ~kp ()] builds an NMOS model with typical defaults:
    [lambda = 0.05], [vt_tc = 2e-3], [mu_exp = 1.5], [n_sub = 1.4],
    and reference temperature [t_ref = 300.15] (27 C). Optional
    arguments override the first four. *)
val nmos :
  ?lambda:float -> ?vt_tc:float -> ?mu_exp:float -> ?n_sub:float ->
  name:string -> vt0:float -> kp:float -> unit -> model

(** [pmos ~name ~vt0 ~kp ()] like {!nmos}; [vt0] and [kp] are magnitudes. *)
val pmos :
  ?lambda:float -> ?vt_tc:float -> ?mu_exp:float -> ?n_sub:float ->
  name:string -> vt0:float -> kp:float -> unit -> model

(** [vth model ~temp] is the signed threshold at temperature [temp] (K):
    positive for NMOS, negative for PMOS. *)
val vth : model -> temp:float -> float

(** [kp_t model ~temp] is the temperature-scaled transconductance. *)
val kp_t : model -> temp:float -> float

(** Evaluation result: drain current and its partial derivatives with
    respect to the terminal voltages actually supplied (not the swapped
    internal ones). Currents flow into the drain terminal. *)
type eval = { id : float; gm : float; gds : float }

(** [ids model ~temp ~vgs ~vds] evaluates the device. Source/drain are
    exchanged internally for reverse bias; PMOS is handled by sign
    reflection. [gm = dId/dVgs], [gds = dId/dVds]. *)
val ids : model -> temp:float -> vgs:float -> vds:float -> eval

(** Temperature-resolved device constants: threshold, scaled
    transconductance and thermal voltage, computed once per (model,
    temperature) instead of on every evaluation. *)
type prepared

val prepare : model -> temp:float -> prepared

(** [ids_into p v ~d ~g ~s out] evaluates the device with drain, gate
    and source at voltages [v.(d)], [v.(g)], [v.(s)] and writes [id],
    [gm], [gds] to [out.(0)], [out.(1)], [out.(2)], without allocating.
    The results are bitwise those of
    [ids model ~temp ~vgs:(v.(g) -. v.(s)) ~vds:(v.(d) -. v.(s))] for
    [p = prepare model ~temp]. *)
val ids_into :
  prepared -> float array -> d:int -> g:int -> s:int -> float array -> unit
