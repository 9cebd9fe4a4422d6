(** Time-dependent source values for independent sources and switch
    controls. Waveforms are pure functions of time; they carry no state. *)

type t =
  | Dc of float
      (** constant value *)
  | Pulse of pulse
      (** trapezoidal pulse train *)
  | Pwl of (float * float) array
      (** piecewise linear; holds the first/last value outside the range.
          Breakpoints must be strictly increasing. *)

and pulse = {
  v0 : float;      (** initial/resting value *)
  v1 : float;      (** pulsed value *)
  delay : float;   (** time of first rising edge start *)
  rise : float;    (** rise duration (>= 0) *)
  width : float;   (** time spent at [v1] *)
  fall : float;    (** fall duration (>= 0) *)
  period : float option;  (** [None] for a single pulse *)
}

(** [eval w t] is the waveform value at time [t]. *)
val eval : t -> float -> float

(** [eval_into ws ~cursors times k out] sets [out.(i)] to
    [eval ws.(i) times.(k)] for every waveform of [ws], bit for bit,
    without allocating. The time is read from an array so that a caller
    evaluating at an instant it computed boxes nothing. [cursors.(i)] is
    where the search for a PWL waveform's interval starts, and is left
    at the interval found: keeping [cursors] across calls at nearby
    times makes each search a step or two. Any starting values give the
    same result. *)
val eval_into :
  t array -> cursors:int array -> float array -> int -> float array -> unit

(** [dc v] is [Dc v]. *)
val dc : float -> t

(** [pulse ?period ~v0 ~v1 ~delay ~rise ~width ~fall ()] builds a pulse;
    raises [Invalid_argument] on negative durations. *)
val pulse :
  ?period:float ->
  v0:float -> v1:float -> delay:float -> rise:float -> width:float ->
  fall:float -> unit -> t

(** [pwl pts] builds a piecewise-linear waveform; raises
    [Invalid_argument] unless breakpoints strictly increase. *)
val pwl : (float * float) list -> t

(** [pwl_steps ~t_edge v0 steps] builds a PWL from step commands: value
    [v0] until the first step, then each [(time, value)] reached with an
    edge of duration [t_edge]. Convenient for control signals. *)
val pwl_steps : t_edge:float -> float -> (float * float) list -> t

(** [shift dt w] delays the waveform by [dt] (PWL and pulse only; DC is
    unchanged). *)
val shift : float -> t -> t

(** [breakpoints ~until w] returns the time points in [[0, until]] where
    the waveform changes slope — used by the transient engine to align
    steps with edges. *)
val breakpoints : until:float -> t -> float list
