(** Transient results: the sampled waveforms one integration lane
    produces ({!Ensemble.run} is the integrator), and the step-failure
    error it reports. *)

type result = {
  times : float array;
  (** accepted time points, starting at 0.0 *)
  probe_names : string array;
  probe_values : float array array;
  (** [probe_values.(i).(k)] is probe [i] at [times.(k)] *)
  final_v : float array;
  (** node voltages at the last time point, indexed by node id *)
  probe_interps : (string, Dramstress_util.Interp.t) Hashtbl.t;
  (** name -> interpolant table built at result construction; {!probe}
      and {!value_at} are O(1) lookups instead of rebuilding the
      interpolant per query. Treat as read-only. *)
}

exception
  Step_failed of {
    seg_start : float;  (** start of the segment being integrated, s *)
    seg_end : float;    (** end of that segment, s *)
    t : float;          (** time point that failed to converge, s *)
    dt : float;         (** step size of the final (smallest) attempt, s *)
    retries : int;      (** halving retries that were exhausted *)
    iterations : int;   (** Newton iterations spent on the last attempt *)
    worst : float;      (** largest remaining voltage update, V *)
  }
(** Raised when a time point still fails to converge after the built-in
    step-halving retries. Wraps {!Newton.No_convergence} with enough
    context (segment bounds, final step size, retry budget) for
    sweep-level callers to report which operating point diverged. *)

(** [make_interps times probe_names probe_values] builds the interpolant
    table of a {!result} from strictly increasing sample times. *)
val make_interps :
  float array ->
  string array ->
  float array array ->
  (string, Dramstress_util.Interp.t) Hashtbl.t

(** [probe result name] is the sampled waveform of a probe as an
    interpolating curve. Raises [Not_found] for unknown probes. *)
val probe : result -> string -> Dramstress_util.Interp.t

(** [value_at result name t] is the probe value at time [t]. *)
val value_at : result -> string -> float -> float
