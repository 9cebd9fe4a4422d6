(** A dense full-MNA transient simulator, the oracle the production
    engine ({!Dramstress_engine.Ensemble}) is checked against.

    It is built from the compiled netlist alone, in the textbook SPICE
    formulation: every non-ground node is an unknown (node [n] at index
    [n - 1]), every voltage source has a branch-current row after them,
    gmin ties every node to ground, and each Newton iteration stamps a
    fresh dense matrix and solves it with {!Dramstress_util.Linalg}'s
    LU. It shares no layout, slot plan, control cache or sparse
    factorization with the engine, so a fault in any of them shows as a
    difference between the two.

    It does not choose its own time points: {!replay} steps through the
    accepted times of a production run, from the same initial
    conditions, with the same quasi-static step at t=0 and the same
    capacitor companions, so a production trace and its replay solve
    the same discretized equations. *)

(** [replay compiled ~opts ?override ~ics ~probes ~times ()] integrates
    [compiled] over [times] (strictly increasing, starting at 0.0) and
    returns the result a production run with those accepted time points
    would: the [probes] at every time, and every node voltage at the
    last.

    - [opts]: [integrator] and [temp] are the physics, with gmin
      {!Dramstress_engine.Options.gmin}; Newton stops once no node
      voltage moves by more than
      [tol_scale *. (abstol +. reltol *. max |v|)]
      ({!Dramstress_engine.Options.abstol},
      {!Dramstress_engine.Options.reltol}), each move clamped to
      [max_step_v], and fails after [max_newton] iterations
      ([Failure]).
    - [override = (name, ohms)] replaces the named resistor's value.
    - [ics]: initial node voltages by name, the others 0 V. As in
      production, a step of 1e-18 s at t=0 (with [opts.integrator]'s
      companions) makes the resistive nodes consistent while the
      capacitors hold their ICs.

    Every Newton solve starts from the previous accepted state. *)
val replay :
  Dramstress_circuit.Netlist.compiled ->
  opts:Dramstress_engine.Options.t ->
  ?override:string * float ->
  ics:(string * float) list ->
  probes:string list ->
  times:float array ->
  unit ->
  Dramstress_engine.Transient.result

(** [check ~eps_final ~eps_trace ~what expected actual] fails the
    running Alcotest case, naming [what], unless every final node
    voltage of [actual] is within [eps_final] of [expected]'s and every
    probe sample within [eps_trace], each bound relative:
    [|v - w| <= eps * (1 + |w|)] for reference value [v] and engine
    value [w]. *)
val check :
  eps_final:float ->
  eps_trace:float ->
  what:string ->
  Dramstress_engine.Transient.result ->
  Dramstress_engine.Transient.result ->
  unit
