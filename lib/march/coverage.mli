(** Fault-coverage evaluation of march tests. *)

(** A named fault instance for reporting. *)
type case = { label : string; fault : Memsim.fault }

(** The classic digital fault list: SA0, SA1, TF0, TF1, CFin, CFid. *)
val standard_faults : case list

(** [electrical_faults ?config ~stress ~kind ~placement ()] builds
    weak-cell cases fitted from the electrical model under [config] at
    50 k, 200 k, 500 k and 1 MOhm. *)
val electrical_faults :
  ?config:Dramstress_dram.Sim_config.t ->
  stress:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  unit ->
  case list

type result = {
  test : March.t;
  detected : (case * bool) list;
  coverage : float;  (** fraction detected *)
}

(** [evaluate test cases] runs the test against each fault in its own
    16-cell memory. *)
val evaluate : March.t -> case list -> result

(** [compare_tests tests cases] evaluates several tests on the same
    fault list. *)
val compare_tests : March.t list -> case list -> result list

(** [render results] tabulates tests x faults as text. *)
val render : result list -> string
