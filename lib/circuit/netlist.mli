(** Mutable netlist builder with the editing operations needed for defect
    injection, and a validated compiled form consumed by the engine. *)

type t

(** [create ()] is an empty netlist containing only ground. *)
val create : unit -> t

(** [ground] is node 0. *)
val ground : Device.node

(** [node nl name] interns a named node, creating it on first use. *)
val node : t -> string -> Device.node

(** [find_node nl name] is the node id if [name] exists. *)
val find_node : t -> string -> Device.node option

(** [node_name nl n] is the name of node [n] ("0" for ground). *)
val node_name : t -> Device.node -> string

(** [fresh_node nl prefix] creates an anonymous node named
    [prefix ^ "#" ^ id]. *)
val fresh_node : t -> string -> Device.node

(** [add nl device] registers a device; raises [Invalid_argument] on a
    duplicate name. *)
val add : t -> Device.t -> unit

(** Convenience constructors; all intern their node names. *)

val resistor : t -> name:string -> string -> string -> float -> unit
val capacitor : t -> name:string -> string -> string -> float -> unit
val vsource : t -> name:string -> string -> string -> Waveform.t -> unit
val isource : t -> name:string -> string -> string -> Waveform.t -> unit

val switch :
  t -> name:string -> string -> string -> ctrl:Waveform.t ->
  ?g_on:float -> ?g_off:float -> ?threshold:float -> unit -> unit

val mosfet :
  t -> name:string -> d:string -> g:string -> s:string ->
  model:Mosfet.model -> ?m:float -> unit -> unit

(** [find_device nl name] looks a device up by name. *)
val find_device : t -> string -> Device.t option

(** [replace_device nl name device] swaps the registered device, keeping
    its position. Raises [Not_found] if absent. *)
val replace_device : t -> string -> Device.t -> unit

(** [remove_device nl name] deletes a device. Raises [Not_found]. *)
val remove_device : t -> string -> unit

(** [insert_series nl ~name ~device ~terminal ~r] splits the named
    device's terminal with a series resistor of value [r] (models a
    resistive open). A fresh internal node is created. Raises
    {!Invalid} with an [Unknown_device] diagnostic if the device is
    absent — the defect-injection-onto-nothing failure mode. *)
val insert_series :
  t -> name:string -> device:string -> terminal:Device.terminal ->
  r:float -> unit

(** [devices nl] lists devices in insertion order. *)
val devices : t -> Device.t list

(** Compiled, validated form: dense node ids, device array. *)
type compiled = private {
  devices : Device.t array;
  n_nodes : int;  (** including ground; node ids are [0 .. n_nodes-1] *)
  names : string array;  (** node id -> name *)
  n_vsources : int;
}

(** Pre-flight structural problems found by {!compile} (and by editing
    operations such as {!insert_series}). Each diagnostic names the
    offending netlist element so the error is actionable without a
    solver trace. *)
type diagnostic =
  | Floating_node of { node : string }
    (** a non-ground node no device stamp touches: its matrix row would
        be all-zero and the LU factorisation structurally singular *)
  | Non_finite_param of { device : string; param : string; value : float }
    (** a NaN/infinite device parameter that would poison every stamp
        built from it (raw {!add} bypasses the smart-constructor
        checks) *)
  | Zero_capacitance of { device : string }
    (** a capacitor with [c <= 0]: its node claims dynamic state but
        carries none, so the companion-model conductance is 0/undefined *)
  | Unknown_device of { context : string; device : string }
    (** an editing operation (defect injection) addressed a device that
        does not exist in the netlist *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit

(** Raised by {!compile} with {e every} diagnostic found — the whole
    sick set in one report, not just the first symptom — and by editing
    operations with a singleton list. A printer is registered, so
    uncaught escapes render readably. *)
exception Invalid of diagnostic list

(** [compile nl] validates the netlist — every non-ground node touched
    by at least one device stamp, all numeric device parameters finite,
    no non-positive capacitances — and freezes it. Raises {!Invalid}
    with the full diagnostic list on failure, before any solve is
    attempted. *)
val compile : t -> compiled

(** [compiled_node c name] resolves a node name after compilation; raises
    [Not_found]. *)
val compiled_node : compiled -> string -> Device.node

(** [pp ppf nl] dumps the netlist, one device per line. *)
val pp : Format.formatter -> t -> unit
