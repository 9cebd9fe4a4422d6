(** Structured per-point sweep outcomes.

    The resilient-sweep contract: a sweep over many independent points
    never aborts because one point's simulation fails. Each point
    produces either [Ok payload] or [Failed f] where [f] records the
    point itself, the final exception, and how many retries the
    degradation policy spent before giving up
    ({!Dramstress_dram.Sim_config.retry_policy}). *)

type 'p failure = {
  point : 'p;    (** the sweep point that could not be evaluated *)
  error : exn;   (** the final error after the retry policy ran dry *)
  retries : int; (** retry attempts consumed (0 = failed immediately) *)
}

type ('p, 'a) t = Ok of 'a | Failed of 'p failure

val value : default:'a -> ('p, 'a) t -> 'a
val map : ('a -> 'b) -> ('p, 'a) t -> ('p, 'b) t
val map_point : ('p -> 'q) -> ('p, 'a) t -> ('q, 'a) t

(** [partition outcomes] splits into payloads and failures, both in
    input order. *)
val partition : ('p, 'a) t list -> 'a list * 'p failure list

val oks : ('p, 'a) t list -> 'a list
val failures : ('p, 'a) t list -> 'p failure list

(** [error_message f] is [Printexc.to_string f.error]. *)
val error_message : 'p failure -> string

val pp_failure :
  (Format.formatter -> 'p -> unit) -> Format.formatter -> 'p failure -> unit
