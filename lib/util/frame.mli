(** Length-prefixed frames over a file descriptor: an 8-hex-digit
    payload length, then exactly that many payload bytes. The one codec
    of the worker pool's pipes ({!Procpool}) and of the campaign
    service's socket protocol, which adds its own first-byte wait,
    per-frame deadline, size cap and s-expression payload on top. *)

type error = [ `Eof | `Protocol of string | `Timeout ]

(** Bytes in a frame header (8). *)
val header_len : int

(** [write fd payload] writes one frame, header and payload from one
    buffer, looping over short writes. Unix errors propagate. *)
val write : Unix.file_descr -> string -> unit

(** [read_exact ~deadline fd len] reads exactly [len] bytes, or [`Eof]
    if the peer closes first. With [deadline = Some t] (an absolute
    [Unix.gettimeofday] instant) each read first waits in [Unix.select]
    and the result is [`Timeout] once [t] has passed. [EINTR] is
    retried; other Unix errors propagate. *)
val read_exact :
  deadline:float option ->
  Unix.file_descr ->
  int ->
  [ `Ok of string | `Eof | `Timeout ]

(** [read_payload ~max ~deadline fd header] parses a frame [header] and
    reads the payload it announces under [deadline] ({!read_exact}). A
    header that is not hex is [`Protocol "bad frame header"]; a length
    above [max] is [`Protocol "oversized frame"], refused before any
    allocation. *)
val read_payload :
  max:int ->
  deadline:float option ->
  Unix.file_descr ->
  string ->
  (string, error) result

(** [read ~max fd] blocks for one whole frame, header and payload. *)
val read : max:int -> Unix.file_descr -> (string, error) result
