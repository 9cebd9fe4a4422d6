(** Wire protocol of the campaign service.

    Frames are an 8-hex-digit payload length followed by that many
    bytes of rendered s-expression ({!Sexp}), exchanged over a local
    Unix-domain socket. One request frame yields one response frame — except
    [submit], which streams any number of [point] frames before its
    final [done] (or [error]) frame. *)

(** The s-expression carrier; quoted atoms carry manifest text and
    rendered reports verbatim. *)
type sexp = Sexp.t = Atom of string | List of sexp list

(** Frames larger than this (16 MiB) are refused — a corrupt header
    must not trigger a giant allocation. *)
val max_frame : int

val write_frame : Unix.file_descr -> sexp -> unit

(** [read_frame ?frame_timeout fd] reads one frame. [`Eof] is a clean
    (or mid-frame) connection close; [`Protocol] is a malformed header,
    oversized frame or unparseable payload.

    [frame_timeout] (seconds) is the slowloris defence: it bounds the
    time from a frame's {e first byte} to its last — a peer that opens
    a frame and trickles gets [`Timeout]; a connection sitting silent
    {e between} frames is never timed out, so idle keep-alive clients
    are unaffected. *)
val read_frame :
  ?frame_timeout:float ->
  Unix.file_descr ->
  (sexp, [ `Eof | `Protocol of string | `Timeout ]) result

type request =
  | Submit of { manifest : string; jobs : int option }
      (** run a campaign (manifest text, not a path) on the server's
          store; the reply streams [Point]s then one [Done] *)
  | Status  (** server + store summary *)
  | Query of string  (** raw point-descriptor lookup *)
  | Diff of { a : string; b : string }
      (** two manifest texts, both evaluated against the server store;
          replies with the rendered comparison *)
  | Merge of string
      (** absorb the store directory at this path into the server's *)
  | Counters  (** server-process telemetry counters *)
  | Shutdown

type point_status = Reused | Simulated | Deduped | Failed

val string_of_point_status : point_status -> string
val point_status_of_string : string -> point_status option

type response =
  | Point of { descr : string; status : point_status; payload : string }
      (** one campaign point as it lands; [payload] is the encoded
          result, or the error message when [status = Failed] *)
  | Done of {
      planned : int;
      reused : int;
      simulated : int;
      deduped : int;
      failed : int;
    }
  | Status_report of {
      name : string;
      engine : string;
      records : int;
      shards : int;
      inflight : int;
    }
  | Found of string
  | Not_found
  | Diff_report of string
  | Merged of { added : int; replaced : int; kept : int }
  | Counter_values of (string * int) list
  | Busy of { retry_after : float }
      (** admission control: over capacity — retry the submission after
          (roughly) [retry_after] seconds *)
  | Draining
      (** the server is shutting down gracefully and accepts no new
          submissions; in-flight work is being finished *)
  | Bye
  | Error_msg of string

val encode_request : request -> sexp
val decode_request : sexp -> (request, string) result
val encode_response : response -> sexp
val decode_response : sexp -> (response, string) result
