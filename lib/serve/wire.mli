(** Wire protocol of the simulation service: length-prefixed frames
    whose payloads reuse the serialisation disciplines the store layer
    already guarantees to be bit-exact.

    {b Framing.}  A frame is a 4-byte big-endian payload length followed
    by the payload; payloads above {!max_frame} are rejected without
    being read.  The first payload byte is a message tag; the rest is a
    tag-specific body.  Framing errors are recoverable for the {e
    server} (the offending connection is dropped, the accept loop keeps
    running) — a byte stream that lost frame sync cannot be resumed.

    {b Requests on the wire are canonical.}  The body of a [Request]
    frame is exactly {!Lf_machine.Sim.canonical} of the request — the
    same text the content-addressed store digests.  The decoder
    ({!request_of_canonical}) parses it back into a {!Sim.request} and
    then {e re-serialises and compares bytes}: a payload is accepted
    only if it is the canonical form of the request it parses to, so
    the server's notion of the request's digest always agrees with the
    client's and no ambiguous or lossy payload can slip through.

    {b Results on the wire are store entries.}  [Result] bodies render
    every float as its IEEE-754 bit pattern (the {!Lf_batch.Batch.Store}
    discipline), so a served result is byte-identical to a local
    {!Lf_machine.Exec.run_opts} of the same request. *)

module Sim = Lf_machine.Sim
module Exec = Lf_machine.Exec

val max_frame : int
(** Hard cap on payload size (16 MiB); larger length prefixes are
    treated as protocol violations, not allocation requests. *)

(** {1 Messages} *)

type client_msg =
  | Request of { rid : int; req : Sim.request }
      (** Submit a simulation.  [rid] is a client-chosen correlation id
          echoed on every response to this request, so responses of
          pipelined requests can interleave. *)
  | Stats_query
  | Ping

type progress = {
  g_rid : int;
  g_phases : int;  (** simulated phases completed so far *)
  g_refs : int;  (** memory references issued so far *)
  g_misses : int;  (** cache misses so far *)
  g_elapsed_s : float;  (** wall-clock seconds since the job started *)
}

type server_msg =
  | Accepted of { rid : int; position : int }
      (** Admission ack.  [position] is the number of outstanding jobs
          at or ahead of this one ([0] = answered on the warm fast
          path, no queueing at all). *)
  | Overloaded of { rid : int; reason : string }
      (** Backpressure: the request was {e not} admitted (per-client
          queue full, server-wide bound hit, or the server is
          draining).  The client may retry later. *)
  | Rejected of { rid : int; reason : string }
      (** The request cannot be served (malformed payload, an unknown
          engine name among them, or the simulation itself failed). *)
  | Progress of progress
      (** Periodic while the request is computing; sourced from the
          [lf_obs] sink attached to the running simulation. *)
  | Result of {
      rid : int;
      from_store : bool;
      wall_s : float;
      result : Exec.result;
    }
  | Stats_reply of (string * int) list
  | Pong

(** {1 Canonical-request codec} *)

val request_of_canonical : string -> (Sim.request, string) result
(** Parse {!Sim.canonical} text back into the request it names.
    Strict: returns [Error] unless re-serialising the parsed request
    reproduces the input byte-for-byte. *)

(** {1 Result codec (IEEE-754-bits discipline)} *)

val result_to_string : Exec.result -> string

val result_of_string : string -> (Exec.result, string) result
(** Strict line-oriented parse, the inverse of {!result_to_string}. *)

(** {1 Payload codecs (pure; framing-independent)} *)

val client_msg_to_payload : client_msg -> string
val client_msg_of_payload : string -> (client_msg, string) result
val server_msg_to_payload : server_msg -> string
val server_msg_of_payload : string -> (server_msg, string) result

(** {1 Framed socket I/O} *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame (length prefix + payload).  Raises
    [Unix.Unix_error] on I/O failure and [Invalid_argument] on payloads
    above {!max_frame}; callers serialise concurrent writers per
    connection. *)

type read_error =
  | Eof  (** clean end of stream between frames *)
  | Truncated  (** end of stream inside a frame *)
  | Oversized of int  (** length prefix above {!max_frame} *)
  | Io of string

val read_frame : Unix.file_descr -> (string, read_error) result
(** Read one complete payload, retrying interrupted system calls. *)

val read_error_to_string : read_error -> string
