(** Length-framed transport: the byte layer under the service protocol.

    Every message travels as a 4-byte big-endian payload length followed by
    the payload bytes.  The payload itself is a {!Fair_exec.Wire} frame
    (pipe-separated escaped fields) — the same framing discipline protocol
    messages use — but this module is agnostic to that: it moves opaque
    byte strings.

    The socket feeds the decoder {e real fragmented data}: a frame can
    arrive split across any byte boundary (short reads), and several frames
    can arrive in one read.  {!Decoder} is therefore a pure incremental
    reassembler — feed it arbitrary fragments, pull complete payloads — so
    the split-point behaviour is unit-testable without a socket
    (see [test/test_service.ml]'s split-point table). *)

val max_frame : int
(** Upper bound on a payload (16 MiB).  A length prefix above this is a
    framing error: stream reassembly cannot be trusted past it, so the
    connection must be torn down. *)

val write : Unix.file_descr -> string -> unit
(** Write one frame (header + payload, single buffer), looping over short
    writes.  @raise Invalid_argument if the payload exceeds {!max_frame}.
    @raise Unix.Unix_error as the underlying [write] does (e.g. [EPIPE]
    on a dead peer — callers own connection-death handling). *)

(** Pure incremental frame reassembly. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed_string : t -> string -> unit
  (** Append a fragment of the byte stream (any split is legal).  [read]
      reads a socket straight into the decoder instead. *)

  val next : t -> (string option, string) result
  (** [Ok (Some payload)] — one complete frame was reassembled (call again:
      a single fragment can complete several frames).  [Ok None] — need
      more bytes.  [Error _] — the stream is unrecoverable (length prefix
      over {!max_frame}); the decoder is poisoned and every further [next]
      returns the same error. *)

  val buffered : t -> int
  (** Bytes fed but not yet returned as frames — nonzero at end-of-stream
      means the peer died mid-frame (a truncated frame). *)
end

val read : Unix.file_descr -> Decoder.t -> (string option, string) result
(** Pull from [fd] until the decoder yields one frame.  [Ok None] is a
    clean end-of-stream (EOF exactly at a frame boundary); EOF mid-frame
    and framing violations are [Error].  [EINTR] is retried; other
    [Unix_error]s are returned as [Error] (reading never raises). *)
