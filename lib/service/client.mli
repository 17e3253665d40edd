(** The service client: connect, query, stream progress.

    Every operation is total over the connection's fate: a dead socket, a
    timeout, a server that hangs up mid-stream all come back as
    [Error Connection_lost] — callers never see [Unix_error] or a
    backtrace, which is what lets the CLI turn any of them into a clean
    exit 1 with a one-line message. *)

type t

val connect : socket:string -> ?timeout:float -> unit -> (t, string) Stdlib.result
(** Connect to the daemon's Unix-domain socket.  [timeout] (seconds)
    bounds {e connection establishment itself} — a listening-but-
    never-accepting peer (full backlog, SIGSTOP'd daemon) returns
    ["connection timed out"] instead of blocking in [connect(2)] forever —
    and every subsequent read, so a wedged server becomes
    [Connection_lost], not a hang.  The [Error] string is human-ready
    ("cannot connect to ...: No such file or directory"). *)

val close : t -> unit
(** Idempotent. *)

val send_request : t -> Proto.request -> (unit, Failure.t) Stdlib.result
val read_response : t -> (Proto.response, Failure.t) Stdlib.result
(** The raw halves, exposed for tests that need to interleave requests;
    [read_response] returns [Error Connection_lost] on EOF, timeout, or an
    undecodable reply.  A framing error or undecodable reply also closes
    the fd {e eagerly}: the decoder is sticky-poisoned at that point, so
    no later frame on the stream could be trusted anyway, and a retry must
    start from a fresh connection. *)

val with_trace : Proto.query -> Proto.query
(** The query with a fresh trace context stamped on it
    ({!Fair_obs.Ids.trace_id}/{!Fair_obs.Ids.span_id}) — what [fairness
    query] sends so one [--trace] export stitches client, queue and worker
    spans into one lane set.  Generation never touches an RNG stream. *)

val query :
  t ->
  ?on_progress:(Proto.progress -> unit) ->
  Proto.query ->
  (Proto.result, Failure.t) Stdlib.result
(** Send one query and pump the stream: progress frames go to
    [on_progress], the final certificate frame is returned.  Any in-band
    server failure ([Overloaded], [Unknown_query], ...) is the [Error].
    When tracing is enabled the round trip is recorded as a
    [client.query] span carrying the query's trace id (if any). *)

val ping : t -> (unit, Failure.t) Stdlib.result
val stats : t -> (Fairness.Json.t, Failure.t) Stdlib.result

(** Deterministic retry with capped exponential backoff and decorrelated
    jitter.

    The policy retries only {e idempotent-safe} outcomes: failures where
    the server either never accepted the query ([Overloaded], a dead
    socket at connect) or where re-asking is answered from the
    content-addressed cache ([Connection_lost] before a [Result] — and a
    [Result] is always the query's final frame, so any [Connection_lost]
    out of {!Client.query} is pre-Result by construction).  Everything
    else is a deliberate answer that would repeat identically, or —
    [Deadline_exceeded], [Draining] — a signal that retrying is the wrong
    move.

    Sleeps are {b bit-reproducible}: drawn from a dedicated
    [Rng.split ~label:"retry"] child of the query seed, forced lazily on
    the first actual sleep — with retries off, or when the first attempt
    succeeds, zero RNG blocks are consumed, so the retry machinery cannot
    perturb any other consumer of the seed. *)
module Retry : sig
  type policy = {
    retries : int;  (** max {e re}-attempts after the first try; 0 = off *)
    budget_s : float;  (** total backoff sleep allowed across all retries *)
    base_s : float;  (** minimum (and first) sleep *)
    cap_s : float;  (** per-sleep ceiling *)
  }

  val default : policy
  (** [{ retries = 0; budget_s = 10.; base_s = 0.05; cap_s = 2. }] —
      retries off until the caller asks. *)

  val retryable : Failure.t -> bool
  (** The retry-safety matrix: [Connection_lost] and [Overloaded] only. *)

  val run :
    policy:policy ->
    seed:int ->
    (attempt:int -> ('r, Failure.t) Stdlib.result) ->
    ('r, [ `Failed of Failure.t | `Exhausted of int * Failure.t ]) Stdlib.result
  (** Run [attempt ~attempt:0], then on each retryable failure sleep
      [min cap (uniform (base, 3 * prev_sleep))] (decorrelated jitter) and
      try again with the next attempt number.  [`Failed f] = a
      non-retryable failure, or retries are off; [`Exhausted (n, f)] = [n]
      attempts were made and the attempt cap or sleep budget ran out —
      the caller's distinct "retries exhausted" exit path.  The attempt
      callback owns connection lifecycle (each attempt should connect
      afresh: a failed attempt's socket is already poisoned or dead). *)
end
