(** The service's structured failure taxonomy.

    Mirrors the engine's ({!Fair_exec.Engine.failure}) in spirit: every way
    a request can go wrong maps to one typed constructor with enough
    context to act on, and the containment story is explicit per
    constructor.  {!Malformed_frame} is the channel-level analogue of the
    engine's [Malformed_message]: the offending {e connection} collapses
    (the server answers with the structured error, then closes it), and
    every other connection is untouched — fault isolation at the
    connection boundary instead of the party boundary.  {!Overloaded} is
    backpressure made loud: the bounded queue refuses with the depth it
    refused at, never by silently dropping the request. *)

type t =
  | Malformed_frame of { seq : int; reason : string }
      (** Frame [seq] (1-based per connection) failed framing, request
          decoding or JSON parsing.  The stream can no longer be trusted;
          the connection is closed after this answer. *)
  | Unknown_query of { reason : string }
      (** Well-formed but unanswerable: unknown experiment id, or a search
          against an experiment with no adversary supremum.  A usage error
          — the connection stays open. *)
  | Overloaded of { depth : int; limit : int }
      (** The admission queue was full ([depth] pending ≥ [limit]).  The
          request was {e not} enqueued; retry later.  Connection stays
          open. *)
  | Query_failed of { reason : string }
      (** The computation itself raised (fault-budget overrun, engine
          violation surfacing through an estimate...).  Connection stays
          open. *)
  | Connection_lost of { reason : string }
      (** Client-side classification of a dead or timed-out channel; the
          server never sends this. *)
  | Deadline_exceeded of { waited_s : float; deadline_s : float }
      (** The query carried a relative deadline ([deadline_s]) and the
          server could not start (or finish delivering) it in time: it had
          already waited [waited_s] when the scheduler shed it.  The work
          was {e not} run; the connection stays open.  Re-asking is always
          safe (content addressing), but blind retry is usually wrong —
          the deadline was the client's own budget. *)
  | Draining of { reason : string }
      (** The server is gracefully draining (SIGTERM): inflight work
          finishes, new admissions are refused with this answer.
          Connection stays open until drain completes.  Not auto-retried
          by {!Client.Retry} — the process is going away; the caller
          should redirect, not hammer a dying server. *)

val code : t -> string
(** Stable machine-readable tag: ["malformed-frame"], ["unknown-query"],
    ["overloaded"], ["query-failed"], ["connection-lost"],
    ["deadline-exceeded"], ["draining"]. *)

val to_string : t -> string
(** One human-readable line. *)

val to_json : t -> Fairness.Json.t
val of_json : Fairness.Json.t -> (t, string) result
