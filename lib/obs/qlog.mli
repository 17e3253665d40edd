(** The wide query log: one structured event per completed service request.

    {!Metrics} aggregates and {!Trace} times, but neither answers "what
    happened to {e this} query" — which cache tier served it, how long it
    queued, which worker ran it, how many Monte-Carlo trials it burned,
    why it failed.  A qlog event is that answer: one flat record per
    completed request, wide enough to debug from alone.

    Events land in a bounded in-memory ring (default 512 — the flight
    recorder reads {!recent} for its postmortem dumps) and, when a sink is
    attached ([serve --qlog FILE]), are mirrored as one JSON object per
    line (JSONL), flushed per line so the file can be tailed live.  Lines
    parse back through [Fairness.Json] (round-trip-tested).

    {b Zero perturbation.}  Recording happens after the response is
    delivered, touches no RNG stream and no scheduling decision, and the
    disabled path is one atomic load — certificates are bit-identical with
    qlog on or off. *)

type event = {
  ts_ns : int;  (** completion time on the monotonic clock *)
  trace_id : string;  (** 32-hex request id; "" when the client sent none *)
  span_id : string;  (** client's root span id; "" when absent *)
  kind : string;  (** query kind: ["search"], ["montecarlo"], ["ping"], … *)
  experiment : string;
  key : string;  (** content-address; "" when the request never got one *)
  tier : string;  (** ["mem" | "disk" | "cold" | "coalesced"]; "" = n/a *)
  client : int;
  worker : int;  (** executor domain id; [-1] = answered on the reader thread *)
  queue_s : float;  (** admission → dispatch; [0.] for direct answers *)
  wall_s : float;  (** request receipt → response delivered *)
  deadline_s : float;
      (** the query's relative deadline in seconds; [0.] = the client set
          none *)
  attempt : int;  (** the client's retry attempt number ([0] = first try) *)
  trials : int;  (** this request's [mc.trials]: a search's [spent] *)
  counters : (string * int) list;  (** its {!Scope}'s [engine.*]/[mc.*]/[race.*] *)
  outcome : string;
      (** ["ok" | "bound-violation"], a {!Failure} code, or a resilience
          verdict: ["shed"] (deadline expired while queued), ["drained"]
          (refused during graceful drain), ["retried_by_client"] (the
          answer was computed but its connection was already gone — a
          retrying client will re-ask and hit the cache) *)
}

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Start recording.  [capacity] resizes the ring (and clears it) when it
    differs from the current size; raises [Invalid_argument] if [< 1]. *)

val disable : unit -> unit
(** Stop recording; the ring stays readable via {!recent}. *)

val set_sink : out_channel option -> unit
(** Mirror subsequent events to the channel as JSONL, one flushed line per
    event.  The caller owns the channel (qlog never closes it); pass
    [None] before closing.  Write errors are swallowed — a dead log file
    must never take a request down. *)

val record : event -> unit
(** Append to the ring (and sink, if any).  No-op while disabled.
    Thread- and domain-safe. *)

val recent : unit -> event list
(** The ring's contents, oldest first — at most [capacity] events. *)

val recorded : unit -> int
(** Total events recorded since the last {!clear} (not capped by the ring:
    the high-water count, not the retained count). *)

val clear : unit -> unit

val to_json_line : event -> string
(** The single-line JSON rendering used for the sink — exposed so the
    flight recorder and tests share the exact wire format. *)
