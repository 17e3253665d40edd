(** Monotonic-clock span tracing with per-domain buffers.

    [with_span name fn] times [fn] on {!Clock} and records a {e complete}
    span on the calling domain's private buffer — no locks, no cross-domain
    traffic on the hot path.  Spans nest naturally: Chrome's trace viewer
    reconstructs the stack per lane from timestamp containment, and each
    domain is one lane ({!Domain_id}).  {!export} merges the buffers in
    domain-index order; {!Fairness.Obs_json.trace_document} turns the
    result into Chrome trace-event JSON loadable in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}.

    {b Zero perturbation.}  Tracing reads the clock and appends to a
    buffer; it never touches an RNG stream or a scheduling decision, so
    every estimate and certificate is bit-identical with tracing on or off
    (enforced by [test/test_obs.ml]).  Disabled (the default), [with_span]
    is an atomic load, a branch, and a call of [fn].

    Buffers are bounded ([max_events_per_domain], default 4M): beyond the
    bound events are counted in {!dropped} instead of stored, so a
    long-running traced process degrades to truncation, not OOM.

    Buffers are additionally safe against {e systhreads}: every thread of a
    domain shares that domain's buffer, so recording takes a per-buffer
    mutex — only while tracing is enabled (the disabled path is still an
    atomic load and a branch), and per-buffer, so domains never contend.

    Every event recorded under a {!Scope} carries the scope's args after
    its own — how a request's trace id reaches the engine and Monte-Carlo
    spans it causes, on whichever domain they run. *)

type phase =
  | Span of int  (** complete span; payload = duration in ns *)
  | Instant

type event = {
  name : string;
  cat : string;  (** Chrome trace category; defaults to ["app"] *)
  tid : int;  (** recording domain's {!Domain_id} *)
  ph : phase;
  ts_ns : int;  (** {!Clock.now_ns} at span start / instant *)
  args : (string * string) list;
}

val enabled : unit -> bool

val enable : ?max_events_per_domain:int -> unit -> unit
(** Start recording.  Previously recorded events are kept; call {!clear}
    first for a fresh trace. *)

val disable : unit -> unit
(** Stop recording; buffered events stay available to {!export}. *)

val clear : unit -> unit
(** Drop all buffered events and reset {!dropped}. *)

val with_span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the function inside a named span.  The span is recorded even when
    the function raises (the exception is re-raised). *)

val emit_span : ?cat:string -> ?args:(string * string) list -> string -> ts_ns:int -> dur_ns:int -> unit
(** Record an externally-timed span — for call sites that already measured
    [ts]/[dur] for other accounting (e.g. the pool's busy/idle clocks) and
    must not pay a second pair of clock reads. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** A zero-duration marker. *)

val export : unit -> event list
(** All buffered events, buffers merged in domain-index order (within one
    domain, in recording order). *)

val recent : limit:int -> unit -> event list
(** The last [limit] events of {e each} domain (merged in domain-index
    order, chronological within a domain) — the flight-recorder view.
    Cost is O(limit × domains) regardless of buffer population. *)

val dropped : unit -> int
(** Events discarded because a domain's buffer hit its bound. *)
