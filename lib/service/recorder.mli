(** The flight recorder: a postmortem dump of the server's recent past.

    The raw material is already being kept — the {!Fair_obs.Qlog} ring
    holds the last N completed requests and {!Fair_obs.Trace} buffers the
    recent spans.  This module is the dump path: on demand ({!dump}) it
    gathers both windows plus a metrics snapshot into one self-contained
    [fairness-flight/1] JSON document and publishes it atomically
    (tmp + rename) at a fixed path.

    The server dumps on [Query_failed] answers, on [Malformed_frame]
    teardowns, on [SIGUSR1] (via the CLI) and on clean shutdown.
    Last-writer-wins on purpose: a crash loop must not fill the disk, and
    the dump nearest the final failure is the one a postmortem wants — the
    in-document [seq]/[reason] fields say how many dumps happened and why
    the surviving one was written.  Dump failures (full disk, bad path)
    are swallowed: the recorder exists to explain incidents, never to
    cause one. *)

type t

val create : path:string -> ?span_limit:int -> unit -> t
(** [span_limit] (default 256) caps the trace spans gathered {e per
    domain} into each dump.
    @raise Invalid_argument if [span_limit < 0]. *)

val path : t -> string

val dump : t -> reason:string -> unit
(** Write the document now: schema/version header, the qlog window
    ({!Fairness.Obs_json.qlog_event} per entry), recent spans as a
    Chrome-trace object, and the metrics snapshot with derived
    percentiles.  Thread- and domain-safe; never raises. *)
