(** The service's request/response protocol.

    Every message is one {!Frame} payload, itself a two-field
    {!Fair_exec.Wire} frame [[tag; body]] where [body] is compact JSON
    ({!Fairness.Json}) — the same JSON layer every certificate already uses
    is the wire format, so a served certificate is the {e exact} byte
    string the CLI would have written to disk.

    {b Shape-agnosticism.}  The server never interprets a result body: a
    {!result} carries opaque bytes plus the [r_ok] verdict computed at
    answer time, so new certificate shapes (equilibrium certificates,
    partial-fairness tables...) need no protocol change — only a new
    {!kind} mapping to a handler.

    Decoding is total: both decoders return [Error] on any byte string —
    garbage framing, bad JSON, missing fields, unknown tags — and never
    raise, because the peer controls every byte (same boundary discipline
    as {!Fairness.Json.of_string}). *)

type kind = Search | Run

type query = {
  q_kind : kind;
  q_experiment : string;  (** registry id, e.g. "E2" (case-insensitive) *)
  q_budget : int;  (** [Search]: racing trial budget; [Run]: trials *)
  q_seed : int;
  q_zoo : bool;  (** [Search] only: race the fixed zoo as extra arms *)
  q_fresh : bool;  (** bypass the cache (compute and overwrite) *)
  q_trace_id : string;
      (** request trace context ({!Fair_obs.Ids}), [""] = none.  Pure
          observability: excluded from {!cache_key}, never inspected by a
          handler.  Encoded on the wire only when set, and the decoder
          treats an absent, malformed or wrong-width id as [""] — so old
          and new peers interoperate in both directions ({e tolerant
          decode}). *)
  q_span_id : string;  (** client's root span id, [""] = none; same rules *)
  q_deadline : float;
      (** relative deadline in seconds, [0.] = none.  The server sheds the
          query ({!Failure.Deadline_exceeded}) if it is still queued when
          the deadline expires, and stops streaming progress to it once it
          is past due.  Wire rules mirror the trace context: encoded only
          when positive, tolerated as absent/malformed/non-finite on
          decode (all read as [0.]), excluded from {!cache_key} — a
          deadline changes when the answer is wanted by, not what it is. *)
  q_attempt : int;
      (** client retry attempt number, [0] = first try.  Observability
          only (surfaces in the qlog wide event): never inspected by
          scheduling, caching or handlers.  Same wire tolerance; negative
          or malformed values decode as [0]. *)
}

type request = Query of query | Stats | Ping

type progress = { p_after : int; p_batch : int; p_mean : float; p_std_err : float }
(** One Monte-Carlo convergence point of this query's own computation,
    relayed from its {!Fair_obs.Scope} sink while it computes. *)

type result = {
  r_cached : bool;  (** answered from the certificate cache *)
  r_key : string;  (** the content address (hex SHA-256) *)
  r_ok : bool;  (** certificate verdict: within bound / all checks pass *)
  r_body : string;  (** the certificate bytes, byte-identical to a CLI run *)
  r_trace_id : string;
      (** echo of the query's trace id ([""] when the query carried none) —
          lets a client assert end-to-end propagation without parsing a
          trace file.  Same wire tolerance as {!query.q_trace_id}. *)
}

type response =
  | Progress of progress
  | Result of result
  | Error of Failure.t
  | Stats_reply of Fairness.Json.t
  | Pong

val cache_key : query -> string
(** The content address: hex SHA-256 of the {!Fair_exec.Wire}-framed tuple
    (key-schema tag, {!Version.code_version}, kind, uppercased experiment
    id, budget, seed, zoo).  [q_fresh] is excluded (it changes caching, not
    content); [jobs] is excluded by design — parallelism never changes the
    numbers, so it must not change the address; the trace-context fields
    are excluded because two requests asking the same question must share
    an answer no matter who asked or how it was traced. *)

val kind_to_string : kind -> string

val encode_request : request -> string
val decode_request : string -> (request, string) Stdlib.result
val encode_response : response -> string
val decode_response : string -> (response, string) Stdlib.result
