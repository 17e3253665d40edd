module Rng = Fair_crypto.Rng

type t = {
  fd : Unix.file_descr;
  dec : Frame.Decoder.t;
  mutable closed : bool;
}

(* connect(2) under a deadline.  A plain blocking connect to a listening
   Unix socket whose accept queue is full (a SIGSTOP'd or wedged daemon)
   blocks indefinitely — the SO_RCVTIMEO set after it never gets a chance
   to matter.  So establishment itself goes non-blocking: EINPROGRESS
   waits for writability with the remaining budget and reads the verdict
   from SO_ERROR; EAGAIN (how Linux reports a full Unix-socket backlog)
   retries on a short sleep until the deadline. *)
let connect_deadline fd addr ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  Unix.set_nonblock fd;
  let finish_ok () = Unix.clear_nonblock fd in
  let rec attempt () =
    match Unix.connect fd addr with
    | () -> finish_ok (); Ok ()
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> await ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then Error "connection timed out"
        else begin
          Unix.sleepf (Float.min 0.01 left);
          attempt ()
        end
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  and await () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Error "connection timed out"
    else
      match Unix.select [] [ fd ] [] left with
      | [], [], [] -> Error "connection timed out"
      | _ -> (
          match Unix.getsockopt_error fd with
          | None -> finish_ok (); Ok ()
          | Some e -> Error (Unix.error_message e))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  attempt ()

let connect ~socket ?timeout () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let fail msg =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Result.Error (Printf.sprintf "cannot connect to %s: %s" socket msg)
  in
  let addr = Unix.ADDR_UNIX socket in
  let established =
    match timeout with
    | Some s when s > 0. -> connect_deadline fd addr ~timeout_s:s
    | Some _ | None -> (
        match Unix.connect fd addr with
        | () -> Ok ()
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  in
  match established with
  | Error msg -> fail msg
  | Ok () -> (
      match
        match timeout with
        | Some s -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
        | None -> ()
      with
      | () -> Ok { fd; dec = Frame.Decoder.create (); closed = false }
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e))

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let lost reason = Result.Error (Failure.Connection_lost { reason })

let send_request t req =
  if t.closed then lost "connection already closed"
  else
    try
      Frame.write t.fd (Proto.encode_request req);
      Ok ()
    with Unix.Unix_error (e, _, _) -> lost (Unix.error_message e)

let read_response t =
  if t.closed then lost "connection already closed"
  else
    match Frame.read t.fd t.dec with
    | Ok None -> lost "server closed the connection"
    | Result.Error reason ->
        (* The decoder is now sticky-poisoned: whatever the server sent,
           no later frame on this stream can be trusted.  Close eagerly —
           holding a poisoned fd open only delays the EOF the server will
           force anyway, and a retry loop must start from a fresh
           connection, not this one. *)
        close t;
        lost reason
    | Ok (Some payload) -> (
        match Proto.decode_response payload with
        | Ok r -> Ok r
        | Result.Error e ->
            close t;
            lost (Printf.sprintf "undecodable response: %s" e))

(* Stamp a fresh trace context on a query — the client half of end-to-end
   tracing.  Id generation never touches an RNG stream (Fair_obs.Ids), so
   stamping cannot move a certified number. *)
let with_trace (q : Proto.query) =
  {
    q with
    Proto.q_trace_id = Fair_obs.Ids.trace_id ();
    q_span_id = Fair_obs.Ids.span_id ();
  }

let query t ?on_progress q =
  let span_args =
    if q.Proto.q_trace_id = "" then []
    else
      ("trace_id", q.Proto.q_trace_id)
      :: (if q.Proto.q_span_id = "" then [] else [ ("span_id", q.Proto.q_span_id) ])
  in
  (* The client's root span covers the whole round trip — send, queue,
     compute, receive — so a traced request's server-side lanes all nest
     (in wall-clock terms) under this one. *)
  Fair_obs.Trace.with_span ~cat:"client" ~args:span_args "client.query" (fun () ->
      match send_request t (Proto.Query q) with
      | Result.Error _ as e -> e
      | Ok () ->
          let rec pump () =
            match read_response t with
            | Result.Error _ as e -> e
            | Ok (Proto.Progress p) ->
                (match on_progress with Some f -> f p | None -> ());
                pump ()
            | Ok (Proto.Result r) -> Ok r
            | Ok (Proto.Error f) -> Result.Error f
            | Ok (Proto.Pong | Proto.Stats_reply _) ->
                lost "protocol confusion: unexpected frame while awaiting result"
          in
          pump ())

let ping t =
  match send_request t Proto.Ping with
  | Result.Error _ as e -> e
  | Ok () -> (
      match read_response t with
      | Ok Proto.Pong -> Ok ()
      | Ok _ -> lost "protocol confusion: expected pong"
      | Result.Error _ as e -> e)

let stats t =
  match send_request t Proto.Stats with
  | Result.Error _ as e -> e
  | Ok () -> (
      match read_response t with
      | Ok (Proto.Stats_reply j) -> Ok j
      | Ok _ -> lost "protocol confusion: expected stats reply"
      | Result.Error _ as e -> e)

(* ------------------------------- retry -------------------------------- *)

module Retry = struct
  type policy = { retries : int; budget_s : float; base_s : float; cap_s : float }

  let default = { retries = 0; budget_s = 10.; base_s = 0.05; cap_s = 2. }

  (* The retry-safety matrix, in one function.  Retryable means "the
     server either never saw the query, or saw it and will answer the
     same bytes again from the cache":
       - [Connection_lost] — the channel died before a Result arrived.
         Either the query never landed (safe) or it computed and the
         answer is now content-addressed in the cache (safe: the re-ask
         is a hit).  The query layer returns a Result as its final
         answer, so a Connection_lost from [query] is always pre-Result.
       - [Overloaded] — the request was explicitly NOT enqueued.
     Everything else is a deliberate answer: [Unknown_query] and
     [Malformed_frame] will fail identically forever, [Query_failed] is
     deterministic for a given seed, [Deadline_exceeded] spent the
     client's own time budget, and [Draining] means the process is going
     away — hammering it defeats the drain. *)
  let retryable = function
    | Failure.Connection_lost _ | Failure.Overloaded _ -> true
    | Failure.Malformed_frame _ | Failure.Unknown_query _ | Failure.Query_failed _
    | Failure.Deadline_exceeded _ | Failure.Draining _ ->
        false

  (* Uniform float in [lo, hi) from 53 random bits — Rng has no float
     draw, and 53 bits is all a double's mantissa can hold anyway. *)
  let uniform rng ~lo ~hi =
    let u = float_of_int (Rng.bits rng 53) /. 9007199254740992. (* 2^53 *) in
    lo +. (u *. (hi -. lo))

  (* Decorrelated jitter (the AWS Architecture Blog variant):
     [sleep_n = min (cap, uniform (base, 3 * sleep_{n-1}))].  Spreads
     synchronized retry storms like full jitter does, but with a memory
     that backs off geometrically in expectation. *)
  let next_sleep policy rng ~prev = Float.min policy.cap_s (uniform rng ~lo:policy.base_s ~hi:(prev *. 3.))

  let run ~policy ~seed attempt =
    (* The child stream is forced only when a sleep is actually needed:
       with retries off (or an immediate success) no RNG block is ever
       derived, so enabling the retry machinery cannot perturb any other
       consumer of the seed. *)
    let rng = lazy (Rng.split (Rng.of_int_seed seed) ~label:"retry") in
    let rec go ~n ~slept ~prev =
      match attempt ~attempt:n with
      | Ok _ as ok -> ok
      | Result.Error f when (not (retryable f)) || policy.retries = 0 ->
          Result.Error (`Failed f)
      | Result.Error f when n >= policy.retries -> Result.Error (`Exhausted (n + 1, f))
      | Result.Error f ->
          let sleep = next_sleep policy (Lazy.force rng) ~prev in
          if slept +. sleep > policy.budget_s then Result.Error (`Exhausted (n + 1, f))
          else begin
            Unix.sleepf sleep;
            go ~n:(n + 1) ~slept:(slept +. sleep) ~prev:sleep
          end
    in
    go ~n:0 ~slept:0. ~prev:policy.base_s
end
