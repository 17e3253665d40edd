module Json = Fairness.Json
module Wire = Fair_exec.Wire
module Sha256 = Fair_crypto.Sha256

type kind = Search | Run

type query = {
  q_kind : kind;
  q_experiment : string;
  q_budget : int;
  q_seed : int;
  q_zoo : bool;
  q_fresh : bool;
  q_trace_id : string;
  q_span_id : string;
  q_deadline : float;
  q_attempt : int;
}

type request = Query of query | Stats | Ping

type progress = { p_after : int; p_batch : int; p_mean : float; p_std_err : float }

type result = {
  r_cached : bool;
  r_key : string;
  r_ok : bool;
  r_body : string;
  r_trace_id : string;
}

type response =
  | Progress of progress
  | Result of result
  | Error of Failure.t
  | Stats_reply of Json.t
  | Pong

let kind_to_string = function Search -> "search" | Run -> "run"

let kind_of_string = function
  | "search" -> Ok Search
  | "run" -> Ok Run
  | s -> Result.Error (Printf.sprintf "unknown query kind %S (expected search|run)" s)

(* The content address.  Uppercasing the experiment id folds the registry's
   case-insensitive lookup into the key, so "e2" and "E2" are the same
   question and hit the same entry. *)
let cache_key q =
  Sha256.hex_digest
    (Wire.frame
       [ Version.key_schema;
         Version.code_version;
         kind_to_string q.q_kind;
         String.uppercase_ascii q.q_experiment;
         string_of_int q.q_budget;
         string_of_int q.q_seed;
         (if q.q_zoo then "1" else "0") ])

(* ------------------------------ encoding ----------------------------- *)

let compact j = Json.to_string ~indent:false j

let msg tag body = Wire.frame [ tag; compact body ]

(* Trace-context fields ride the wire only when set: a query without them
   encodes byte-identically to what a pre-trace client sends, which is the
   forward half of the compatibility story (the backward half is the
   tolerant decode below). *)
let trace_fields tid sid =
  (if tid = "" then [] else [ ("trace_id", Json.Str tid) ])
  @ if sid = "" then [] else [ ("span_id", Json.Str sid) ]

(* Resilience fields follow the same rule: a query without a deadline and
   on its first attempt encodes byte-identically to a pre-resilience
   client's bytes.  Like the trace context, both are excluded from
   [cache_key] — a deadline changes when the answer is wanted by, never
   what the answer is. *)
let resilience_fields deadline attempt =
  (if deadline > 0. && Float.is_finite deadline then [ ("deadline", Json.Num deadline) ]
   else [])
  @ if attempt > 0 then [ ("attempt", Json.num_int attempt) ] else []

let encode_request = function
  | Query q ->
      msg "query"
        (Json.Obj
           ([ ("v", Json.Str Version.wire_version);
              ("kind", Json.Str (kind_to_string q.q_kind));
              ("experiment", Json.Str q.q_experiment);
              ("budget", Json.num_int q.q_budget);
              ("seed", Json.num_int q.q_seed);
              ("zoo", Json.Bool q.q_zoo);
              ("fresh", Json.Bool q.q_fresh) ]
           @ trace_fields q.q_trace_id q.q_span_id
           @ resilience_fields q.q_deadline q.q_attempt))
  | Stats -> msg "stats" (Json.Obj [ ("v", Json.Str Version.wire_version) ])
  | Ping -> msg "ping" (Json.Obj [ ("v", Json.Str Version.wire_version) ])

let encode_response = function
  | Progress p ->
      msg "progress"
        (Json.Obj
           [ ("after", Json.num_int p.p_after);
             ("batch", Json.num_int p.p_batch);
             ("mean", Json.Num p.p_mean);
             ("std_err", Json.Num p.p_std_err) ])
  | Result r ->
      msg "result"
        (Json.Obj
           ([ ("cached", Json.Bool r.r_cached);
              ("key", Json.Str r.r_key);
              ("ok", Json.Bool r.r_ok);
              ("body", Json.Str r.r_body) ]
           @ trace_fields r.r_trace_id ""))
  | Error f -> msg "error" (Failure.to_json f)
  | Stats_reply j -> msg "stats" j
  | Pong -> msg "pong" (Json.Obj [])

(* An untraced result's JSON ends with the object's closing brace, and the
   traced one differs only by the member before it; the wire escape maps
   each byte on its own, so the member can be escaped apart and appended. *)
let with_trace_id frame tid =
  if tid = "" then frame
  else
    let member = compact (Json.Obj (trace_fields tid "")) in
    String.sub frame 0 (String.length frame - 1)
    ^ Wire.frame [ "," ^ String.sub member 1 (String.length member - 1) ]

(* ------------------------------ decoding ----------------------------- *)

(* Both decoders are total: the peer controls every byte, so a failure at
   any layer — Wire unframing, JSON parsing, field extraction — becomes a
   typed [Error], never an exception. *)

let split payload =
  match Wire.unframe payload with
  | [ tag; body ] -> Ok (tag, body)
  | fields -> Result.Error (Printf.sprintf "expected 2 wire fields, got %d" (List.length fields))
  | exception Invalid_argument m -> Result.Error m

(* Trace context decodes tolerantly in both directions: a frame without the
   fields (an old client or server) reads as "no trace", and a malformed or
   wrong-width id reads the same way — observability metadata must never be
   able to fail a request that is otherwise well-formed. *)
let trace_of ~valid key j =
  match Json.member_opt key j with Some (Json.Str s) when valid s -> s | _ -> ""

let trace_id_of j = trace_of ~valid:Fair_obs.Ids.valid_trace_id "trace_id" j
let span_id_of j = trace_of ~valid:Fair_obs.Ids.valid_span_id "span_id" j

(* Same tolerance for the resilience metadata: absent, malformed or
   out-of-range values read as "none" rather than failing the request —
   an old peer must keep interoperating, and a hostile peer must not be
   able to smuggle NaN deadlines into scheduler arithmetic. *)
let deadline_of j =
  match Json.member_opt "deadline" j with
  | Some (Json.Num d) when Float.is_finite d && d > 0. -> d
  | _ -> 0.

let attempt_of j =
  match Option.map Json.to_int (Json.member_opt "attempt" j) with
  | Some (Ok a) when a > 0 -> a
  | _ -> 0

let ( let* ) = Json.( let* )

(* A required member through its converter; [Bad] carries the error text,
   so a decoder reads its members in order without a closure per member. *)
exception Bad of string

let required conv k j =
  match Result.bind (Json.member k j) conv with Ok x -> x | Result.Error e -> raise (Bad e)

let kind_of_json v = Result.bind (Json.to_str v) kind_of_string

let decode_body body decode =
  match Json.of_string body with
  | Result.Error e -> Result.Error e
  | Ok j -> ( try decode j with Bad e -> Result.Error e)

let decode_request payload =
  let* tag, body = split payload in
  match tag with
  | "stats" -> Ok Stats
  | "ping" -> Ok Ping
  | "query" ->
      decode_body body (fun j ->
          let kind = required kind_of_json "kind" j in
          let experiment = required Json.to_str "experiment" j in
          let budget = required Json.to_int "budget" j in
          let seed = required Json.to_int "seed" j in
          let zoo = required Json.to_bool "zoo" j in
          let fresh = required Json.to_bool "fresh" j in
          if budget < 1 then Result.Error "budget < 1"
          else
            Ok
              (Query
                 { q_kind = kind;
                   q_experiment = experiment;
                   q_budget = budget;
                   q_seed = seed;
                   q_zoo = zoo;
                   q_fresh = fresh;
                   q_trace_id = trace_id_of j;
                   q_span_id = span_id_of j;
                   q_deadline = deadline_of j;
                   q_attempt = attempt_of j }))
  | other -> Result.Error (Printf.sprintf "unknown request tag %S" other)

let decode_response payload =
  let* tag, body = split payload in
  match tag with
  | "pong" -> Ok Pong
  | "stats" -> decode_body body (fun j -> Ok (Stats_reply j))
  | "progress" ->
      decode_body body (fun j ->
          let after = required Json.to_int "after" j in
          let batch = required Json.to_int "batch" j in
          let mean = required Json.to_float "mean" j in
          let std_err = required Json.to_float "std_err" j in
          Ok (Progress { p_after = after; p_batch = batch; p_mean = mean; p_std_err = std_err }))
  | "result" ->
      decode_body body (fun j ->
          let cached = required Json.to_bool "cached" j in
          let key = required Json.to_str "key" j in
          let ok = required Json.to_bool "ok" j in
          let bbody = required Json.to_str "body" j in
          Ok
            (Result
               { r_cached = cached;
                 r_key = key;
                 r_ok = ok;
                 r_body = bbody;
                 r_trace_id = trace_id_of j }))
  | "error" -> decode_body body (fun j -> Result.map (fun f -> Error f) (Failure.of_json j))
  | other -> Result.Error (Printf.sprintf "unknown response tag %S" other)
