(* @service-smoke — the certificate server end to end, in-process:

     1. cold query  → computed (not cached), progress frames streamed;
        the query carries a client-stamped trace context which the result
        frame echoes back;
     2. warm query  → cache hit, byte-identical, answered without the
        scheduler or the domain pool moving (asserted on the server's own
        stats: cache.hits +1, pool counters frozen);
     3. byte identity → the same query computed inline (`query
        --no-daemon` path) at two different -j values matches the served
        bytes exactly;
     4. fault isolation → a raw-socket peer sending a query frame whose
        payload is cut short gets a structured `malformed-frame` error
        while a concurrent clean connection's cold query completes
        correctly, and a peer that dies mid-frame (a ping, then half a
        query frame, then close) leaves the server serving;
     5. observability acceptance → the whole run happens with tracing,
        metrics and the query log switched ON; afterwards the exported
        Chrome trace must contain client.query, service.queue and
        service.exec spans all tagged with the cold query's trace id (one
        lane set per query in Perfetto), and race.pull spans tagged with
        it on more than one domain (the server runs -j 2, so the request
        scope must follow the racer onto pool domains); the qlog JSONL
        must hold a "cold" line with queue latency, the request's own
        engine counters and a trial count equal to the certificate's
        spent budget, plus a "mem" line for the warm hit; and a final
        obs-OFF inline recompute must reproduce the served bytes exactly
        (zero perturbation).

   Exit 0 only if every assertion holds. *)

module S = Fair_service
module Json = Fairness.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("service-smoke: FAIL — " ^ m);
      exit 1)
    fmt

let member k = function
  | Json.Obj kv -> (
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> fail "stats reply has no %S field" k)
  | _ -> fail "stats reply is not an object"

let int_member k j =
  match Json.to_int (member k j) with
  | Ok n -> n
  | Result.Error e -> fail "stats field %S: %s" k e

let query =
  {
    S.Proto.q_kind = S.Proto.Search;
    q_experiment = "E1";
    q_budget = 2000;
    q_seed = 42;
    q_zoo = false;
    q_fresh = false;
    q_trace_id = "";
    q_span_id = "";
    q_deadline = 0.;
    q_attempt = 0;
  }

let connect ~socket () =
  match S.Client.connect ~socket ~timeout:120.0 () with
  | Ok c -> c
  | Result.Error e -> fail "%s" e

(* A misbehaving peer: a bare socket that writes whatever it likes. *)
let raw_peer ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
  fd

(* The next reply on a raw peer's socket; [None] once the server hung up. *)
let read_reply fd =
  match S.Frame.read fd (S.Frame.Decoder.create ()) with
  | Ok (Some payload) -> Some (S.Proto.decode_response payload)
  | Ok None | Result.Error _ -> None

let () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fair-svc-%d.sock" (Unix.getpid ()))
  in
  (* Observability ON for the whole run — the acceptance bar is that every
     assertion below still holds, and section 5 then checks the artifacts
     and the zero-perturbation pairing. *)
  let qlog_path = "svc-qlog.jsonl" in
  let trace_path = "svc-trace.json" in
  Fair_obs.Trace.enable ();
  Fair_obs.Metrics.enable ();
  Fair_obs.Qlog.enable ();
  let qlog_oc = open_out qlog_path in
  Fair_obs.Qlog.set_sink (Some qlog_oc);
  let cache = S.Cache.create ~capacity:8 ~dir:"svc-cache" () in
  let server = S.Server.start ~socket ~cache ~queue_limit:8 ~jobs:2 () in

  (* 1 — cold query: computed, progress streamed, trace context echoed. *)
  let c1 = connect ~socket () in
  let traced = S.Client.with_trace query in
  let tid = traced.S.Proto.q_trace_id in
  let progress = ref 0 in
  let r1 =
    match S.Client.query c1 ~on_progress:(fun _ -> incr progress) traced with
    | Ok r -> r
    | Result.Error f -> fail "cold query: %s" (S.Failure.to_string f)
  in
  if r1.S.Proto.r_cached then fail "cold query claimed to be a cache hit";
  if !progress = 0 then fail "no progress frames streamed during the cold query";
  if r1.S.Proto.r_trace_id <> tid then
    fail "result frame did not echo the query's trace id (sent %s, got %s)" tid
      r1.S.Proto.r_trace_id;

  (* 2 — warm query: a hit, byte-identical, pool and scheduler untouched. *)
  let stats_before =
    match S.Client.stats c1 with
    | Ok j -> j
    | Result.Error f -> fail "stats: %s" (S.Failure.to_string f)
  in
  let r2 =
    match S.Client.query c1 query with
    | Ok r -> r
    | Result.Error f -> fail "warm query: %s" (S.Failure.to_string f)
  in
  if not r2.S.Proto.r_cached then fail "repeated query was not served from the cache";
  if r2.S.Proto.r_body <> r1.S.Proto.r_body then
    fail "cached certificate differs from the computed one";
  if r2.S.Proto.r_key <> r1.S.Proto.r_key then fail "cache key changed between identical queries";
  let stats_after =
    match S.Client.stats c1 with
    | Ok j -> j
    | Result.Error f -> fail "stats: %s" (S.Failure.to_string f)
  in
  let hits_delta =
    int_member "hits" (member "cache" stats_after) - int_member "hits" (member "cache" stats_before)
  in
  if hits_delta < 1 then fail "service.cache.hits did not increase on the warm query";
  let pool_frozen =
    Json.to_string (member "pool" stats_before) = Json.to_string (member "pool" stats_after)
  in
  if not pool_frozen then fail "the warm query touched the domain pool";

  (* 3 — byte identity with the inline (--no-daemon) path, at two -j values. *)
  let inline jobs =
    match S.Handlers.answer ~jobs query with
    | Ok (body, _) -> body
    | Result.Error f -> fail "inline compute: %s" (S.Failure.to_string f)
  in
  if inline 2 <> r1.S.Proto.r_body then fail "socket and inline bytes differ";
  if inline 1 <> r1.S.Proto.r_body then fail "inline bytes depend on -j";

  (* 4a — a query frame whose payload is cut short: structured error on
     that connection, while a concurrent clean connection's cold query
     completes. *)
  let clean_result = ref None in
  let clean_thread =
    Thread.create
      (fun () ->
        let c = connect ~socket () in
        let q2 = { query with S.Proto.q_experiment = "E2" } in
        clean_result := Some (S.Client.query c q2);
        S.Client.close c)
      ()
  in
  let payload = S.Proto.encode_request (S.Proto.Query query) in
  let bad = raw_peer ~socket in
  S.Frame.write bad (String.sub payload 0 (String.length payload / 2));
  (match read_reply bad with
  | Some (Ok (S.Proto.Error (S.Failure.Malformed_frame _))) -> ()
  | None -> ()  (* teardown raced the error frame *)
  | Some (Ok (S.Proto.Error f)) ->
      fail "truncated frame: unexpected failure %s" (S.Failure.to_string f)
  | Some (Ok _) -> fail "a truncated frame was still answered"
  | Some (Result.Error e) -> fail "truncated frame: undecodable reply: %s" e);
  Unix.close bad;
  Thread.join clean_thread;
  (match !clean_result with
  | Some (Ok r) when not r.S.Proto.r_cached -> ()
  | Some (Ok _) -> fail "concurrent clean query unexpectedly cached"
  | Some (Result.Error f) ->
      fail "clean connection failed alongside the faulty one: %s" (S.Failure.to_string f)
  | None -> fail "clean connection never answered");

  (* 4b — a client that dies mid-frame: a ping, then half a query frame,
     then gone.  The server must keep serving. *)
  let crash = raw_peer ~socket in
  S.Frame.write crash (S.Proto.encode_request S.Proto.Ping);
  (match read_reply crash with
  | Some (Ok S.Proto.Pong) -> ()
  | _ -> fail "pre-crash ping was not answered");
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
  let half = Bytes.to_string header ^ String.sub payload 0 (String.length payload / 2) in
  ignore (Unix.write_substring crash half 0 (String.length half));
  Unix.close crash;
  (match S.Client.ping c1 with
  | Ok () -> ()
  | Result.Error f -> fail "server down after client crash: %s" (S.Failure.to_string f));

  S.Client.close c1;
  S.Server.stop server;

  (* 5 — observability acceptance: artifacts + zero perturbation. *)
  Fair_obs.Qlog.set_sink None;
  close_out qlog_oc;
  Fair_obs.Trace.disable ();
  Fair_obs.Metrics.disable ();
  Fair_obs.Qlog.disable ();

  (* 5a — one trace file, one lane set per query: the client round trip,
     the queue wait and the executor compute all carry the cold query's
     trace id. *)
  Fairness.Obs_json.write ~path:trace_path (Fairness.Obs_json.trace_document ());
  let events = Fair_obs.Trace.export () in
  let tagged name =
    List.exists
      (fun (e : Fair_obs.Trace.event) ->
        e.Fair_obs.Trace.name = name
        && List.assoc_opt "trace_id" e.Fair_obs.Trace.args = Some tid)
      events
  in
  List.iter
    (fun name ->
      if not (tagged name) then
        fail "trace export has no %S span carrying trace id %s" name tid)
    [ "client.query"; "service.queue"; "service.exec" ];
  let pull_domains =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Fair_obs.Trace.event) ->
           if
             e.Fair_obs.Trace.name = "race.pull"
             && List.assoc_opt "trace_id" e.Fair_obs.Trace.args = Some tid
           then Some e.Fair_obs.Trace.tid
           else None)
         events)
  in
  if List.length pull_domains < 2 then
    fail "race.pull spans carry trace id %s on %d domain(s); the -j 2 pool must give 2"
      tid (List.length pull_domains);
  (match Fairness.Json.of_string (In_channel.with_open_bin trace_path In_channel.input_all) with
  | Ok _ -> ()
  | Result.Error e -> fail "written trace file does not parse: %s" e);

  (* 5b — the wide query log: a "cold" line for the computed query with
     queue latency and engine counter deltas, a "mem" line for the warm
     hit. *)
  let qlog_lines =
    In_channel.with_open_bin qlog_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match Json.of_string l with
           | Ok j -> j
           | Result.Error e -> fail "qlog line does not parse: %s: %s" e l)
  in
  let str k j = match Json.to_str (member k j) with Ok s -> s | Result.Error e -> fail "qlog %S: %s" k e in
  let tiers = List.map (fun j -> str "tier" j) qlog_lines in
  let cold_line =
    match List.find_opt (fun j -> str "tier" j = "cold" && str "trace_id" j = tid) qlog_lines with
    | Some j -> j
    | None -> fail "qlog has no cold-tier line for trace id %s (tiers seen: %s)" tid
                (String.concat "," tiers)
  in
  (match member "queue_s" cold_line with
  | Json.Num q when q >= 0.0 -> ()
  | _ -> fail "cold qlog line has no numeric queue latency");
  (match member "counters" cold_line with
  | Json.Obj kv
    when List.exists
           (fun (k, _) ->
             List.exists
               (fun p -> String.length k > String.length p && String.sub k 0 (String.length p) = p)
               [ "engine."; "mc."; "race." ])
           kv -> ()
  | _ -> fail "cold qlog line carries no engine counter deltas");
  let spent =
    match Result.bind (Json.of_string r1.S.Proto.r_body) (fun c -> Json.member "spent" c) with
    | Ok v -> ( match Json.to_int v with Ok n -> n | Result.Error e -> fail "certificate spent: %s" e)
    | Result.Error e -> fail "cold certificate: %s" e
  in
  if int_member "trials" cold_line <> spent then
    fail "cold qlog line counts %d trials, the certificate spent %d"
      (int_member "trials" cold_line) spent;
  if str "outcome" cold_line <> "ok" then
    fail "cold query's qlog outcome is %S, expected ok" (str "outcome" cold_line);
  if not (List.mem "mem" tiers) then fail "warm hit left no mem-tier qlog line";

  (* 5c — paired obs-OFF recompute: the exact bytes the instrumented
     server served. *)
  if inline 2 <> r1.S.Proto.r_body then
    fail "inline recompute with observability off differs from the served bytes";

  Printf.printf
    "service-smoke: OK — cold compute streamed %d progress frames; warm query was a cache hit \
     (+%d hits, pool frozen) with byte-identical certificate; inline bytes match at -j 1 and \
     -j 2; truncated frame and mid-frame client death stayed isolated to their connections; \
     trace %s carries client/queue/exec lanes for trace id %s and its race.pull spans on %d \
     domains; qlog %s has cold+mem lines with queue latency, counters and %d trials (= spent); \
     obs-off recompute byte-identical\n"
    !progress hits_delta trace_path tid (List.length pull_domains) qlog_path spent
