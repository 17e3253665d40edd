module Json = Fairness.Json
module Obs_json = Fairness.Obs_json
module Metrics = Fair_obs.Metrics
module Clock = Fair_obs.Clock
module Trace = Fair_obs.Trace
module Qlog = Fair_obs.Qlog

let c_accepted = Metrics.counter "service.conns.accepted"

(* Cache entries carry the verdict alongside the body so a hit can be
   served without re-parsing certificate JSON: one verdict byte, then the
   exact bytes the handler produced. *)
let entry_encode ~ok body = (if ok then "1" else "0") ^ body

let entry_decode entry =
  if String.length entry = 0 then None
  else
    match entry.[0] with
    | '1' -> Some (true, String.sub entry 1 (String.length entry - 1))
    | '0' -> Some (false, String.sub entry 1 (String.length entry - 1))
    | _ -> None

type conn = {
  cid : int;
  fd : Unix.file_descr;
  wlock : Mutex.t;  (* progress frames race the reader's own replies *)
  mutable alive : bool;
}

(* What a queued query carries besides the query itself: its connection,
   its receipt timestamp (so the executor can report end-to-end wall time
   per request), and its absolute deadline on the monotonic clock
   (receipt + the query's relative deadline; 0 = none). *)
type pending = { pq : Proto.query; pconn : conn; p_recv_ns : int; p_deadline_ns : int }

type t = {
  sock_path : string;
  listen_fd : Unix.file_descr;
  cch : Cache.t;
  jobs : int;
  queue_limit : int;
  cost_budget : float;
  workers : int;
  recorder : Recorder.t option;
  costs : Costmodel.t;
  sched : pending Sched.t;
  lock : Mutex.t;  (* conns + stopped *)
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable draining : bool;
  mutable stopped : bool;
  mutable accept_thread : Thread.t;
}

let socket t = t.sock_path
let cache t = t.cch

let stats_json t =
  let cs = Cache.stats t.cch in
  let snap = Metrics.snapshot () in
  Json.Obj
    [
      ("version", Json.Str Version.code_version);
      ( "cache",
        Json.Obj
          [
            ("hits", Json.num_int cs.Cache.hits);
            ("misses", Json.num_int cs.Cache.misses);
            ("evictions", Json.num_int cs.Cache.evictions);
            ("disk_hits", Json.num_int cs.Cache.disk_hits);
            ("entries", Json.num_int cs.Cache.entries);
          ] );
      ( "queue",
        Json.Obj
          [
            ("depth", Json.num_int (Sched.depth t.sched));
            ("limit", Json.num_int t.queue_limit);
            ("workers", Json.num_int t.workers);
            ("active", Json.num_int (Sched.concurrency t.sched));
          ] );
      ("pool", Obs_json.pool (Fairness.Parallel.pool_stats ()));
      (* Live introspection: the full registry snapshot plus derived
         latency percentiles, so `fairness stat --watch` needs no second
         endpoint and no file on disk. *)
      ("metrics", Obs_json.metrics snap);
      ("percentiles", Obs_json.percentiles snap);
      ( "resilience",
        Json.Obj
          [
            ("draining", Json.Bool t.draining);
            ("cost_budget", Json.Num t.cost_budget);
            ("pending_cost", Json.Num (Sched.pending_cost t.sched));
            ("worker_restarts", Json.num_int (Sched.restarts t.sched));
            ( "cost_estimates",
              Json.Obj
                (List.map (fun (k, v) -> (k, Json.Num v)) (Costmodel.snapshot t.costs)) );
          ] );
      ( "observability",
        Json.Obj
          [
            ("tracing", Json.Bool (Trace.enabled ()));
            ("trace_dropped", Json.num_int (Trace.dropped ()));
            ("qlog", Json.Bool (Qlog.enabled ()));
            ("qlog_recorded", Json.num_int (Qlog.recorded ()));
            ( "flight_recorder",
              match t.recorder with
              | Some r -> Json.Str (Recorder.path r)
              | None -> Json.Null );
          ] );
    ]

(* A write failure means the peer is gone: mark the connection dead so the
   executor stops streaming to it; the reader notices on its next read. *)
let send_response conn resp =
  Mutex.lock conn.wlock;
  let r =
    try
      if conn.alive then Frame.write conn.fd (Proto.encode_response resp);
      true
    with Unix.Unix_error _ | Invalid_argument _ ->
      conn.alive <- false;
      false
  in
  Mutex.unlock conn.wlock;
  r

let teardown t conn =
  Mutex.lock t.lock;
  t.conns <- List.filter (fun c -> c.cid <> conn.cid) t.conns;
  Mutex.unlock t.lock;
  conn.alive <- false;
  Sched.drop_client t.sched conn.cid;
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* ------------------------ request observability ----------------------- *)

(* Span args carrying a request's trace context.  Every server-side span
   for a traced request carries the same ["trace_id"] arg, which is what
   lets one Perfetto query pull the request's client, queue and worker
   segments out of a multi-tenant trace. *)
let trace_args (q : Proto.query) =
  if q.Proto.q_trace_id = "" then []
  else
    ("trace_id", q.Proto.q_trace_id)
    :: (if q.Proto.q_span_id = "" then [] else [ ("parent_span", q.Proto.q_span_id) ])

let tier_name = function `Mem -> "mem" | `Disk -> "disk"

let dump_on t reason =
  match t.recorder with Some r -> Recorder.dump r ~reason | None -> ()

(* One wide query-log event.  [worker = -1] marks the reader-thread fast
   path; [queue_ns]/[trials]/[counters] are zero/empty wherever the request
   never reached the scheduler or the engine. *)
let log_event ~(q : Proto.query) ~key ~tier ~client ~worker ~queue_ns ~recv_ns ~trials
    ~counters ~outcome =
  if Qlog.enabled () then
    Qlog.record
      {
        Qlog.ts_ns = Clock.now_ns ();
        trace_id = q.Proto.q_trace_id;
        span_id = q.Proto.q_span_id;
        kind = Proto.kind_to_string q.Proto.q_kind;
        experiment = q.Proto.q_experiment;
        key;
        tier;
        client;
        worker;
        queue_s = float_of_int queue_ns /. 1e9;
        wall_s = float_of_int (Clock.now_ns () - recv_ns) /. 1e9;
        deadline_s = q.Proto.q_deadline;
        attempt = q.Proto.q_attempt;
        trials;
        counters;
        outcome;
      }

let log_malformed conn ~recv_ns =
  if Qlog.enabled () then
    Qlog.record
      {
        Qlog.ts_ns = Clock.now_ns ();
        trace_id = "";
        span_id = "";
        kind = "malformed";
        experiment = "";
        key = "";
        tier = "";
        client = conn.cid;
        worker = -1;
        queue_s = 0.;
        wall_s = float_of_int (Clock.now_ns () - recv_ns) /. 1e9;
        deadline_s = 0.;
        attempt = 0;
        trials = 0;
        counters = [];
        outcome = "malformed-frame";
      }

(* The counters a qlog line carries from its request's scope. *)
let interesting (name, _) =
  List.exists (fun prefix -> String.starts_with ~prefix name) [ "engine."; "mc."; "race." ]

(* The executor: computes one coalesced batch and answers everyone in it.
   Recipients are dead-skipped at each step, so a client that vanished
   mid-computation costs nothing and poisons nobody. *)
let exec t (leader : pending Sched.job) ~followers =
  let jobs = leader :: followers in
  let q = leader.Sched.j_payload.pq in
  let key = leader.Sched.j_key in
  let worker_id = Fair_obs.Domain_id.get () in
  let targs = trace_args q in
  let now_expired (p : pending) =
    p.p_deadline_ns > 0 && Clock.now_ns () >= p.p_deadline_ns
  in
  let deliver resp =
    List.iter
      (fun (j : pending Sched.job) ->
        let conn = j.Sched.j_payload.pconn in
        if conn.alive then ignore (send_response conn resp))
      jobs
  in
  (* Progress is best-effort telemetry: a waiter whose deadline has passed
     gets no more convergence frames (it is about to be answered
     Deadline_exceeded, and streaming to it would only delay that). *)
  let deliver_progress resp =
    List.iter
      (fun (j : pending Sched.job) ->
        let p = j.Sched.j_payload in
        if p.pconn.alive && not (now_expired p) then ignore (send_response p.pconn resp))
      jobs
  in
  (* Results echo each requester's own trace id, so responses are built
     per recipient; progress frames (no trace field) stay broadcast.
     Delivery is deadline-checked per recipient: a waiter past its
     deadline receives Deadline_exceeded instead of a result it said it
     no longer wants (the result itself is still cached — the client's
     re-ask with a fresh budget is a hit).  The per-job delivery status
     feeds the query log: ["deadline-exceeded"], or ["retried_by_client"]
     when the connection was already gone at delivery time (the answer is
     content-addressed, so a retrying client re-asks safely). *)
  let deliver_result ~cached ~ok ~body =
    List.map
      (fun (j : pending Sched.job) ->
        let p = j.Sched.j_payload in
        if now_expired p then begin
          if p.pconn.alive then
            ignore
              (send_response p.pconn
                 (Proto.Error
                    (Failure.Deadline_exceeded
                       {
                         waited_s = float_of_int (Clock.now_ns () - p.p_recv_ns) /. 1e9;
                         deadline_s = p.pq.Proto.q_deadline;
                       })));
          (j, `Expired)
        end
        else if
          p.pconn.alive
          && send_response p.pconn
               (Proto.Result
                  {
                    Proto.r_cached = cached;
                    r_key = key;
                    r_ok = ok;
                    r_body = body;
                    r_trace_id = p.pq.Proto.q_trace_id;
                  })
        then (j, `Delivered)
        else (j, `Gone))
      jobs
  in
  (* Single-flight handoff markers: a traced follower's id shows up in the
     worker lane even though the leader's computation answers it. *)
  List.iter
    (fun (j : pending Sched.job) ->
      let fq = j.Sched.j_payload.pq in
      if fq.Proto.q_trace_id <> "" then
        Trace.instant ~cat:"service"
          ~args:(trace_args fq @ [ ("leader_trace", q.Proto.q_trace_id) ])
          "service.coalesced")
    followers;
  let log_all ~tier ?(trials = 0) ?(counters = []) outcome =
    List.iteri
      (fun i (j : pending Sched.job) ->
        let p = j.Sched.j_payload in
        log_event ~q:p.pq ~key
          ~tier:(if i = 0 then tier else "coalesced")
          ~client:j.Sched.j_client ~worker:worker_id ~queue_ns:j.Sched.j_queue_ns
          ~recv_ns:p.p_recv_ns ~trials ~counters ~outcome)
      jobs
  in
  (* Result paths log per delivery status; error paths keep the uniform
     [log_all]. *)
  let log_delivered ~tier ?(trials = 0) ?(counters = []) ~base statuses =
    List.iteri
      (fun i ((j : pending Sched.job), st) ->
        let p = j.Sched.j_payload in
        let outcome =
          match st with
          | `Expired -> "deadline-exceeded"
          | `Gone -> "retried_by_client"
          | `Delivered -> base
        in
        log_event ~q:p.pq ~key
          ~tier:(if i = 0 then tier else "coalesced")
          ~client:j.Sched.j_client ~worker:worker_id ~queue_ns:j.Sched.j_queue_ns
          ~recv_ns:p.p_recv_ns ~trials ~counters ~outcome)
      statuses
  in
  let serve_entry ~tier entry =
    match entry_decode entry with
    | Some (ok, body) ->
        let sts = deliver_result ~cached:true ~ok ~body in
        log_delivered ~tier ~base:(if ok then "ok" else "bound-violation") sts;
        true
    | None -> false
  in
  (* Single-flight double-check: an identical query may have been computed
     and stored while this one sat in the queue. *)
  let already =
    if q.Proto.q_fresh then false
    else
      match
        Trace.with_span ~cat:"service" ~args:targs "service.cache.probe" (fun () ->
            Cache.find_tagged t.cch key)
      with
      | Some (entry, tier) -> serve_entry ~tier:(tier_name tier) entry
      | None -> false
  in
  if not already then
    (* The request scope: the computation's spans, counters and progress,
       on any domain, are this request's and this batch's alone. *)
    let scope =
      Fair_obs.Scope.create ~args:targs
        ~sink:(fun { Fair_obs.Scope.after; batch; running_mean; running_std_err } ->
          deliver_progress
            (Proto.Progress
               {
                 Proto.p_after = after;
                 p_batch = batch;
                 p_mean = running_mean;
                 p_std_err = running_std_err;
               }))
    in
    Fair_obs.Scope.within (Some scope) (fun () ->
        Trace.with_span ~cat:"service"
          ~args:
            [
              ("kind", Proto.kind_to_string q.Proto.q_kind);
              ("experiment", q.Proto.q_experiment);
            ]
          "service.exec"
          (fun () ->
            let t0 = Clock.now_ns () in
            let answer = Handlers.answer ~jobs:t.jobs q in
            (* Feed the cost model with the measured compute time (success
               or failure — a failing query burned the time all the same).
               Read only at admission, so this can never move a byte. *)
            Costmodel.observe t.costs
              ~kind:(Proto.kind_to_string q.Proto.q_kind)
              ~experiment:q.Proto.q_experiment
              ~wall_s:(Clock.elapsed_s ~since_ns:t0);
            let counters =
              if Qlog.enabled () then List.filter interesting (Metrics.scoped scope) else []
            in
            let trials = Option.value ~default:0 (List.assoc_opt "mc.trials" counters) in
            match answer with
            | Ok (body, ok) ->
                Cache.store t.cch ~key (entry_encode ~ok body);
                let sts = deliver_result ~cached:false ~ok ~body in
                log_delivered ~tier:"cold" ~trials ~counters
                  ~base:(if ok then "ok" else "bound-violation")
                  sts
            | Error f ->
                deliver (Proto.Error f);
                log_all ~tier:"cold" ~trials ~counters (Failure.code f);
                (match f with
                | Failure.Query_failed { reason } ->
                    dump_on t ("query-failed: " ^ reason)
                | _ -> ())))

let handle_query t conn ~recv_ns (q : Proto.query) =
  let targs = trace_args q in
  if t.draining then begin
    (* Graceful drain: inflight work is finishing, but nothing new starts —
       not even cache probes (the process is going away; the client should
       talk to its replacement, and Draining tells it exactly that). *)
    ignore
      (send_response conn
         (Proto.Error (Failure.Draining { reason = "server is draining; not accepting work" })));
    log_event ~q ~key:"" ~tier:"" ~client:conn.cid ~worker:(-1) ~queue_ns:0 ~recv_ns
      ~trials:0 ~counters:[] ~outcome:"drained"
  end
  else
  match Fair_analysis.Experiments.find q.Proto.q_experiment with
  | None ->
      (* Bad ids answer immediately and never occupy a queue slot. *)
      ignore
        (send_response conn
           (Proto.Error
              (Failure.Unknown_query
                 {
                   reason =
                     Printf.sprintf "unknown experiment %S; try `fairness list`"
                       q.Proto.q_experiment;
                 })));
      log_event ~q ~key:"" ~tier:"" ~client:conn.cid ~worker:(-1) ~queue_ns:0 ~recv_ns
        ~trials:0 ~counters:[] ~outcome:"unknown-query"
  | Some _ -> (
      let key = Proto.cache_key q in
      let deadline_ns =
        if q.Proto.q_deadline > 0. then
          recv_ns + int_of_float (q.Proto.q_deadline *. 1e9)
        else 0
      in
      let submit () =
        match
          Sched.submit t.sched
            {
              Sched.j_client = conn.cid;
              j_key = key;
              j_attrs = targs;
              j_cost_s =
                Costmodel.estimate t.costs
                  ~kind:(Proto.kind_to_string q.Proto.q_kind)
                  ~experiment:q.Proto.q_experiment;
              j_deadline_ns = deadline_ns;
              j_queue_ns = 0;
              j_payload =
                { pq = q; pconn = conn; p_recv_ns = recv_ns; p_deadline_ns = deadline_ns };
            }
        with
        | `Admitted -> ()
        | `Rejected (depth, limit) ->
            ignore (send_response conn (Proto.Error (Failure.Overloaded { depth; limit })));
            log_event ~q ~key ~tier:"" ~client:conn.cid ~worker:(-1) ~queue_ns:0 ~recv_ns
              ~trials:0 ~counters:[] ~outcome:"overloaded"
      in
      let hit =
        if q.Proto.q_fresh then None
        else
          Trace.with_span ~cat:"service" ~args:targs "service.cache.probe" (fun () ->
              Cache.find_tagged t.cch key)
      in
      match hit with
      | Some (entry, tier) -> (
          match entry_decode entry with
          | Some (ok, body) ->
              (* The fast path: answered right here in the reader thread —
                 the scheduler and the domain pool never hear about it. *)
              ignore
                (send_response conn
                   (Proto.Result
                      {
                        Proto.r_cached = true;
                        r_key = key;
                        r_ok = ok;
                        r_body = body;
                        r_trace_id = q.Proto.q_trace_id;
                      }));
              log_event ~q ~key ~tier:(tier_name tier) ~client:conn.cid ~worker:(-1)
                ~queue_ns:0 ~recv_ns ~trials:0 ~counters:[]
                ~outcome:(if ok then "ok" else "bound-violation")
          | None -> submit () (* undecodable entry: recompute heals it *))
      | None -> submit ())

let serve_conn t conn =
  let dec = Frame.Decoder.create () in
  let rec loop seq =
    match Frame.read conn.fd dec with
    | Ok None -> ()  (* clean EOF *)
    | Error reason ->
        (* Garbage on the wire: name the frame, answer in-band, close.  The
           decoder is poisoned, so closing is the only honest option. *)
        ignore
          (send_response conn
             (Proto.Error (Failure.Malformed_frame { seq = seq + 1; reason })));
        log_malformed conn ~recv_ns:(Clock.now_ns ());
        dump_on t ("malformed-frame: " ^ reason)
    | Ok (Some payload) -> (
        let recv_ns = Clock.now_ns () in
        let seq = seq + 1 in
        match Proto.decode_request payload with
        | Result.Error reason ->
            ignore
              (send_response conn
                 (Proto.Error (Failure.Malformed_frame { seq; reason })));
            log_malformed conn ~recv_ns;
            dump_on t ("malformed-frame: " ^ reason)
        | Ok Proto.Ping ->
            ignore (send_response conn Proto.Pong);
            loop seq
        | Ok Proto.Stats ->
            ignore (send_response conn (Proto.Stats_reply (stats_json t)));
            loop seq
        | Ok (Proto.Query q) ->
            handle_query t conn ~recv_ns q;
            loop seq)
  in
  (try loop 0 with _ -> ());
  teardown t conn

let accept_loop t =
  let next_cid = ref 0 in
  let rec go () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception _ -> ()  (* listener closed: stop *)
    | fd, _ ->
        if t.stopped then (try Unix.close fd with Unix.Unix_error _ -> ())
        else begin
          incr next_cid;
          let conn = { cid = !next_cid; fd; wlock = Mutex.create (); alive = true } in
          Mutex.lock t.lock;
          t.conns <- conn :: t.conns;
          let th = Thread.create (fun () -> serve_conn t conn) () in
          t.readers <- th :: t.readers;
          Mutex.unlock t.lock;
          Metrics.incr c_accepted
        end;
        if t.stopped then () else go ()
  in
  go ()

(* The scheduler shed a queued job whose deadline had passed: answer the
   waiting client honestly and log the shed verdict.  Runs on a worker
   domain, outside the scheduler lock. *)
let on_shed _t (job : pending Sched.job) =
  let p = job.Sched.j_payload in
  if p.pconn.alive then
    ignore
      (send_response p.pconn
         (Proto.Error
            (Failure.Deadline_exceeded
               {
                 waited_s = float_of_int job.Sched.j_queue_ns /. 1e9;
                 deadline_s = p.pq.Proto.q_deadline;
               })));
  log_event ~q:p.pq ~key:job.Sched.j_key ~tier:"" ~client:job.Sched.j_client ~worker:(-1)
    ~queue_ns:job.Sched.j_queue_ns ~recv_ns:p.p_recv_ns ~trials:0 ~counters:[]
    ~outcome:"shed"

(* A worker domain died mid-batch.  The scheduler has already released the
   inflight key and spawned a replacement; what is left is the apology:
   every client in the orphaned batch gets Query_failed (re-asking is safe
   — nothing was cached), and the flight recorder captures the state that
   led here. *)
let on_crash t (leader : pending Sched.job) ~followers exn =
  let reason = Printf.sprintf "worker crashed: %s" (Printexc.to_string exn) in
  List.iter
    (fun (j : pending Sched.job) ->
      let p = j.Sched.j_payload in
      if p.pconn.alive then
        ignore (send_response p.pconn (Proto.Error (Failure.Query_failed { reason })));
      log_event ~q:p.pq ~key:j.Sched.j_key ~tier:"" ~client:j.Sched.j_client
        ~worker:(Fair_obs.Domain_id.get ()) ~queue_ns:j.Sched.j_queue_ns
        ~recv_ns:p.p_recv_ns ~trials:0 ~counters:[] ~outcome:"query-failed")
    (leader :: followers);
  dump_on t ("worker-restart: " ^ reason)

let start ~socket ?cache ?(queue_limit = 64) ?(cost_budget = 0.) ?costs ?jobs ?workers
    ?recorder () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let jobs = match jobs with Some j -> j | None -> Fairness.Parallel.default_jobs in
  let workers =
    match workers with
    | Some w -> w
    | None -> min 4 (max 1 Fairness.Parallel.default_jobs)
  in
  let cch = match cache with Some c -> c | None -> Cache.create () in
  let costs =
    match costs with
    | Some m -> m
    | None ->
        (* Warm-start from whatever qlog history this process already has:
           after an in-process restart (soak, tests) the ring remembers
           real cold wall times; on a fresh daemon it is empty and the
           model starts from its default. *)
        let m = Costmodel.create () in
        Costmodel.seed_from_events m (Qlog.recent ());
        m
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX socket);
     Unix.listen listen_fd 16
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  (* The executor closure needs [t] and [t] needs the scheduler: tie the
     knot through a ref (no job can be submitted before [start] returns). *)
  let t_ref = ref None in
  let with_t f = match !t_ref with None -> () | Some t -> f t in
  let sched =
    Sched.create ~queue_limit ~cost_budget ~workers
      ~on_shed:(fun job -> with_t (fun t -> on_shed t job))
      ~on_crash:(fun leader ~followers exn ->
        with_t (fun t -> on_crash t leader ~followers exn))
      ~exec:(fun leader ~followers -> with_t (fun t -> exec t leader ~followers))
      ()
  in
  let t =
    {
      sock_path = socket;
      listen_fd;
      cch;
      jobs;
      queue_limit;
      cost_budget;
      workers;
      recorder;
      costs;
      sched;
      lock = Mutex.create ();
      conns = [];
      readers = [];
      draining = false;
      stopped = false;
      accept_thread = Thread.self ();
    }
  in
  t_ref := Some t;
  t.accept_thread <- Thread.create (fun () -> accept_loop t) ();
  t

let chaos_kill_workers t n = Sched.chaos_kill_workers t.sched n
let worker_restarts t = Sched.restarts t.sched
let cost_model t = t.costs

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Mutex.lock t.lock;
    let conns = t.conns and readers = t.readers in
    Mutex.unlock t.lock;
    List.iter
      (fun c ->
        c.alive <- false;
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    (try Thread.join t.accept_thread with _ -> ());
    List.iter (fun th -> try Thread.join th with _ -> ()) readers;
    Sched.stop t.sched;
    (* Every reader and worker has drained: the shutdown dump captures the
       complete final state of the qlog ring and trace buffers. *)
    dump_on t "shutdown";
    try Unix.unlink t.sock_path with Unix.Unix_error _ -> ()
  end

(* Graceful drain: flip the refusal flag first (every new query answers
   Draining from this instant), then wait for the queue and the executor
   pool to empty, bounded by [timeout_s] — a wedged worker must not turn
   "graceful" into "never exits".  Finally stop.  Returns whether the
   drain completed cleanly within the bound. *)
let drain t ~timeout_s =
  t.draining <- true;
  let deadline = Unix.gettimeofday () +. Float.max 0. timeout_s in
  let rec wait () =
    if Sched.depth t.sched = 0 && Sched.concurrency t.sched = 0 then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.01;
      wait ()
    end
  in
  let clean = wait () in
  stop t;
  clean
