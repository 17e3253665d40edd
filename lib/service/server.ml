module Json = Fairness.Json
module Obs_json = Fairness.Obs_json
module Metrics = Fair_obs.Metrics
module Clock = Fair_obs.Clock
module Trace = Fair_obs.Trace
module Qlog = Fair_obs.Qlog

let c_accepted = Metrics.counter "service.conns.accepted"

(* A cache entry is the frame a hit writes, encoded once when the answer
   is computed: the marker byte 'F', the verdict byte, then the
   [cached = true] result without a trace id.  Entries of the older form,
   a verdict byte and then the bare body, start with '0' or '1': they read
   as misses, and the recompute stores the frame in their place. *)
let entry_encode ~ok frame = (if ok then "F1" else "F0") ^ frame

let entry_decode entry =
  if String.length entry < 2 || entry.[0] <> 'F' then None
  else
    match entry.[1] with
    | '1' -> Some (String.sub entry 2 (String.length entry - 2), true)
    | '0' -> Some (String.sub entry 2 (String.length entry - 2), false)
    | _ -> None

type conn = {
  cid : int;
  fd : Unix.file_descr;
  wlock : Mutex.t;  (* progress frames race the reader's own replies *)
  mutable alive : bool;
}

(* What a queued query carries besides the query itself: its connection
   and its receipt timestamp (so the executor can report end-to-end wall
   time per request).  Its deadline is the job's [Sched.j_deadline_ns]. *)
type pending = { pq : Proto.query; pconn : conn; p_recv_ns : int }

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

(* Whether the frame was written.  A write failure means the peer is gone:
   mark the connection dead so the executor stops streaming to it; the
   reader notices on its next read. *)
let send conn payload =
  Mutex.lock conn.wlock;
  let sent =
    conn.alive
    &&
    try
      Frame.write conn.fd payload;
      true
    with Unix.Unix_error _ | Invalid_argument _ ->
      conn.alive <- false;
      false
  in
  Mutex.unlock conn.wlock;
  sent

let send_response conn resp = send conn (Proto.encode_response resp)

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

let dump_on t reason =
  match t.recorder with Some r -> Recorder.dump r ~reason | None -> ()

(* Every answer that ends a request goes through here: write the final
   frame (a result's encoded frame and verdict, or a failure) if the peer
   is still there, then record the request's one wide query-log event.
   The outcome follows from the reply — a written result's verdict; ["retried_by_client"] for a result whose peer was
   gone (the answer is content-addressed, so a retrying client re-asks
   safely); a failure's code — unless the caller names a resilience
   verdict (["shed"], ["drained"]).  [q] is absent only for a frame that
   never decoded.  [worker = -1] marks the reader thread; [queue_ns],
   [trials] and [counters] stay zero/empty wherever the request never
   reached the scheduler or the engine. *)
let finish ?q ?outcome ?(key = "") ?(tier = "") ?(worker = -1) ?(queue_ns = 0) ?(trials = 0)
    ?(counters = []) conn ~recv_ns reply =
  let sent =
    send conn
      (match reply with
      | Ok (frame, _) -> frame
      | Error f -> Proto.encode_response (Proto.Error f))
  in
  if Qlog.enabled () then
    let field f default = match q with Some q -> f q | None -> default in
    Qlog.record
      {
        Qlog.ts_ns = Clock.now_ns ();
        trace_id = field (fun q -> q.Proto.q_trace_id) "";
        span_id = field (fun q -> q.Proto.q_span_id) "";
        kind = field (fun q -> Proto.kind_to_string q.Proto.q_kind) "malformed";
        experiment = field (fun q -> q.Proto.q_experiment) "";
        key;
        tier;
        client = conn.cid;
        worker;
        queue_s = float_of_int queue_ns /. 1e9;
        wall_s = float_of_int (Clock.now_ns () - recv_ns) /. 1e9;
        deadline_s = field (fun q -> q.Proto.q_deadline) 0.;
        attempt = field (fun q -> q.Proto.q_attempt) 0;
        trials;
        counters;
        outcome =
          (match (outcome, reply) with
          | Some o, _ -> o
          | None, Ok _ when not sent -> "retried_by_client"
          | None, Ok (_, ok) -> if ok then "ok" else "bound-violation"
          | None, Error f -> Failure.code f);
      }

(* [finish] for a job the scheduler dispatched or shed: it runs on an
   executor domain, which the line names. *)
let finish_job ?outcome ?tier ?trials ?counters (j : pending Sched.job) reply =
  let p = j.Sched.j_payload in
  finish ~q:p.pq ?outcome ~key:j.Sched.j_key ?tier ~worker:(Fair_obs.Domain_id.get ())
    ~queue_ns:j.Sched.j_queue_ns ?trials ?counters p.pconn ~recv_ns:p.p_recv_ns reply

(* A computed (body, verdict) as its untraced result frame and verdict. *)
let result_frame ~key ~cached (body, ok) =
  ( Proto.encode_response
      (Proto.Result
         { Proto.r_cached = cached; r_key = key; r_ok = ok; r_body = body; r_trace_id = "" }),
    ok )

(* A result frame as [q]'s reply, echoing the requester's own trace id. *)
let reply (q : Proto.query) (frame, ok) = (Proto.with_trace_id frame q.Proto.q_trace_id, ok)

let remember cch ~key answer =
  let frame, ok = result_frame ~key ~cached:true answer in
  Cache.store cch ~key (entry_encode ~ok frame)

(* The cache as an answer: the stored frame and verdict, and the tier that
   held them.  A [q_fresh] query never probes; an undecodable entry reads
   as a miss, and the recompute heals it. *)
let probe cch (q : Proto.query) ~key =
  if q.Proto.q_fresh then None
  else
    Option.bind
      (Trace.with_span ~cat:"service" ~args:(trace_args q) "service.cache.probe" (fun () ->
           Cache.find cch key))
      (fun (entry, tier) ->
        Option.map
          (fun hit -> (hit, match tier with `Mem -> "mem" | `Disk -> "disk"))
          (entry_decode entry))

(* What the reader answers itself, before any queue: a usage error, or a
   hit as [q]'s reply frame with its key and tier; a miss leaves its key
   for the scheduler. *)
let lookup cch (q : Proto.query) =
  match Handlers.resolve q with
  | Error f -> `Refused f
  | Ok _ -> (
      let key = Proto.cache_key q in
      match probe cch q ~key with
      | Some (hit, tier) -> `Hit (key, tier, reply q hit)
      | None -> `Miss key)

let hit cch payload =
  match Proto.decode_request payload with
  | Ok (Proto.Query q) -> (
      match lookup cch q with `Hit (_, _, (frame, _)) -> Some frame | `Refused _ | `Miss _ -> None)
  | Ok (Proto.Stats | Proto.Ping) | Error _ -> None

(* The counters a qlog line carries from its request's scope. *)
let interesting (name, _) =
  List.exists (fun prefix -> String.starts_with ~prefix name) [ "engine."; "mc."; "race." ]

let past_due (j : pending Sched.job) =
  j.Sched.j_deadline_ns > 0 && Clock.now_ns () >= j.Sched.j_deadline_ns

(* The executor: computes one coalesced batch and answers everyone in it.
   A recipient whose connection died costs nothing and poisons nobody. *)
let exec t (leader : pending Sched.job) ~followers =
  let jobs = leader :: followers in
  let q = leader.Sched.j_payload.pq in
  let key = leader.Sched.j_key in
  let targs = trace_args q in
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
  (* Delivery is deadline-checked per recipient: a waiter past its
     deadline receives Deadline_exceeded instead of a result it said it no
     longer wants (the result itself is still cached — the client's re-ask
     with a fresh budget is a hit).  The leader's line names the tier that
     answered; its followers' read "coalesced". *)
  let answer_all ~tier ?trials ?counters answer =
    List.iteri
      (fun i (j : pending Sched.job) ->
        let p = j.Sched.j_payload in
        finish_job ~tier:(if i = 0 then tier else "coalesced") ?trials ?counters j
          (match answer with
          | Ok _ when past_due j ->
              Error
                (Failure.Deadline_exceeded
                   {
                     waited_s = float_of_int (Clock.now_ns () - p.p_recv_ns) /. 1e9;
                     deadline_s = p.pq.Proto.q_deadline;
                   })
          | Ok frame -> Ok (reply p.pq frame)
          | Error f -> Error f))
      jobs
  in
  (* Single-flight double-check: an identical query may have been computed
     and stored while this one sat in the queue. *)
  match probe t.cch q ~key with
  | Some (hit, tier) -> answer_all ~tier (Ok hit)
  | None ->
      (* The request scope: the computation's spans, counters and progress,
         on any domain, are this request's and this batch's alone.
         Progress is best-effort telemetry: a waiter past its deadline gets
         no more frames (it is about to be answered Deadline_exceeded, and
         streaming to it would only delay that). *)
      let scope =
        Fair_obs.Scope.create ~args:targs
          ~sink:(fun { Fair_obs.Scope.after; batch; running_mean; running_std_err } ->
            let frame =
              Proto.Progress
                {
                  Proto.p_after = after;
                  p_batch = batch;
                  p_mean = running_mean;
                  p_std_err = running_std_err;
                }
            in
            List.iter
              (fun j ->
                if not (past_due j) then ignore (send_response j.Sched.j_payload.pconn frame))
              jobs)
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
              Result.iter (remember t.cch ~key) answer;
              answer_all ~tier:"cold" ~trials ~counters
                (Result.map (result_frame ~key ~cached:false) answer);
              match answer with
              | Error (Failure.Query_failed { reason }) -> dump_on t ("query-failed: " ^ reason)
              | _ -> ()))

let handle_query t conn ~recv_ns (q : Proto.query) =
  if t.draining then
    (* Graceful drain: inflight work is finishing, but nothing new starts —
       not even cache probes (the process is going away; the client should
       talk to its replacement, and Draining tells it exactly that). *)
    finish ~q ~outcome:"drained" conn ~recv_ns
      (Error (Failure.Draining { reason = "server is draining; not accepting work" }))
  else
    (* Usage errors answer immediately and never occupy a queue slot. *)
    match lookup t.cch q with
    | `Refused f -> finish ~q conn ~recv_ns (Error f)
    | `Hit (key, tier, hit) ->
        (* The fast path: answered right here in the reader thread — the
           scheduler and the domain pool never hear about it. *)
        finish ~q ~key ~tier conn ~recv_ns (Ok hit)
    | `Miss key -> (
        match
          Sched.submit t.sched
            {
              Sched.j_client = conn.cid;
              j_key = key;
              j_attrs = trace_args q;
              j_cost_s =
                Costmodel.estimate t.costs
                  ~kind:(Proto.kind_to_string q.Proto.q_kind)
                  ~experiment:q.Proto.q_experiment;
              j_deadline_ns =
                (if q.Proto.q_deadline > 0. then
                   recv_ns + int_of_float (q.Proto.q_deadline *. 1e9)
                 else 0);
              j_queue_ns = 0;
              j_payload = { pq = q; pconn = conn; p_recv_ns = recv_ns };
            }
        with
        | `Admitted -> ()
        | `Rejected (depth, limit) ->
            finish ~q ~key conn ~recv_ns (Error (Failure.Overloaded { depth; limit })))

let serve_conn t conn =
  let dec = Frame.Decoder.create () in
  (* Garbage on the wire: name the frame, answer in-band, close.  The
     decoder is poisoned, so closing is the only honest option. *)
  let malformed ~seq ~recv_ns reason =
    finish conn ~recv_ns (Error (Failure.Malformed_frame { seq; reason }));
    dump_on t ("malformed-frame: " ^ reason)
  in
  let rec loop seq =
    match Frame.read conn.fd dec with
    | Ok None -> ()  (* clean EOF *)
    | Error reason -> malformed ~seq:(seq + 1) ~recv_ns:(Clock.now_ns ()) reason
    | Ok (Some payload) -> (
        let recv_ns = Clock.now_ns () in
        let seq = seq + 1 in
        match Proto.decode_request payload with
        | Result.Error reason -> malformed ~seq ~recv_ns reason
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
   waiting client honestly.  Runs on an executor domain, outside the
   scheduler lock. *)
let on_shed (job : pending Sched.job) =
  finish_job ~outcome:"shed" job
    (Error
       (Failure.Deadline_exceeded
          {
            waited_s = float_of_int job.Sched.j_queue_ns /. 1e9;
            deadline_s = job.Sched.j_payload.pq.Proto.q_deadline;
          }))

(* A worker domain died mid-batch.  The scheduler has already released the
   inflight key and spawned a replacement; what is left is the apology:
   every client in the orphaned batch gets Query_failed (re-asking is safe
   — nothing was cached), and the flight recorder captures the state that
   led here. *)
let on_crash t (leader : pending Sched.job) ~followers exn =
  let reason = Printf.sprintf "worker crashed: %s" (Printexc.to_string exn) in
  List.iter (fun j -> finish_job j (Error (Failure.Query_failed { reason }))) (leader :: followers);
  dump_on t ("worker-restart: " ^ reason)

let start ~socket ?(cache = Cache.create ()) ?(queue_limit = 64) ?(cost_budget = 0.)
    ?(costs = Costmodel.create ()) ?(jobs = Fairness.Parallel.default_jobs)
    ?(workers = min 4 (max 1 Fairness.Parallel.default_jobs)) ?recorder () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
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
    Sched.create ~queue_limit ~cost_budget ~workers ~on_shed
      ~on_crash:(fun leader ~followers exn ->
        with_t (fun t -> on_crash t leader ~followers exn))
      ~exec:(fun leader ~followers -> with_t (fun t -> exec t leader ~followers))
      ()
  in
  let t =
    {
      sock_path = socket;
      listen_fd;
      cch = cache;
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
