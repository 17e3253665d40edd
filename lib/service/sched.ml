module Metrics = Fair_obs.Metrics
module Clock = Fair_obs.Clock
module Trace = Fair_obs.Trace
module Engine = Fair_exec.Engine

let c_admitted = Metrics.counter "service.sched.admitted"
let c_rejected = Metrics.counter "service.sched.rejected"
let c_rejected_cost = Metrics.counter "service.sched.rejected_cost"
let c_coalesced = Metrics.counter "service.sched.coalesced"
let c_exec_failures = Metrics.counter "service.sched.exec_failures"
let c_shed = Metrics.counter "service.sched.shed"
let c_restarts = Metrics.counter "service.sched.restarts"
let g_depth = Metrics.gauge "service.sched.depth"
let g_concurrency = Metrics.gauge "service.sched.concurrency"

let h_queue_latency =
  Metrics.histogram
    ~buckets:[| 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]
    "service.sched.queue_latency_s"

type 'a job = {
  j_client : int;
  j_key : string;
  j_attrs : (string * string) list;
  j_cost_s : float;
  j_deadline_ns : int;
  mutable j_queue_ns : int;
  j_payload : 'a;
}

(* Queue entries carry their admission timestamp so dispatch can observe
   how long the job sat behind the executor pool. *)
type 'a entry = { job : 'a job; t_submit : int }

(* Per-client FIFO plus a [queued] flag keeping the invariant: a client id
   sits in [rotation] exactly once iff its flag is set.  Dispatch pops the
   rotation head, takes one job, and re-appends the id only if its queue
   still has work — textbook round-robin, so a flood from one client costs
   every other client at most one queue position per own request. *)
type 'a client = { q : 'a entry Queue.t; mutable queued : bool }

(* The scripted worker death used by the chaos soak: raised between
   dispatch and [exec] when a kill has been injected, so the full
   supervision path (inflight release, client answer, domain respawn) is
   exercised with a real job in hand. *)
exception Chaos_worker_killed

type 'a t = {
  limit : int;
  cost_budget : float;  (** 0. = cost-aware admission disabled *)
  exec : 'a job -> followers:'a job list -> unit;
  on_shed : 'a job -> unit;
  on_crash : 'a job -> followers:'a job list -> exn -> unit;
  lock : Mutex.t;
  work : Condition.t;
  clients : (int, 'a client) Hashtbl.t;
  rotation : int Queue.t;
  inflight : (string, unit) Hashtbl.t;  (** keys currently executing *)
  mutable pending : int;
  mutable pending_cost : float;  (** summed [j_cost_s] of queued jobs *)
  mutable active : int;  (** leaders currently inside [exec] *)
  mutable restarts : int;
  mutable kills_pending : int;  (** injected worker deaths not yet fired *)
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Caller holds the lock; bookkeeping for removing one queued entry. *)
let unqueue t (e : 'a entry) =
  t.pending <- t.pending - 1;
  t.pending_cost <- Float.max 0. (t.pending_cost -. e.job.j_cost_s);
  Metrics.set_gauge g_depth (float_of_int t.pending)

let expired ~now (j : 'a job) = j.j_deadline_ns > 0 && now >= j.j_deadline_ns

(* Caller holds the lock.  Pick the next dispatchable leader round-robin,
   then sweep every client queue for jobs sharing its content address: they
   ride the leader's computation instead of re-running it (single-flight
   batching onto the domain pool).

   Per-key ordering with several workers: a client whose {e head} job
   carries a key that is already executing is skipped (re-appended to the
   rotation) rather than dispatched — head-of-line blocking on purpose, so
   two jobs with the same key can never run concurrently, and same-key jobs
   from one client complete in submission order.  [scanned] bounds the scan
   to one rotation lap: when every queued head is inflight-blocked the
   caller gets [None] and waits for a completion broadcast.

   Deadline shedding happens here, at dispatch: a head whose deadline has
   already passed is popped and returned as [`Shed] instead of executed —
   running work nobody is waiting for anymore would only delay live
   queries.  (Expired non-heads reach their shed verdict when they become
   heads; expired followers are caught at delivery by the server.) *)
let take_next t =
  let now = Clock.now_ns () in
  let lap = Queue.length t.rotation in
  let rec go scanned =
    if scanned >= lap then None
    else
      match Queue.take_opt t.rotation with
      | None -> None
      | Some cid -> (
          match Hashtbl.find_opt t.clients cid with
          | None -> go scanned (* client dropped while queued *)
          | Some c -> (
              match Queue.peek_opt c.q with
              | None ->
                  c.queued <- false;
                  go scanned
              | Some head when expired ~now head.job ->
                  let e = Queue.take c.q in
                  unqueue t e;
                  if not (Queue.is_empty c.q) then Queue.add cid t.rotation
                  else c.queued <- false;
                  e.job.j_queue_ns <- max 0 (now - e.t_submit);
                  Some (`Shed e.job)
              | Some head when Hashtbl.mem t.inflight head.job.j_key ->
                  Queue.add cid t.rotation;
                  go (scanned + 1)
              | Some _ ->
                  let leader = Queue.take c.q in
                  unqueue t leader;
                  if not (Queue.is_empty c.q) then Queue.add cid t.rotation
                  else c.queued <- false;
                  let followers = ref [] in
                  let sweep _cid (c : 'a client) =
                    let keep = Queue.create () in
                    Queue.iter
                      (fun e ->
                        if e.job.j_key = leader.job.j_key then begin
                          followers := e :: !followers;
                          unqueue t e;
                          Metrics.incr c_coalesced
                        end
                        else Queue.add e keep)
                      c.q;
                    Queue.clear c.q;
                    Queue.transfer keep c.q
                  in
                  Hashtbl.iter sweep t.clients;
                  Hashtbl.replace t.inflight leader.job.j_key ();
                  t.active <- t.active + 1;
                  Metrics.set_gauge g_concurrency (float_of_int t.active);
                  (* Dispatch is where a job's queue wait becomes known:
                     stamp it on the job (the executor's query log reads
                     it), feed the histogram, and emit the wait as a span —
                     externally timed, [t_submit → now], so a traced
                     request shows its time behind the pool as a real lane
                     segment rather than a gap. *)
                  let observe role e =
                    let wait_ns = Clock.now_ns () - e.t_submit in
                    e.job.j_queue_ns <- max 0 wait_ns;
                    Metrics.observe h_queue_latency (Clock.elapsed_s ~since_ns:e.t_submit);
                    Trace.emit_span ~cat:"service"
                      ~args:(("role", role) :: e.job.j_attrs)
                      "service.queue" ~ts_ns:e.t_submit ~dur_ns:(max 0 wait_ns)
                  in
                  observe "leader" leader;
                  List.iter (observe "follower") !followers;
                  Some (`Job (leader.job, List.rev_map (fun e -> e.job) !followers))))
  in
  go 0

(* The worker loop and its supervisor.  [spawn_worker]/[worker] are
   mutually recursive because a replacement domain must run the same loop
   as the one that just died. *)
let rec worker t () =
  let loop = ref true in
  while !loop do
    let next =
      with_lock t (fun () ->
          let rec await () =
            if t.stopped then `Stop
            else
              match take_next t with
              | Some (`Shed job) -> `Shed job
              | Some (`Job (leader, followers)) ->
                  (* An injected kill fires only with a job in hand, so the
                     crash path always has a client to answer. *)
                  let doomed = t.kills_pending > 0 in
                  if doomed then t.kills_pending <- t.kills_pending - 1;
                  `Job (leader, followers, doomed)
              | None ->
                  (* Nothing dispatchable: queue empty, or every head is
                     blocked behind an inflight key.  Both states change
                     only under a broadcast. *)
                  Condition.wait t.work t.lock;
                  await ()
          in
          await ())
    in
    match next with
    | `Stop -> loop := false
    | `Shed job ->
        Metrics.incr c_shed;
        (try t.on_shed job with e when not (Engine.fatal e) -> ());
        (* Shedding freed no inflight key, but it did consume queue slots:
           admission headroom changed, and a parked submitter's view of
           the world is stale.  No broadcast needed — only workers wait on
           [work], and this worker is about to re-scan anyway. *)
        ()
    | `Job (leader, followers, doomed) -> (
        match
          if doomed then raise Chaos_worker_killed;
          t.exec leader ~followers
        with
        | () ->
            with_lock t (fun () ->
                Hashtbl.remove t.inflight leader.j_key;
                t.active <- t.active - 1;
                Metrics.set_gauge g_concurrency (float_of_int t.active);
                (* A completed key may unblock several waiting heads, and
                   new work may have queued while we computed: wake
                   everyone. *)
                Condition.broadcast t.work)
        | exception e when not (Engine.fatal e) ->
            (* Worker death (fatal exceptions still kill the process).
               Release what the dead worker held, put a replacement domain
               in the pool, and only then (outside the lock) let the server
               answer the orphaned batch — the same order a crashed
               process's supervisor would use: restore capacity first,
               apologize second. *)
            Metrics.incr c_exec_failures;
            Metrics.incr c_restarts;
            with_lock t (fun () ->
                Hashtbl.remove t.inflight leader.j_key;
                t.active <- t.active - 1;
                t.restarts <- t.restarts + 1;
                Metrics.set_gauge g_concurrency (float_of_int t.active);
                if not t.stopped then t.domains <- Domain.spawn (worker t) :: t.domains;
                Condition.broadcast t.work);
            (try t.on_crash leader ~followers e with e' when not (Engine.fatal e') -> ());
            loop := false (* this domain is dead; its replacement runs on *))
  done

let default_on_crash _job ~followers:_ _exn = ()

let create ~queue_limit ?(cost_budget = 0.) ?(workers = 1) ?(on_shed = fun _ -> ())
    ?(on_crash = default_on_crash) ~exec () =
  if queue_limit < 0 then invalid_arg "Sched.create: queue_limit < 0";
  if workers < 1 then invalid_arg "Sched.create: workers < 1";
  if not (Float.is_finite cost_budget) || cost_budget < 0. then
    invalid_arg "Sched.create: cost_budget < 0";
  let t =
    { limit = queue_limit;
      cost_budget;
      exec;
      on_shed;
      on_crash;
      lock = Mutex.create ();
      work = Condition.create ();
      clients = Hashtbl.create 16;
      rotation = Queue.create ();
      inflight = Hashtbl.create 16;
      pending = 0;
      pending_cost = 0.;
      active = 0;
      restarts = 0;
      kills_pending = 0;
      stopped = false;
      domains = [] }
  in
  (* Workers are domains, not threads: the point of the pool is that
     independent cold queries overlap on multi-core hosts, and OCaml
     threads within one domain never run in parallel. *)
  t.domains <- List.init workers (fun _ -> Domain.spawn (worker t));
  t

let submit t job =
  let cost = if Float.is_finite job.j_cost_s && job.j_cost_s > 0. then job.j_cost_s else 0. in
  let verdict =
    with_lock t (fun () ->
        (* Admission: the old depth limit is a floor (a queue shorter than
           [limit] always admits, exactly as before), and when a cost
           budget is set, cheap work may keep entering past the depth
           limit until the summed cost estimate reaches the budget.  With
           [cost_budget = 0.] this is bit-for-bit the old depth check. *)
        let depth_ok = t.pending < t.limit in
        let cost_ok = t.cost_budget > 0. && t.pending_cost +. cost <= t.cost_budget in
        if t.stopped || not (depth_ok || cost_ok) then begin
          if (not t.stopped) && t.cost_budget > 0. then Metrics.incr c_rejected_cost;
          `Rejected (t.pending, t.limit)
        end
        else begin
          let c =
            match Hashtbl.find_opt t.clients job.j_client with
            | Some c -> c
            | None ->
                let c = { q = Queue.create (); queued = false } in
                Hashtbl.replace t.clients job.j_client c;
                c
          in
          Queue.add { job; t_submit = Clock.now_ns () } c.q;
          if not c.queued then begin
            c.queued <- true;
            Queue.add job.j_client t.rotation
          end;
          t.pending <- t.pending + 1;
          t.pending_cost <- t.pending_cost +. cost;
          Metrics.set_gauge g_depth (float_of_int t.pending);
          Condition.signal t.work;
          `Admitted
        end)
  in
  (match verdict with
  | `Admitted -> Metrics.incr c_admitted
  | `Rejected _ -> Metrics.incr c_rejected);
  verdict

let drop_client t cid =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.clients cid with
      | None -> ()
      | Some c ->
          Queue.iter (fun e -> unqueue t e) c.q;
          Hashtbl.remove t.clients cid)

let depth t = with_lock t (fun () -> t.pending)

let pending_cost t = with_lock t (fun () -> t.pending_cost)

let concurrency t = with_lock t (fun () -> t.active)

let restarts t = with_lock t (fun () -> t.restarts)

let chaos_kill_workers t n =
  if n < 0 then invalid_arg "Sched.chaos_kill_workers: n < 0";
  with_lock t (fun () -> t.kills_pending <- t.kills_pending + n)

let stop t =
  let ds =
    with_lock t (fun () ->
        t.stopped <- true;
        Condition.broadcast t.work;
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  List.iter Domain.join ds
