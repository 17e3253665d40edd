(** The certificate server: a daemon serving fairness queries over a
    Unix-domain socket.

    Architecture (one paragraph): an accept thread hands each connection to
    a reader thread; readers decode length-framed requests
    ({!Frame}/{!Proto}), answer cache hits {e inline} (a hit never touches
    the scheduler or the domain pool — that is the O(1) path repeated
    queries take), and submit misses to the fair scheduler ({!Sched});
    the scheduler's executor pool ([workers] domains) computes answers
    through {!Handlers} on the persistent domain pool — independent cold
    queries overlap on multi-core hosts, while per-key ordering and
    single-flight coalescing are preserved by the scheduler — streaming
    Monte-Carlo progress frames to every connection waiting on that
    computation (coalesced same-key requests share one compute; each
    computation runs under its own {!Fair_obs.Scope}, so concurrent
    computations stream only their own frames), stores the bytes in the
    content-addressed cache ({!Cache}) and delivers the result.

    Failure isolation: a usage error ({!Handlers.resolve}) is answered by
    the reader and never takes a queue slot; anything that goes wrong on
    one connection — gibberish frames, a peer that dies mid-frame or while
    its query runs — collapses to that connection (a structured
    {!Failure.t} answer and/or a teardown) and never perturbs another
    connection's bytes.  Raw-socket peers in [@service-smoke] and the soak
    ({!Soak}) test this. *)

type t

val start :
  socket:string ->
  ?cache:Cache.t ->
  ?queue_limit:int ->
  ?cost_budget:float ->
  ?costs:Costmodel.t ->
  ?jobs:int ->
  ?workers:int ->
  ?recorder:Recorder.t ->
  unit ->
  t
(** Bind [socket] (an existing socket file is replaced), start the accept,
    reader and executor threads, and return.  [cache] defaults to a fresh
    memory-only cache ({!Cache.create} [~capacity:256]); [queue_limit]
    (default 64) bounds admission; [cost_budget] (seconds of estimated
    queued work, default [0.] = disabled) enables {!Sched}'s cost-aware
    admission, with [queue_limit] as its depth floor; [costs] supplies a
    pre-seeded {!Costmodel} (e.g. warm-started from a previous run's qlog
    file) — by default a fresh {!Costmodel.create} model;
    [jobs] (default {!Fairness.Parallel.default_jobs}) bounds the domain
    pool per query — it never changes any served byte; [workers] (default
    [min 4 (max 1 default_jobs)]) sizes the executor pool — like [jobs] it
    only affects wall clock, never bytes.  [recorder] attaches a flight
    recorder ({!Recorder}): the server dumps it on [Query_failed] answers,
    on [Malformed_frame] teardowns, on worker restarts and on clean
    {!stop}.  [SIGPIPE] is ignored process-wide (a dying client must not
    kill the server).

    {b Resilience} (all byte-neutral — enforced by the paired
    dark-vs-resilient tests in [test/test_service.ml]): queries carrying a
    deadline are shed ({!Failure.Deadline_exceeded}) if still queued when
    it expires, stop receiving progress frames once past due, and get
    [Deadline_exceeded] instead of a late result at delivery (the result
    is still cached for their retry); a worker-domain death is supervised
    — inflight key released, batch answered {!Failure.Query_failed},
    replacement domain spawned, flight recorder dumped; {!drain} refuses
    new queries with {!Failure.Draining} while inflight work finishes.

    {b Request observability} (all off by default, none of it touches an
    RNG or a scheduling decision): when {!Fair_obs.Trace} is enabled the
    server records [service.cache.probe] spans on reader threads,
    [service.queue] spans at dispatch, [service.exec] spans (plus
    [service.coalesced] handoff instants) on executor workers — each
    tagged with the query's trace id, which the request scope also puts on
    every engine/Monte-Carlo span the computation records, on any pool
    domain; when {!Fair_obs.Qlog} is enabled every completed request logs
    one wide event (cache tier, queue latency, worker id, the counters its
    scope recorded, outcome).  Certificates are bit-identical with everything on or off
    (enforced by [test/test_service.ml]).
    @raise Unix.Unix_error if the socket cannot be bound. *)

val stop : t -> unit
(** Stop accepting, tear down live connections, wait for the in-flight
    computation (if any) to finish, join all threads and remove the socket
    file.  Idempotent. *)

val drain : t -> timeout_s:float -> bool
(** Graceful shutdown (the SIGTERM path): immediately refuse every new
    query with {!Failure.Draining}, wait up to [timeout_s] for the queue
    and executor pool to empty, then {!stop}.  Returns [true] when the
    drain completed before the bound ([false] = work was still in flight
    and stop proceeded anyway). *)

val chaos_kill_workers : t -> int -> unit
(** Inject [n] scripted worker deaths ({!Sched.chaos_kill_workers}) — the
    soak harness's lever for exercising supervision end to end. *)

val worker_restarts : t -> int
(** Worker domains replaced after a death since start. *)

val stats_json : t -> Fairness.Json.t
(** The [stats] answer: cache counters, queue depth/limit, domain-pool
    stats — what [@service-smoke] reads to assert "second query was a hit
    and the pool never moved" — plus live introspection: the full metrics
    snapshot, per-histogram p50/p90/p99 ({!Fairness.Obs_json.percentiles})
    and the observability switchboard (tracing/qlog state, flight-recorder
    path) that [fairness stat --watch] renders. *)
