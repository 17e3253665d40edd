module Clock = Fair_obs.Clock
module Otrace = Fair_obs.Trace

let default_jobs = max 1 (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Persistent worker pool.

   [Domain.spawn] costs tens of microseconds — more than a whole
   Monte-Carlo task — and the trial loop calls [run_tasks] once per call,
   which is once per racing round, many times per race.  So worker
   domains are spawned once, lazily, on the first parallel call that wants
   them, then parked on a condition variable between calls and fed
   subsequent task batches through a shared job box.  They are joined at
   process exit.

   Scheduling is unchanged from the spawn-per-call implementation: each
   participant (the caller plus the workers) repeatedly claims the next
   unprocessed task index from an atomic counter, and results land in a
   slot array indexed by task — output order is task order no matter which
   domain ran what, so the determinism contract of [map_range] holds.

   The pool serves one [run_tasks] at a time.  A concurrent call (two
   service workers computing at once) or a nested one (a task that itself
   calls [run_tasks]; nothing in the library does) detects that the pool
   is busy with a non-blocking try-lock and simply runs inline on the
   calling domain — it can never deadlock, it just degrades to
   sequential. *)

type job = {
  run : int -> unit;       (* execute task [i] and record its result *)
  n : int;
  next : int Atomic.t;     (* next unclaimed task index *)
}

(* Per-participant accounting.  Each worker owns one [wstat] and is its
   only writer.  A task is counted when it is claimed, before it runs, so
   the completion that ends a batch (the [pending] decrement the caller
   waits on) publishes every claim of the batch.  Busy time is stored
   after each drain, which can end after the caller has already woken, and
   idle time around the park.  The caller slot is owned by whichever
   domain holds [pool_busy], which serializes its writers.  Reads
   ([pool_stats]) therefore see exact task counts once a batch has
   returned, and times that are exact at quiescent points and monotone
   approximations mid-batch. *)
type wstat = {
  mutable s_tasks : int;
  mutable s_busy_ns : int;
  mutable s_idle_ns : int;
}

let new_wstat () = { s_tasks = 0; s_busy_ns = 0; s_idle_ns = 0 }

let pool_mutex = Mutex.create ()   (* guards all pool state below *)
let wake = Condition.create ()     (* workers park here between jobs *)
let job_box : job option ref = ref None
let job_gen = ref 0                (* bumped when a new job is published *)
let shutting_down = ref false
let spawned = ref 0                (* worker domains spawned so far *)
let handles : unit Domain.t list ref = ref []
let worker_stats : (int * wstat) list ref = ref []  (* (spawn index, stats) *)
let caller_stat = new_wstat ()
let pooled_batches = ref 0         (* bumped under [pool_mutex] *)
let seq_batches = Atomic.make 0    (* caller asked for sequential (jobs<=1 or n=1) *)
let inline_batches = Atomic.make 0 (* pool busy: parallel request degraded inline *)

(* Held for the duration of one pooled [run_tasks]; taken with [try_lock]
   so contenders fall back to inline execution instead of blocking. *)
let pool_busy = Mutex.create ()

let drain ws (j : job) =
  let t0 = Clock.now_ns () in
  let rec go () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.n then begin
      ws.s_tasks <- ws.s_tasks + 1;
      j.run i;
      go ()
    end
  in
  go ();
  ws.s_busy_ns <- ws.s_busy_ns + (Clock.now_ns () - t0)

let rec worker_loop ws last_gen =
  let t_park = Clock.now_ns () in
  Mutex.lock pool_mutex;
  while !job_gen = last_gen && not !shutting_down do
    Condition.wait wake pool_mutex
  done;
  let gen = !job_gen and job = !job_box and stop = !shutting_down in
  Mutex.unlock pool_mutex;
  let t_wake = Clock.now_ns () in
  ws.s_idle_ns <- ws.s_idle_ns + (t_wake - t_park);
  if Otrace.enabled () then
    Otrace.emit_span ~cat:"pool" "pool.park" ~ts_ns:t_park ~dur_ns:(t_wake - t_park);
  if not stop then begin
    (match job with Some j -> drain ws j | None -> ());
    (* A drained or stale job is harmless to revisit: its counter is
       exhausted, so [drain] returns immediately. *)
    worker_loop ws gen
  end

(* Under [pool_mutex].  New workers start parked on the current
   generation, so publishing the next job (which bumps [job_gen]) wakes
   them exactly like the veterans. *)
let ensure_workers want =
  while !spawned < want do
    let ws = new_wstat () in
    worker_stats := (!spawned, ws) :: !worker_stats;
    incr spawned;
    let gen = !job_gen in
    handles := Domain.spawn (fun () -> worker_loop ws gen) :: !handles
  done

let () =
  at_exit (fun () ->
      Mutex.lock pool_mutex;
      shutting_down := true;
      Condition.broadcast wake;
      let hs = !handles in
      handles := [];
      Mutex.unlock pool_mutex;
      List.iter Domain.join hs)

type worker_stats = { tasks : int; busy_ns : int; idle_ns : int }

type stats = {
  spawned : int;
  pooled_batches : int;
  seq_batches : int;
  inline_batches : int;
  caller : worker_stats;
  workers : worker_stats list;
}

let read_wstat ws = { tasks = ws.s_tasks; busy_ns = ws.s_busy_ns; idle_ns = ws.s_idle_ns }

let pool_stats () =
  Mutex.lock pool_mutex;
  let s =
    { spawned = !spawned;
      pooled_batches = !pooled_batches;
      seq_batches = Atomic.get seq_batches;
      inline_batches = Atomic.get inline_batches;
      caller = read_wstat caller_stat;
      workers =
        List.sort (fun (a, _) (b, _) -> compare a b) !worker_stats
        |> List.map (fun (_, ws) -> read_wstat ws) }
  in
  Mutex.unlock pool_mutex;
  s

(* [counter] distinguishes *why* the batch ran sequentially: [seq_batches]
   when the caller asked for it (jobs <= 1, or nothing to parallelize),
   [inline_batches] when a parallel request degraded because the pool was
   already serving another batch.  Only the latter is a symptom worth
   alerting on. *)
let run_seq counter n task =
  Atomic.incr counter;
  List.init n task

(* Workers store a raising task's exception in its slot instead of
   unwinding, so the pool stays healthy.  Tasks are deterministic, so
   nothing is re-run: the first failure in task order re-raises here. *)
let collect results =
  Array.to_list results
  |> List.map (function
       | Some (Ok x) -> x
       | Some (Error e) -> raise e
       | None -> assert false)

(* The only place a computation changes domain: every task runs under the
   caller's request scope, on whichever domain claims it. *)
let run_pooled ~jobs ~n task =
  let t_start = Clock.now_ns () in
  let results = Array.make n None in
  let pending = Atomic.make n in
  let done_mutex = Mutex.create () in
  let done_cond = Condition.create () in
  let scope = Fair_obs.Scope.current () in
  let run i =
    results.(i) <-
      Some (try Ok (Fair_obs.Scope.within scope (fun () -> task i)) with e -> Error e);
    (* The last finisher (not necessarily the last claimer) wakes the
       caller, which may be parked below while a worker still runs. *)
    if Atomic.fetch_and_add pending (-1) = 1 then begin
      Mutex.lock done_mutex;
      Condition.signal done_cond;
      Mutex.unlock done_mutex
    end
  in
  let j = { run; n; next = Atomic.make 0 } in
  Mutex.lock pool_mutex;
  ensure_workers (min jobs n - 1);
  incr pooled_batches;
  job_box := Some j;
  incr job_gen;
  Condition.broadcast wake;
  Mutex.unlock pool_mutex;
  drain caller_stat j;
  let t_wait = Clock.now_ns () in
  Mutex.lock done_mutex;
  while Atomic.get pending > 0 do
    Condition.wait done_cond done_mutex
  done;
  Mutex.unlock done_mutex;
  let t_done = Clock.now_ns () in
  caller_stat.s_idle_ns <- caller_stat.s_idle_ns + (t_done - t_wait);
  if Otrace.enabled () then
    Otrace.emit_span ~cat:"pool"
      ~args:[ ("tasks", string_of_int n); ("jobs", string_of_int jobs) ]
      "pool.batch" ~ts_ns:t_start ~dur_ns:(t_done - t_start);
  collect results

let run_tasks ~jobs ~n (task : int -> 'a) : 'a list =
  if n = 0 then []
  else if jobs <= 1 || n = 1 then run_seq seq_batches n task
  else if Mutex.try_lock pool_busy then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool_busy)
      (fun () -> run_pooled ~jobs ~n task)
  else run_seq inline_batches n task

let map_range ~jobs ~chunk_size ~lo ~hi f =
  if chunk_size < 1 then invalid_arg "Parallel.map_range: chunk_size < 1";
  let span = hi - lo in
  if span <= 0 then []
  else
    let n = (span + chunk_size - 1) / chunk_size in
    run_tasks ~jobs ~n (fun k ->
        let clo = lo + (k * chunk_size) in
        f ~lo:clo ~hi:(min (clo + chunk_size) hi))
