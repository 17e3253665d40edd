(** A minimal hand-rolled persistent domain pool (domainslib is not
    available in the build image).

    Worker domains are spawned lazily on the first call that wants them,
    parked on a condition variable between calls, fed later task batches
    through a shared atomic queue, and joined at process exit — so the
    per-call cost of [map_range] is a broadcast, not a
    [Domain.spawn]/[join] round trip.  This matters because the trial loop
    ({!Montecarlo.Trial.plays}) issues one small batch per call, and the
    racer one call per round, many per race.

    The contract that makes Monte-Carlo results bit-identical at any
    parallelism: work is split into {e fixed-size chunks whose boundaries
    depend only on the index range}, never on the job count; each chunk is
    computed independently (on whichever domain picks it up), and the
    caller receives the chunk results {e in chunk-index order}.  Any
    left-fold merge over that list is therefore deterministic — the job
    count only decides which domain computes a chunk, not the shape of the
    reduction.

    The pool serves one call at a time: a concurrent call (e.g. two
    service workers computing at once) or a nested one (a task that itself
    calls [map_range]; the library makes none) runs inline on the calling
    domain instead of waiting, so it can never deadlock.

    The pool is instrumented: per-participant task/busy/idle accounting is
    always on (a handful of monotonic-clock reads per batch — see
    {!pool_stats}), and when {!Fair_obs.Trace} is enabled it emits
    [pool.batch] spans on the caller and [pool.park] spans on the workers.
    Neither touches task scheduling, so the determinism contract is
    unaffected. *)

val default_jobs : int
(** [Domain.recommended_domain_count ()], clamped to at least 1. *)

val map_range :
  jobs:int -> chunk_size:int -> lo:int -> hi:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** [map_range ~jobs ~chunk_size ~lo ~hi f] splits [\[lo, hi)] into chunks
    [\[lo + k*chunk_size, lo + (k+1)*chunk_size) ∩ \[lo, hi)], evaluates
    [f ~lo ~hi] on each chunk using up to [jobs] domains (the caller plus
    pooled workers, work-stealing via a shared atomic counter), and returns
    the results in chunk-index order.  [jobs <= 1] runs everything on the
    calling domain.

    {e Worker-chunk containment:} a chunk whose evaluation raised never
    poisons the pool (workers park the exception in the chunk's result
    slot and stay alive).  No chunk is ever re-run: the first failing
    chunk in chunk order re-raises its exception in the caller (on the
    pool, once the batch has completed).
    @raise Invalid_argument if [chunk_size < 1]. *)

(** {2 Pool observability} *)

type worker_stats = {
  tasks : int;
      (** tasks claimed from the shared counter, counted at the claim:
          exact as soon as the batch has returned *)
  busy_ns : int;  (** monotonic ns spent inside [drain] (executing tasks) *)
  idle_ns : int;
      (** workers: ns parked between jobs; caller: ns waiting for
          stragglers after its own drain *)
}

type stats = {
  spawned : int;  (** worker domains spawned since process start *)
  pooled_batches : int;  (** [run_tasks] calls served by the pool *)
  seq_batches : int;
      (** [run_tasks] calls that were sequential by construction:
          [jobs <= 1] or a single task.  Expected, not a symptom. *)
  inline_batches : int;
      (** parallel [run_tasks] calls ([jobs > 1], [n > 1]) that degraded
          to the calling domain because the pool was busy serving another
          batch.  A persistently non-zero value on a multi-core host means
          concurrent computations (the service's workers) are contending
          for the pool. *)
  caller : worker_stats;
      (** aggregated over every domain that led a pooled batch *)
  workers : worker_stats list;  (** in spawn order *)
}

val pool_stats : unit -> stats
(** Cumulative pool accounting.  Exact at quiescent points (no pooled call
    in flight); a monotone approximation if read mid-batch.  The per-worker
    busy/idle split is what explains a "parallel slowdown" on a starved
    host: one core means workers serialize, so busy time stays low while
    the caller's wait grows. *)
