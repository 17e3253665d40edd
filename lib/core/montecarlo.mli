(** Monte-Carlo estimation of an adversary's expected utility û(Π, A)
    against a protocol (Equation 2 of the paper, with the best-simulator
    event mapping supplied by {!Events.classify}).

    Each trial derives an independent generator from the master seed
    ([mc:<seed>:<i>]), draws environment inputs, runs the engine, classifies
    the execution, and accumulates per-event counts.  Because trial [i]
    depends only on [(seed, i)], trials are embarrassingly parallel: the
    range is split into fixed-size chunks executed across up to [jobs]
    domains (see {!Parallel}), and the per-chunk accumulators are merged in
    chunk-index order.  {b Determinism guarantee:} the same [seed] and trial
    schedule produce bit-identical estimates for every value of [jobs].

    Estimates carry the standard error of the utility so bound checks can be
    phrased as "≤ bound + 3σ" — the finite-sample reading of the paper's
    negligible slack.  The variance is computed with a merge-friendly
    Welford/Chan recurrence and Bessel correction ([M2/(n-1)]), i.e. it is
    the unbiased sample variance, not the population variance. *)

module Rng = Fair_crypto.Rng
module Engine = Fair_exec.Engine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func

type environment = Rng.t -> string array
(** The environment: draws the parties' inputs for one trial. *)

val fixed_inputs : string array -> environment
val uniform_field_inputs : n:int -> environment
(** Independent uniform field elements (as decimal strings) — exponential-
    size domains, as required by the lower-bound experiments. *)

val uniform_bit_inputs : n:int -> environment
val uniform_mod_inputs : m:int -> n:int -> environment

type convergence_point = Fair_obs.Scope.progress = {
  after : int;  (** total trials accumulated after this batch *)
  batch : int;  (** trials this batch added *)
  running_mean : float;
  running_std_err : float;
}
(** One row of an estimate's convergence trajectory.  Derived from the
    deterministically-merged accumulator, so the whole trajectory is — like
    the estimate itself — bit-identical at any [jobs] value. *)

type estimate = {
  utility : float;  (** empirical û *)
  std_err : float;  (** Bessel-corrected standard error of [utility] *)
  distribution : Utility.distribution;
  counts : (Events.event * int) list;  (** sorted by event *)
  corrupted_counts : (int * int) list;
      (** (#corrupted, occurrences), sorted by #corrupted *)
  breaches : int;  (** correctness breaches observed *)
  trials : int;  (** trials actually spent (≥ [trials] in adaptive mode) *)
  trial_faults : int;
      (** trials that raised and were excluded from the mean (trial-level
          isolation); 0 in a clean run *)
  trajectory : convergence_point list;
      (** chronological; one point per adaptive batch (a single point for
          fixed-size runs), so adaptive stopping is auditable after the
          fact *)
}

exception Fault_budget_exceeded of { faulted : int; attempted : int; budget : float }
(** Raised by {!estimate} when more than [fault_budget · attempted] trials
    faulted: excluding trials conditions the estimator on "the trial
    completed", which is only sound while faults are rare, so past the
    threshold the estimate fails loudly instead of silently biasing.  Also
    raised — whatever the budget — when {e every} trial faulted, because a
    mean over zero completed trials does not exist. *)

val estimate :
  ?overrides:Events.overrides ->
  ?jobs:int ->
  ?target_std_err:float ->
  ?max_trials:int ->
  ?inject:(Rng.t -> Engine.injector) ->
  ?fault_budget:float ->
  protocol:Protocol.t ->
  adversary:Adversary.t ->
  func:Func.t ->
  gamma:Payoff.t ->
  env:environment ->
  trials:int ->
  seed:int ->
  unit ->
  estimate
(** [jobs] (default {!Parallel.default_jobs}) bounds the number of domains
    used; it never affects the numbers, only the wall clock.

    Without [target_std_err], exactly [trials] trials run.  With
    [?target_std_err:σ*], {e adaptive sampling}: batches run (starting at
    [trials], doubling the total each round) until the measured standard
    error drops to [σ*] or the total reaches [max_trials] (default
    [20 * trials]); [estimate.trials] reports how many were actually spent.
    The stopping rule reads the deterministically-merged accumulator, so
    adaptive runs are also jobs-independent.

    [inject] builds a per-trial fault injector (see {!Fair_faults}) from
    the trial's ["faults"] RNG split; because {!Rng.split} does not advance
    its parent, passing an injector that does nothing — or passing no
    [inject] at all — yields bit-identical estimates.  {e Trial-level
    isolation:} a trial that raises a non-fatal exception is counted in
    [estimate.trial_faults] (metric [mc.trial_faults]) and excluded from
    the mean rather than aborting the estimate; which trials fault is a
    deterministic function of (seed, i), so faulted estimates remain
    jobs-invariant.  [fault_budget] (default [0.1]) is the tolerated
    faulted fraction of attempted trials.  Each batch's convergence point
    goes to the {!Fair_obs.Scope} sink once merged; a non-fatal raise
    there is ignored.

    @raise Invalid_argument if [trials < 1], [target_std_err <= 0] or
    [fault_budget] is outside [0,1].
    @raise Fault_budget_exceeded past the budget. *)

(** {2 Incremental accumulation}

    The best-response racer ([Fair_search.Racing]) grows per-arm
    estimates trial by trial.  {!Acc.t} is the same Welford/Chan
    accumulator {!estimate} uses internally; {!Trial.observe} folds one
    trial into it. *)

module Acc : sig
  type t

  val create : unit -> t
  val count : t -> int
  val mean : t -> float

  val std_err : t -> float
  (** Bessel-corrected standard error of the running mean (0 below 2
      observations). *)

  val record_fault : t -> unit
  (** Count one faulted (excluded) trial, as {!estimate}'s inner loop does
      — callers that drive trials themselves keep [trial_faults] honest. *)

  val finalize : t -> estimate
end

(** {2 Single-trial hook}

    {!Crn} (common-random-numbers pairing) needs to observe the {e same}
    (seed, i) trial stream under several configurations.  [Trial.run]
    executes exactly the trial {!estimate} would run for index [i] —
    same seeding, same env/exec/faults splits, same classification — and
    returns the observation instead of folding it into an accumulator. *)

module Trial : sig
  type obs = {
    t_payoff : float;  (** γ-payoff of the classified event *)
    t_event : Events.event;
    t_corrupted : int;  (** corrupted-party count *)
    t_breach : bool;  (** correctness breach *)
  }

  val seed_prefix : int -> string
  (** [seed_prefix seed] is the ["mc:<seed>:"] prefix; [prefix ^
      string_of_int i] seeds trial [i] exactly as {!estimate} does. *)

  val run :
    ?overrides:Events.overrides ->
    ?inject:(Rng.t -> Engine.injector) ->
    protocol:Protocol.t ->
    adversary:Adversary.t ->
    func:Func.t ->
    gamma:Payoff.t ->
    env:environment ->
    prefix:string ->
    int ->
    obs option
  (** [None] when the trial raised (trial-level isolation; metric
      [mc.trial_faults] is bumped).  Callers own fault accounting and
      budgets.  Every trial, here or in {!estimate}, counts one
      [mc.trials]. *)

  val observe : Acc.t -> obs -> unit
  (** Fold one observation into an accumulator with the full event
      bookkeeping {!estimate}'s inner loop applies, so an accumulator grown
      trial-by-trial finalizes to the same estimate a batched run yields
      (observations must be fed in trial order for bit-identical
      results). *)
end

val estimate_with_cost : estimate -> cost:(int -> float) -> float
(** Reinterpret an estimate under corruption costs (Equation 5). *)

val best_response :
  ?overrides:Events.overrides ->
  ?jobs:int ->
  ?target_std_err:float ->
  ?max_trials:int ->
  ?inject:(Rng.t -> Engine.injector) ->
  ?fault_budget:float ->
  protocol:Protocol.t ->
  adversaries:Adversary.t list ->
  func:Func.t ->
  gamma:Payoff.t ->
  env:environment ->
  trials:int ->
  seed:int ->
  unit ->
  Adversary.t * estimate
(** sup over a finite adversary zoo: the strategy with the highest measured
    utility, with ties broken by listing order.  [jobs]/[target_std_err]/
    [max_trials] are passed through to each per-adversary {!estimate}.
    @raise Invalid_argument on an empty zoo. *)

val within_bound : estimate -> bound:float -> bool
(** [utility <= bound + 3·std_err + 1e-9]. *)

val attains_bound : estimate -> bound:float -> bool
(** [utility >= bound - 3·std_err - 1e-9]. *)
