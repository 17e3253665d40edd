(** Monte-Carlo estimation of an adversary's expected utility û(Π, A)
    against a protocol (Equation 2 of the paper, with the best-simulator
    event mapping supplied by {!Events.classify}).

    Each trial derives an independent generator from the master seed
    ([mc:<seed>:<i>]), draws environment inputs, runs the engine, classifies
    the execution, and accumulates per-event counts.  Because trial [i]
    depends only on [(seed, i)], trials are embarrassingly parallel.  One
    loop plays them all ({!Trial.plays}): every estimate, zoo supremum,
    paired leg ({!Crn}) and racing round cuts its (trial, arm) cells into
    about 16 pool tasks (see {!Parallel}) and builds each trial's prelude
    once for the arms it plays.  Each arm's observations are then folded
    in fixed 64-trial chunks, merged in chunk order ({!fold_chunks}), so no
    number depends on where the pool cut its tasks.  {b Determinism
    guarantee:} the same [seed] and trial schedule produce bit-identical
    estimates for every value of [jobs].

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

type estimate = {
  utility : float;  (** empirical û *)
  std_err : float;  (** Bessel-corrected standard error of [utility] *)
  distribution : Utility.distribution;
  counts : (Events.event * int) list;  (** sorted by event *)
  corrupted_counts : (int * int) list;
      (** (#corrupted, occurrences), sorted by #corrupted *)
  breaches : int;  (** correctness breaches observed *)
  trials : int;  (** trials that completed and enter the mean *)
  trial_faults : int;
      (** trials that raised and were excluded from the mean (trial-level
          isolation); 0 in a clean run *)
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
(** Runs exactly [trials] trials, indices [\[0, trials)].  [jobs]
    (default {!Parallel.default_jobs}) bounds the number of domains used;
    it never affects the numbers, only the wall clock.  The sample size is
    fixed in advance, never chosen from the running standard error:
    stopping on σ̂ would bias the mean the bound checks read.

    [inject] builds a per-trial fault injector (see {!Fair_faults}) from
    the trial's ["faults"] RNG split; because {!Rng.split} does not advance
    its parent, passing an injector that does nothing — or passing no
    [inject] at all — yields bit-identical estimates.  {e Trial-level
    isolation:} a trial that raises a non-fatal exception is counted in
    [estimate.trial_faults] (metric [mc.trial_faults]) and excluded from
    the mean rather than aborting the estimate; which trials fault is a
    deterministic function of (seed, i), so faulted estimates remain
    jobs-invariant.  [fault_budget] (default [0.1]) is the tolerated
    faulted fraction of attempted trials.  Once the trials are folded, one
    {!Fair_obs.Scope.progress} point goes to the current scope's sink; a
    non-fatal raise there is ignored.

    @raise Invalid_argument if [trials < 1] or [fault_budget] is outside
    [0,1].
    @raise Fault_budget_exceeded past the budget. *)

(** {2 Folding observations} *)

val fold_chunks : create:(unit -> 'a) -> merge:('a -> 'a -> 'a) -> int -> ('a -> int -> unit) -> 'a
(** [fold_chunks ~create ~merge n add] is how every estimate (and
    {!Crn.paired}) folds observations [0 .. n-1]: [add c i] into a fresh
    [c = create ()] per chunk [\[64j, 64j + 64)], then the chunks merged
    left to right into [create ()].  The merge tree depends only on [n]. *)

val check_fault_budget : fault_budget:float -> completed:int -> faulted:int -> unit
(** The fault-budget rule of {!estimate}: raises {!Fault_budget_exceeded}
    when [faulted > fault_budget · (completed + faulted)], or when some
    trial faulted and none completed. *)

(** {2 Incremental accumulation}

    The racer ([Fair_search.Racing]) grows per-arm estimates trial by
    trial in {!Acc.t}, the accumulator {!estimate} folds its chunks into,
    through {!Trial.observe}. *)

module Acc : sig
  type t

  val create : unit -> t
  val count : t -> int
  val mean : t -> float

  val std_err : t -> float
  (** Bessel-corrected standard error of the running mean (0 below 2
      observations). *)

  val record_fault : t -> unit
  (** Count one faulted (excluded) trial, as {!estimate}'s fold does —
      callers that fold trials themselves keep [trial_faults] honest. *)

  val finalize : t -> estimate
end

(** {2 The trial loop}

    {!Trial.plays} plays the arms of every estimate, zoo supremum, CRN leg
    and racing round on one (seed, i) trial stream: per (arm, trial) it is
    [play (prepare …)], with each trial's prelude shared by the arms
    played on it (see {!Engine.prepare} for what that asks of a
    protocol). *)

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

  type prelude
  (** Trial [i]'s adversary-independent half: its master generator, the
      environment's inputs and the prepared engine state
      ({!Engine.prepared}), or the record that building them raised. *)

  val prepare : protocol:Protocol.t -> env:environment -> prefix:string -> int -> prelude
  (** Draw trial [i]'s inputs and build its prelude.  Never raises a
      non-fatal exception: a raise is kept and faults every {!play} of the
      prelude.  Counts nothing; the plays do.  A prelude serves one target:
      every {!play} of it must pass the same [overrides], [func] and
      [gamma], because it remembers the observations it classified. *)

  val play :
    overrides:Events.overrides ->
    adversary:Adversary.t ->
    func:Func.t ->
    gamma:Payoff.t ->
    prelude ->
    obs option
  (** Run [adversary] against the prelude and classify the outcome.  The
      functionality and the adversary instance are built afresh for every
      play, so plays of one prelude are independent as long as the
      protocol's party machines are persistent.  Injects no faults
      ({!plays}' [?inject] does).  A keyed adversary whose play the prelude
      has already run gets that outcome back ({!Engine.run_prepared}), and
      then its observation too: the prelude remembers the observation of
      every outcome it classified (by physical identity), so the repeat
      runs neither an execution nor {!Events.classify}.  A new outcome is
      classified with the legitimate outputs of its corrupted set
      ({!Events.legitimate_outputs}), which the prelude evaluates once per
      corrupted set and keeps.  Counts one [mc.trials] either way; [None]
      (and one [mc.trial_faults]) when the prelude, the play or its
      classification raised. *)

  val plays :
    ?inject:(Rng.t -> Engine.injector) ->
    ?jobs:int ->
    overrides:Events.overrides ->
    protocol:Protocol.t ->
    func:Func.t ->
    gamma:Payoff.t ->
    env:environment ->
    seed:int ->
    Adversary.t array ->
    lo:int ->
    hi:int ->
    obs option array array
  (** [plays ~seed arms ~lo ~hi] is one array per arm, in arm order: the
      arm's observations of trials [\[lo, hi)] of the grid [seed_prefix
      seed], in trial order ([None]: the trial faulted; callers own fault
      budgets).  Arm [a]'s trial [t] is [play (prepare … t)], with faults
      injected from the trial's ["faults"] split when [inject] is given.
      Every arm of a call must serve one target (see {!prepare}).

      The (trial, arm) cells are walked trial-major in about 16 chunks on
      {!Parallel.map_range} (up to [jobs] domains, default
      {!Parallel.default_jobs}): whole trials when a
      chunk holds at least one, so a call of 16 trials or more builds each
      prelude once; a shorter call (at budget 2000, the n-party targets'
      racing rounds of 10 trials and of 1) splits a trial's arms between
      chunks.  Keyed arms that play the same coalition on one prelude
      share one execution and classification (never under [inject]).  The
      chunks depend only on the call's shape, so the observations and the
      work done (e.g. [sha256.blocks], [engine.executions]) are the same
      at any [jobs].  One [mc.plays] span per chunk. *)

  val observe : Acc.t -> obs -> unit
  (** Fold one observation into an accumulator with the full event
      bookkeeping {!estimate}'s fold applies.  Grown trial by trial, an
      accumulator is Welford over every observation, not {!estimate}'s
      merged 64-trial chunks: the two agree bit for bit only up to 64
      observations.  Racer standings and certificates are in this form. *)
end

val estimate_with_cost : estimate -> cost:(int -> float) -> float
(** Reinterpret an estimate under corruption costs (Equation 5). *)

val best_response :
  ?overrides:Events.overrides ->
  ?jobs:int ->
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
    utility, with ties broken by listing order.  The zoo plays in one
    {!Trial.plays} call, one prelude per trial, and each member's estimate
    is its own {!estimate}, bit for bit.  The members are budget-checked
    and report one progress point each in zoo order, so the first member
    past its budget raises.  The optional arguments are {!estimate}'s.
    @raise Invalid_argument on an empty zoo, or as {!estimate} does. *)
