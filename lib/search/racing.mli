(** Best-response search as a budgeted bandit race.

    Candidate adversaries are arms; the supremum in [sup_A u(Π, A)] is found
    by {e racing} the arms under a shared trial budget instead of giving
    every strategy the same (mostly wasted) sample size.  All surviving
    arms pull the {e same} trial indices of one shared seed grid, so
    elimination reads the common-random-numbers paired difference against
    the incumbent ({!Fairness.Crn}) rather than two independent intervals:
    correlated arms get far tighter gaps per trial, and the race can
    {e settle} (stop early) once only exact ties of the incumbent survive.

    - every surviving arm receives the same batch of fresh shared trials
      per round (batches double);
    - after each round the {e incumbent} is the arm with the highest
      marginal lower confidence bound [mean − 3·std_err] (ties to the lower
      arm index), and a rival dies when its paired difference against the
      incumbent is bounded below zero;
    - surviving arms split the remaining budget until it cannot fund one
      more trial per survivor.

    {b Determinism.} Trial [t] of arm [a] depends on [(seed, t, a)] only,
    batches are merged in arm order on the scheduling domain, and every
    decision reads the merged accumulators — so the whole race (and any
    certificate derived from it) is bit-identical for every [jobs] value.
    {!race_target} pulls trial-major: chunks of a round's (trial, arm)
    cells run on the pool ({!Fairness.Parallel.map_range}), and a chunk
    builds each of its trials' adversary-independent prelude once and
    plays its arms on it; parallelism only decides which domain evaluates
    which chunk. *)

module Mc = Fairness.Montecarlo

type arm_status = {
  arm_ix : int;  (** index into the race's arm array *)
  pulls : int;  (** total trials accumulated so far *)
  mean : float;
  lcb : float;  (** [mean − 3·std_err] *)
  ucb : float;  (** [mean + 3·std_err] *)
}
(** One surviving arm's confidence state at the end of a round. *)

type round_log = {
  index : int;  (** 1-based round number *)
  batch : int;  (** fresh trials given to each survivor this round *)
  statuses : arm_status list;  (** survivors entering the round, arm order *)
  incumbent : int;  (** arm index with the highest lower bound *)
  eliminated : int list;  (** arm indices killed this round, ascending *)
}
(** Telemetry for one racing round.  Derived entirely from the
    deterministically-merged accumulators, so the log — like the race
    itself — is bit-identical at any [jobs] value. *)

type 'a standing = {
  arm : 'a;
  estimate : Mc.estimate;
  eliminated_in : int option;
      (** the 1-based round that killed the arm; [None] = survivor *)
}

type 'a outcome = {
  best : 'a;
  best_estimate : Mc.estimate;
  spent : int;  (** total trials consumed, ≤ budget *)
  rounds : int;
  standings : 'a standing list;  (** in arm order *)
  log : round_log list;  (** chronological; one entry per round *)
}

val race_paired :
  arms:'a list ->
  pull:('a array -> lo:int -> hi:int -> Mc.Trial.obs option array array) ->
  budget:int ->
  unit ->
  'a outcome
(** Race on a {e shared} seed grid with CRN-paired elimination.

    [pull survivors ~lo ~hi] is called once per round with the surviving
    arms in arm order, and must return one array per survivor, in the
    same order: the observations of trials [\[lo, hi)] of the {e shared}
    grid under that arm ([None] = the trial faulted, as from
    {!Mc.Trial.run}).  Trial [t] must derive its environment and per-trial
    randomness from [t] alone — identical across arms — which is exactly
    what driving {!Mc.Trial.run} with one [seed_prefix] for every arm
    gives, and an arm's observation must not depend on which other arms
    were pulled with it.  Ranges are contiguous and increasing; all live
    histories cover the same grid prefix.  Parallelism, if any, is the
    pull's business.

    Scheduling: doubling batches from a first batch of
    [min 64 (max 16 (budget / 4k))] for [k] arms (shrunk so wide spaces get
    several elimination rounds); the incumbent is the best {e marginal}
    lower bound.  A rival dies when its paired difference against the
    incumbent is bounded below zero: [diff + 3·diff_std_err < 0], with
    [diff]/[diff_std_err] from the bivariate Welford/Chan accumulator over
    the common trials ({!Fairness.Crn.Bacc}; pairs where either leg faulted
    are voided; at least 2 completed pairs are required).  A rival whose
    history is bitwise-identical to the incumbent's is an {e exact tie}
    ([diff = 0] and [diff_std_err = 0], exactly — identical recurrences
    cancel bitwise) and is never killed; it keeps pulling alongside the
    incumbent so its marginal stays bitwise-equal.  Once every surviving
    rival is an exact tie and the incumbent holds at least 256 trials, the
    race {e settles}: fresh shared trials can never separate
    bitwise-equal histories, so it stops instead of spending the rest of
    the budget (metric [race.settled]).

    Determinism: batches are merged in arm order on the calling domain
    and every decision reads merged accumulators/histories, so the outcome
    is a function of the pulled observations alone.  Sends one progress
    point per round,
    the incumbent's running marginal, to the calling domain's
    {!Fair_obs.Scope}.

    @raise Invalid_argument on an empty arm list, a [budget] below the arm
    count (every arm needs at least one trial; the message names both
    numbers), or a [pull] returning the wrong number of batches or a
    wrong-sized one. *)

(** {2 Monte-Carlo-backed racing} *)

type target = {
  protocol : Fair_exec.Protocol.t;
  func : Fair_mpc.Func.t;
  gamma : Fairness.Payoff.t;
  env : Mc.environment;
  overrides : Fairness.Events.overrides;
}

val race_target :
  jobs:int ->
  target:target ->
  arms:Fair_exec.Adversary.t list ->
  budget:int ->
  seed:int ->
  Fair_exec.Adversary.t outcome
(** {!race_paired} of [arms] against [target] on the shared grid
    [Mc.Trial.seed_prefix seed]: arm [a]'s trial [t] equals
    [Mc.Trial.run ~adversary:a ~prefix t], so the race is reproducible from
    [seed] alone.  A round's (trial, survivor) cells are walked
    trial-major in about 16 chunks on {!Fairness.Parallel.map_range} (up
    to [jobs] domains): whole trials when a chunk holds at least one, so
    a round of 16 trials or more builds each prelude once, while a
    shorter round (at budget 2000, the n-party targets' rounds of 10
    trials and of 1) splits a trial's survivors between chunks to stay
    spread over the domains.  Per trial a chunk builds the prelude ({!Mc.Trial.prepare})
    once and plays its survivors on it ({!Mc.Trial.play}), so [mc.trials]
    and [engine.*] count one per (arm, trial) while the inputs, the
    dealer's setup and the honest machines are built once per trial and
    chunk.  The chunks depend only on the round's shape, so the work done
    (e.g. [sha256.blocks]) is the same at any [jobs].  One [race.pull]
    span per chunk.  Used by the registry searches and the γ/n grids
    ([Fair_analysis.Experiments.searched], [gamma_grid], [n_grid]). *)
