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

    {b Determinism.} Trial [t] depends on [(seed, t)] only, batches are
    merged in arm order on the scheduling domain, and every decision reads
    the merged accumulators — so the whole race (and any certificate
    derived from it) is bit-identical for every [jobs] value; parallelism
    only decides which domain evaluates which arm
    ({!Fairness.Parallel.map_list}). *)

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
  ?jobs:int ->
  arms:'a list ->
  pull:('a -> lo:int -> hi:int -> Mc.Trial.obs option array) ->
  budget:int ->
  unit ->
  'a outcome
(** Race on a {e shared} seed grid with CRN-paired elimination.

    [pull arm ~lo ~hi] must return the observations of trials [\[lo, hi)]
    of the {e shared} grid under [arm] ([None] = the trial faulted, as from
    {!Mc.Trial.run}): trial [t] must derive its environment and per-trial
    randomness from [t] alone — identical across arms — which is exactly
    what driving {!Mc.Trial.run} with one [seed_prefix] for every arm
    gives.  Ranges are contiguous and increasing; every survivor is asked
    for the same range each round, so all live histories cover the same
    grid prefix.

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

    Determinism: batches are merged in arm order on the scheduling domain
    and every decision reads merged accumulators/histories, so outcomes are
    bit-identical at any [jobs] value.  Fires the {!Mc.set_progress_hook}
    stream once per round with the incumbent's running marginal.

    @raise Invalid_argument on an empty arm list, a [budget] below the arm
    count (every arm needs at least one trial; the message names both
    numbers), or a [pull] returning a wrong-sized batch. *)

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
    [Mc.Trial.seed_prefix seed]: arm [a]'s trial [t] is
    [Mc.Trial.run ~adversary:a ~prefix t], so the race is reproducible from
    [seed] alone.  Used by the registry searches
    ([Fair_analysis.Experiments.searched]) and the landscapes
    ({!Landscape}). *)
