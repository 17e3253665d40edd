(** Variance reduction for Monte-Carlo comparisons: common random numbers
    (CRN) and stratified sampling.

    {b Common random numbers.}  Separation and ratio experiments compare
    two configurations — u(Π) vs u(Π'), or one protocol under two payoff
    vectors.  Estimating each side on an independent trial stream pays for
    the shared noise (environment inputs, per-trial protocol randomness)
    twice.  {!paired} instead runs {e both} legs of trial [i] from the
    same master seed, so the two payoffs are positively correlated and

      Var(X_a − X_b) = Var(X_a) + Var(X_b) − 2 Cov(X_a, X_b)

    collapses by twice the covariance.  For the contract-signing and
    balance experiments the legs agree on most trials, so a paired run
    reaches a given 3σ tolerance on the difference (or ratio, via the
    delta method in {!ratio}) at several-fold fewer trials.

    {b Determinism.}  Trials are driven through {!Montecarlo.Trial.run}
    on the same fixed 64-trial chunk grid as {!Montecarlo.estimate}, with
    per-chunk bivariate accumulators merged in chunk order — paired
    results are bit-identical at any [jobs] value.  Moreover each leg's
    marginal recurrence is exactly the univariate Welford/Chan one, so
    [p.a.mean]/[p.a.std_err] equal (bitwise) the [utility]/[std_err] of a
    plain [Montecarlo.estimate] of that configuration with the same
    [trials] and [seed].

    {b Stratification.}  {!stratified} recombines per-stratum estimates of
    a known mixture (e.g. a uniformly random corruption target over two
    parties = ½ Fixed 1 + ½ Fixed 2), removing the mixture randomness
    from the variance: [se² = Σ w_k² se_k²]. *)

module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func

type leg = { protocol : Protocol.t; adversary : Adversary.t; gamma : Payoff.t }
(** One side of a paired comparison.  The function, environment and trial
    seeds are shared; protocol, adversary and payoff vector may differ. *)

type marginal = { mean : float; std_err : float }

type paired = {
  a : marginal;  (** leg [a]'s marginal — bit-identical to its unpaired estimate *)
  b : marginal;
  diff : float;  (** [a.mean - b.mean] *)
  diff_std_err : float;
      (** standard error of [diff] from the {e paired} variance — at most
          [sqrt (se_a² + se_b²)], smaller whenever the legs correlate *)
  covariance : float;  (** Bessel-corrected sample covariance of one pair *)
  trials : int;  (** completed pairs *)
  pair_faults : int;  (** pairs voided because either leg raised *)
}

(** The bivariate Welford/Chan accumulator behind {!paired}, exposed for
    callers that drive their own trial loops — notably the paired racer in
    [Fair_search.Racing], which replays per-arm payoff histories against
    the incumbent's.  Observations must be fed in trial order for results
    to be deterministic. *)
module Bacc : sig
  type t

  val create : unit -> t

  val observe : t -> float -> float -> unit
  (** [observe c xa xb] adds one pair (leg [a] payoff, leg [b] payoff). *)

  val void : t -> unit
  (** Void one pair (either leg faulted); counted in [pair_faults]. *)

  val finalize : t -> paired
end

val paired :
  ?overrides:Events.overrides ->
  ?jobs:int ->
  ?inject:(Fair_crypto.Rng.t -> Fair_exec.Engine.injector) ->
  ?fault_budget:float ->
  a:leg ->
  b:leg ->
  func:Func.t ->
  env:Montecarlo.environment ->
  trials:int ->
  seed:int ->
  unit ->
  paired
(** Run [trials] paired trials.  Trial [i] of each leg is seeded exactly
    like trial [i] of [Montecarlo.estimate ~seed], so both legs see the
    same environment draws and per-trial randomness.  A pair where either
    leg raises is voided (both marginals drop it) and counted in
    [pair_faults]; [fault_budget] (default 0.1) is enforced as in
    {!Montecarlo.estimate}.
    @raise Invalid_argument if [trials < 1] or [fault_budget] is outside
    [0,1].
    @raise Montecarlo.Fault_budget_exceeded past the budget. *)

val ratio : paired -> float * float
(** [(r, se)] for [r = a.mean /. b.mean], with the delta-method standard
    error [Var r ≈ (se_a² + r²·se_b² − 2r·Cov(ā,b̄)) / b̄²] — the
    covariance term is what CRN buys.
    @raise Invalid_argument if [b.mean = 0]. *)

type stratum = { weight : float; s_mean : float; s_std_err : float }

val stratified : stratum list -> marginal
(** Recombine per-stratum estimates of a known mixture:
    [mean = Σ w_k m_k], [se = sqrt (Σ w_k² se_k²)].
    @raise Invalid_argument if the weights do not sum to 1 (±1e-9) or the
    list is empty. *)
