module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func
module Metrics = Fair_obs.Metrics

let c_pairs = Metrics.counter "crn.pairs"
let c_pair_faults = Metrics.counter "crn.pair_faults"

(* ------------------------------------------------------------------ *)
(* Common random numbers.  To compare two configurations (protocol,
   adversary, payoff vector), running them on *independent* trial streams
   wastes most of the budget on noise both legs share: the environment
   inputs and the per-trial randomness.  Running both legs of trial [i]
   from the same master seed makes the two payoffs positively correlated,
   and the variance of their difference

     Var(X_a - X_b) = Var(X_a) + Var(X_b) - 2 Cov(X_a, X_b)

   shrinks by twice the covariance — in these experiments the legs agree
   on most trials, so the paired difference needs an order of magnitude
   fewer trials for the same confidence interval.

   The estimator is a bivariate extension of {!Montecarlo}'s accumulator:
   Welford within a chunk, Chan et al. pairwise merge between chunks, with
   the co-moment C = Σ (x - x̄)(y - ȳ) carried alongside the two M2s.
   Chunk boundaries are the same fixed 64-trial grid, merged in chunk
   order, so paired estimates inherit the bit-identical-at-any-[jobs]
   contract.  Leg [a]'s marginal recurrence is exactly the univariate one,
   so [mean_a]/[std_err_a] are bit-identical to what [Montecarlo.estimate]
   reports for the same (configuration, trials, seed). *)

type bacc = {
  mutable count : int;
  mutable mean_a : float;
  mutable mean_b : float;
  mutable m2a : float;
  mutable m2b : float;
  mutable cab : float; (* co-moment Σ (x_a - mean_a)(x_b - mean_b) *)
  mutable faulted : int; (* pairs where either leg raised *)
}

let bacc_create () =
  { count = 0; mean_a = 0.0; mean_b = 0.0; m2a = 0.0; m2b = 0.0; cab = 0.0; faulted = 0 }

let bacc_observe c xa xb =
  c.count <- c.count + 1;
  let n = float_of_int c.count in
  let da = xa -. c.mean_a in
  c.mean_a <- c.mean_a +. (da /. n);
  let db = xb -. c.mean_b in
  c.mean_b <- c.mean_b +. (db /. n);
  c.m2a <- c.m2a +. (da *. (xa -. c.mean_a));
  c.m2b <- c.m2b +. (db *. (xb -. c.mean_b));
  (* One-pass co-moment: delta of the old mean on one side, the fresh mean
     on the other — the cross term telescopes exactly. *)
  c.cab <- c.cab +. (da *. (xb -. c.mean_b))

(* Merge [y] into [x] (left operand of the chunk-order fold). *)
let bacc_merge x y =
  x.faulted <- x.faulted + y.faulted;
  if y.count > 0 then begin
    let nx = float_of_int x.count and ny = float_of_int y.count in
    let n = nx +. ny in
    let da = y.mean_a -. x.mean_a in
    let db = y.mean_b -. x.mean_b in
    x.mean_a <- x.mean_a +. (da *. ny /. n);
    x.mean_b <- x.mean_b +. (db *. ny /. n);
    x.m2a <- x.m2a +. y.m2a +. (da *. da *. nx *. ny /. n);
    x.m2b <- x.m2b +. y.m2b +. (db *. db *. nx *. ny /. n);
    x.cab <- x.cab +. y.cab +. (da *. db *. nx *. ny /. n);
    x.count <- x.count + y.count
  end;
  x

type marginal = { mean : float; std_err : float }

type paired = {
  a : marginal;
  b : marginal;
  diff : float;
  diff_std_err : float;
  covariance : float; (* Bessel-corrected sample covariance of one pair *)
  trials : int;
  pair_faults : int;
}

let finalize c =
  let n = float_of_int c.count in
  let sem m2 =
    if c.count < 2 then 0.0 else sqrt (max 0.0 m2 /. (n -. 1.0) /. n)
  in
  let cov = if c.count < 2 then 0.0 else c.cab /. (n -. 1.0) in
  let diff_var =
    (* Var of the mean difference: (M2a + M2b - 2C) / (n-1) / n.  Clamped:
       the three moments are each exact, but their combination can go
       epsilon-negative when the legs agree on every trial. *)
    if c.count < 2 then 0.0 else max 0.0 ((c.m2a +. c.m2b -. (2.0 *. c.cab)) /. (n -. 1.0) /. n)
  in
  { a = { mean = c.mean_a; std_err = sem c.m2a };
    b = { mean = c.mean_b; std_err = sem c.m2b };
    diff = c.mean_a -. c.mean_b;
    diff_std_err = sqrt diff_var;
    covariance = cov;
    trials = c.count;
    pair_faults = c.faulted }

(* Exposed for callers that drive their own trial loops (the paired racer
   in [Fair_search.Racing] feeds arm histories through this directly). *)
module Bacc = struct
  type t = bacc

  let create = bacc_create
  let observe = bacc_observe
  let void c = c.faulted <- c.faulted + 1
  let finalize = finalize
end

type leg = { protocol : Protocol.t; adversary : Adversary.t; gamma : Payoff.t }

let paired ?(overrides = Events.no_overrides) ?(jobs = Parallel.default_jobs) ?inject
    ?(fault_budget = 0.1) ~a:(la : leg) ~b:(lb : leg) ~func ~env ~trials ~seed () =
  if trials < 1 then invalid_arg "Crn.paired: trials < 1";
  if fault_budget < 0.0 || fault_budget > 1.0 then
    invalid_arg "Crn.paired: fault_budget outside [0,1]";
  let prefix = Montecarlo.Trial.seed_prefix seed in
  let run_leg (l : leg) i =
    Montecarlo.Trial.run ~overrides ?inject ~protocol:l.protocol ~adversary:l.adversary ~func
      ~gamma:l.gamma ~env ~prefix i
  in
  let chunks =
    (* Same fixed chunk grid as Montecarlo: boundaries depend only on the
       trial range, so the merge tree — and the numbers — are
       jobs-invariant. *)
    Parallel.map_range ~jobs ~chunk_size:64 ~lo:0 ~hi:trials (fun ~lo ~hi ->
        let c = bacc_create () in
        for i = lo to hi - 1 do
          Metrics.incr c_pairs;
          match (run_leg la i, run_leg lb i) with
          | Some oa, Some ob ->
              bacc_observe c oa.Montecarlo.Trial.t_payoff ob.Montecarlo.Trial.t_payoff
          | _ ->
              (* Either leg faulting voids the pair: keeping the surviving
                 leg would unbalance the marginals against the unpaired
                 estimator. *)
              c.faulted <- c.faulted + 1;
              Metrics.incr c_pair_faults
        done;
        c)
  in
  let c = List.fold_left bacc_merge (bacc_create ()) chunks in
  if c.faulted > 0 then begin
    let attempted = c.count + c.faulted in
    if c.count = 0 || float_of_int c.faulted > fault_budget *. float_of_int attempted then
      raise
        (Montecarlo.Fault_budget_exceeded
           { faulted = c.faulted; attempted; budget = fault_budget })
  end;
  finalize c

(* Delta method for the ratio r = ā/b̄ of two correlated means:
   Var(r) ≈ (Var ā + r² Var b̄ - 2 r Cov(ā, b̄)) / b̄², with
   Cov(ā, b̄) = C/(n-1)/n.  With common random numbers the covariance term
   subtracts, which is where the pairing pays off for ratio checks. *)
let ratio p =
  if p.b.mean = 0.0 then invalid_arg "Crn.ratio: denominator mean is 0";
  let r = p.a.mean /. p.b.mean in
  let n = float_of_int p.trials in
  let cov_means = if p.trials < 1 then 0.0 else p.covariance /. n in
  let var =
    max 0.0
      ((p.a.std_err ** 2.0) +. (r *. r *. (p.b.std_err ** 2.0)) -. (2.0 *. r *. cov_means))
    /. (p.b.mean *. p.b.mean)
  in
  (r, sqrt var)

(* ------------------------------------------------------------------ *)
(* Stratified estimation: when a randomized strategy is a known mixture of
   deterministic arms (e.g. Random_party = ½ Fixed[1] + ½ Fixed[2]),
   estimating each stratum separately and recombining removes the mixing
   randomness from the variance entirely:

     mean = Σ_k w_k m_k        se² = Σ_k w_k² se_k²

   so the same 3σ interval needs fewer trials than sampling the mixture —
   each trial of a stratum is spent where it reduces variance, none on
   re-drawing the mixture coin. *)

type stratum = { weight : float; s_mean : float; s_std_err : float }

let stratified strata =
  if strata = [] then invalid_arg "Crn.stratified: no strata";
  let wsum = List.fold_left (fun acc s -> acc +. s.weight) 0.0 strata in
  if abs_float (wsum -. 1.0) > 1e-9 then
    invalid_arg "Crn.stratified: weights must sum to 1";
  let mean = List.fold_left (fun acc s -> acc +. (s.weight *. s.s_mean)) 0.0 strata in
  let var =
    List.fold_left (fun acc s -> acc +. (s.weight *. s.weight *. s.s_std_err *. s.s_std_err))
      0.0 strata
  in
  { mean; std_err = sqrt var }
