(* Tests for Fairness.Crn — common-random-numbers pairing and stratified
   recombination.  The load-bearing properties:

   - the determinism contract extends to paired runs (bit-identical at any
     job count);
   - a paired run's marginals are bitwise what Montecarlo.estimate reports
     for the same (configuration, trials, seed) — pairing changes the
     error bars of differences, never the estimates themselves;
   - the paired diff standard error never exceeds the independent-legs
     one (that inequality is the whole point of CRN);
   - the ratio delta method and the stratified combinator compute what
     their formulas say. *)

open Fairness
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries

let swap = Func.swap
let opt2 = Fair_protocols.Opt2.hybrid swap
let pi1 = Fair_protocols.Contract.pi1
let pi2 = Fair_protocols.Contract.pi2
let env2 = Montecarlo.uniform_field_inputs ~n:2

let leg protocol adversary gamma = { Crn.protocol; adversary; gamma }

(* Two genuinely different legs over the same trial stream: opt2 against
   two different adversaries. *)
let leg_a = leg opt2 (Adv.greedy ~func:swap (Adv.Fixed [ 1 ])) Payoff.default
let leg_b = leg opt2 (Adv.greedy ~func:swap (Adv.Fixed [ 2 ])) Payoff.default

let paired ?jobs ~trials ~seed () =
  Crn.paired ?jobs ~a:leg_a ~b:leg_b ~func:swap ~env:env2 ~trials ~seed ()

let check_paired_identical label (x : Crn.paired) (y : Crn.paired) =
  (* Float equality is deliberate: the guarantee is bit-identity. *)
  Alcotest.(check (float 0.0)) (label ^ ": a.mean") x.Crn.a.Crn.mean y.Crn.a.Crn.mean;
  Alcotest.(check (float 0.0)) (label ^ ": b.mean") x.Crn.b.Crn.mean y.Crn.b.Crn.mean;
  Alcotest.(check (float 0.0)) (label ^ ": diff") x.Crn.diff y.Crn.diff;
  Alcotest.(check (float 0.0)) (label ^ ": diff_std_err") x.Crn.diff_std_err y.Crn.diff_std_err;
  Alcotest.(check (float 0.0)) (label ^ ": covariance") x.Crn.covariance y.Crn.covariance;
  Alcotest.(check int) (label ^ ": trials") x.Crn.trials y.Crn.trials

(* (a) job count never changes the numbers — including a trial count that
   is not a multiple of the 64-trial chunk grid. *)
let test_jobs_invariance () =
  let p1 = paired ~jobs:1 ~trials:300 ~seed:7 () in
  let p4 = paired ~jobs:4 ~trials:300 ~seed:7 () in
  check_paired_identical "jobs 1 vs 4" p1 p4

(* (b) a paired run's marginal is bitwise the unpaired estimate of the
   same configuration — same trial stream, same accumulator recurrence. *)
let test_marginal_matches_unpaired () =
  let trials = 200 and seed = 13 in
  let p = paired ~jobs:2 ~trials ~seed () in
  let check_leg label (l : Crn.leg) (m : Crn.marginal) =
    let e =
      Montecarlo.estimate ~jobs:2 ~protocol:l.Crn.protocol ~adversary:l.Crn.adversary
        ~func:swap ~gamma:l.Crn.gamma ~env:env2 ~trials ~seed ()
    in
    Alcotest.(check (float 0.0)) (label ^ ": mean") e.Montecarlo.utility m.Crn.mean;
    Alcotest.(check (float 0.0)) (label ^ ": std_err") e.Montecarlo.std_err m.Crn.std_err
  in
  check_leg "leg a" leg_a p.Crn.a;
  check_leg "leg b" leg_b p.Crn.b

(* (c) the reported quantities obey the variance identity they came from —
   Var(ā−b̄) = se_a² + se_b² − 2·Cov(ā,b̄) — for any sign of the
   correlation (opposed Fixed[1]/Fixed[2] attackers correlate negatively,
   so here the paired se is legitimately *wider* than independent legs). *)
let test_variance_identity () =
  let p = paired ~jobs:2 ~trials:400 ~seed:21 () in
  let identity =
    (p.Crn.a.Crn.std_err ** 2.0) +. (p.Crn.b.Crn.std_err ** 2.0)
    -. (2.0 *. p.Crn.covariance /. float_of_int p.Crn.trials)
  in
  Alcotest.(check (float 1e-12)) "identity" identity (p.Crn.diff_std_err ** 2.0);
  Alcotest.(check (float 1e-12)) "diff = a.mean - b.mean" (p.Crn.a.Crn.mean -. p.Crn.b.Crn.mean)
    p.Crn.diff

(* (c') on positively correlated legs — the same attacker scored under two
   payoff vectors, so both legs move with the same trial outcomes — the
   paired se must beat the independent-legs bound.  This is the estimator
   actually used by the separation/ratio experiments. *)
let test_pairing_helps_when_correlated () =
  let adv = Adv.greedy ~func:swap Adv.Random_party in
  let p =
    Crn.paired ~jobs:2
      ~a:(leg opt2 adv Payoff.default)
      ~b:(leg opt2 adv Payoff.zero_one)
      ~func:swap ~env:env2 ~trials:400 ~seed:21 ()
  in
  let indep = sqrt ((p.Crn.a.Crn.std_err ** 2.0) +. (p.Crn.b.Crn.std_err ** 2.0)) in
  Alcotest.(check bool)
    (Printf.sprintf "cov %.6f > 0" p.Crn.covariance)
    true (p.Crn.covariance > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "paired se %.6f <= independent %.6f" p.Crn.diff_std_err indep)
    true
    (p.Crn.diff_std_err <= indep +. 1e-12)

(* (d) a cross-protocol pair on the contract-signing legs: pi1's greedy
   attacker always wins (u = 1), so the diff collapses to 1 - u(pi2) and
   the paired se equals leg b's — the deterministic leg contributes zero
   variance and zero covariance. *)
let test_degenerate_leg () =
  let p =
    Crn.paired
      ~a:(leg pi1 (Adv.greedy ~func:Func.contract (Adv.Fixed [ 2 ])) Payoff.default)
      ~b:(leg pi2 (Adv.greedy ~func:Func.contract (Adv.Fixed [ 2 ])) Payoff.default)
      ~func:Func.contract
      ~env:(fun _rng -> [| "sigA"; "sigB" |])
      ~trials:200 ~seed:5 ()
  in
  Alcotest.(check (float 0.0)) "pi1 leg deterministic" 1.0 p.Crn.a.Crn.mean;
  Alcotest.(check (float 0.0)) "its se is 0" 0.0 p.Crn.a.Crn.std_err;
  Alcotest.(check (float 0.0)) "covariance 0" 0.0 p.Crn.covariance;
  Alcotest.(check (float 1e-15)) "diff se = leg-b se" p.Crn.b.Crn.std_err p.Crn.diff_std_err

(* (e) ratio delta method on a hand-built record: a = 1, b = 0.5 exactly,
   independent (cov 0) => r = 2, se_r = sqrt(se_a^2 + 4 se_b^2) / 0.5. *)
let test_ratio_formula () =
  let p =
    { Crn.a = { Crn.mean = 1.0; std_err = 0.01 };
      b = { Crn.mean = 0.5; std_err = 0.02 };
      diff = 0.5;
      diff_std_err = sqrt ((0.01 ** 2.0) +. (0.02 ** 2.0));
      covariance = 0.0;
      trials = 100;
      pair_faults = 0 }
  in
  let r, se = Crn.ratio p in
  Alcotest.(check (float 1e-12)) "ratio" 2.0 r;
  Alcotest.(check (float 1e-12)) "ratio se"
    (sqrt ((0.01 ** 2.0) +. (4.0 *. (0.02 ** 2.0))) /. 0.5)
    se;
  let z = { p with Crn.b = { Crn.mean = 0.0; std_err = 0.0 } } in
  Alcotest.check_raises "zero denominator rejected"
    (Invalid_argument "Crn.ratio: denominator mean is 0") (fun () -> ignore (Crn.ratio z))

(* (f) stratified recombination: mean and se follow the mixture formulas,
   and bad weights are rejected. *)
let test_stratified () =
  let m =
    Crn.stratified
      [ { Crn.weight = 0.5; s_mean = 0.4; s_std_err = 0.02 };
        { Crn.weight = 0.5; s_mean = 0.8; s_std_err = 0.04 } ]
  in
  Alcotest.(check (float 1e-12)) "mixture mean" 0.6 m.Crn.mean;
  Alcotest.(check (float 1e-12)) "mixture se"
    (sqrt ((0.25 *. 0.0004) +. (0.25 *. 0.0016)))
    m.Crn.std_err;
  Alcotest.check_raises "weights must sum to 1"
    (Invalid_argument "Crn.stratified: weights must sum to 1") (fun () ->
      ignore (Crn.stratified [ { Crn.weight = 0.7; s_mean = 0.0; s_std_err = 0.0 } ]));
  Alcotest.check_raises "empty strata rejected"
    (Invalid_argument "Crn.stratified: no strata") (fun () -> ignore (Crn.stratified []))

(* (g) input validation on paired. *)
let test_paired_validation () =
  Alcotest.check_raises "trials < 1" (Invalid_argument "Crn.paired: trials < 1") (fun () ->
      ignore (paired ~trials:0 ~seed:1 ()))

let () =
  Alcotest.run "fair_crn"
    [ ( "paired",
        [ Alcotest.test_case "bit-identical at jobs 1 vs 4" `Quick test_jobs_invariance;
          Alcotest.test_case "marginals match unpaired estimates" `Quick
            test_marginal_matches_unpaired;
          Alcotest.test_case "variance identity at any correlation sign" `Quick
            test_variance_identity;
          Alcotest.test_case "paired se beats independent on correlated legs" `Quick
            test_pairing_helps_when_correlated;
          Alcotest.test_case "deterministic leg degenerates cleanly" `Quick
            test_degenerate_leg;
          Alcotest.test_case "validation" `Quick test_paired_validation ] );
      ( "derived",
        [ Alcotest.test_case "ratio delta method" `Quick test_ratio_formula;
          Alcotest.test_case "stratified recombination" `Quick test_stratified ] ) ]
