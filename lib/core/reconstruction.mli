(** The reconstruction-rounds complexity measure (Definition 8, Appendix
    A.1): a protocol has ℓ reconstruction rounds if an adversary aborting in
    any of rounds 1..m−ℓ leaves the execution simulatable with the *fair*
    functionality, while aborting in round m−ℓ+1 does not.

    Empirically, an abort at round r is "fair" when neither E10 (adversary
    got the output, honest parties did not) nor E00 (honest parties end with
    ⊥, which the fair functionality never produces) occurs beyond noise. *)

module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func

type profile = {
  per_round : (int * Montecarlo.estimate) list;
      (** round r ↦ best estimate among the abort-at-r adversaries *)
  fair_through : int;  (** largest r such that aborting at any r' ≤ r is fair *)
  total_rounds : int;
  reconstruction_rounds : int;  (** total_rounds − fair_through *)
}

val analyze :
  ?jobs:int ->
  protocol:Protocol.t ->
  abort_family:(round:int -> Adversary.t list) ->
  func:Func.t ->
  gamma:Payoff.t ->
  env:Montecarlo.environment ->
  total_rounds:int ->
  trials:int ->
  seed:int ->
  unit ->
  profile
(** Sweep abort rounds 1..[total_rounds] with the given adversary family
    (typically "corrupt a party, run it honestly, go silent from round r,
    claim whatever output the retained machine can extract"). *)
