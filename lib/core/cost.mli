(** Corruption costs and ideal γ^C-fairness — Section 4.2 / Appendix B.2.

    A cost function C(I) = c(|I|) prices coalitions; the attacker's payoff
    becomes Σ γ_ij Pr[E_ij] − Σ c(t)·Pr[t corruptions] (Equation 5).  A
    protocol is ideally γ^C-fair (Definition 19) when its best attacker does
    no better than the best attacker against the dummy protocol Φ^F_sfe. *)

type cost = int -> float
(** c(t): the price of corrupting t parties; c(0) = 0 by convention. *)

val theorem6 : Payoff.t -> n:int -> cost
(** The optimal cost of Theorem 6: c(t) = û(ΠOpt-nSFE, A_t) − s(t), where
    s(t) is the ideal-protocol payoff {!Bounds.ideal_utility}. *)

val dominates : c:cost -> c':cost -> n:int -> bool
(** Definition 20: c(t) ≥ c'(t) for every t ∈ [n]. *)

val strictly_dominates : c:cost -> c':cost -> n:int -> bool

val phi_cost_correspondence : phi:(int -> float) -> gamma:Payoff.t -> cost
(** Lemma 22: the cost function c(t) = φ(t) − s(t) for which φ-fairness and
    ideal γ^C-fairness coincide. *)
