(** The attacker's expected payoff (Equation 1 of the paper) computed from
    an event distribution, and its corruption-cost variant (Equation 5). *)

type distribution = {
  p00 : float;
  p01 : float;
  p10 : float;
  p11 : float;
}
(** Event probabilities; must sum to 1 (up to rounding). *)

val of_counts : (Events.event * int) list -> distribution
(** Empirical distribution from per-event counts. *)

val expected : Payoff.t -> distribution -> float
(** Σ_ij γ_ij · Pr[E_ij]. *)

val expected_with_cost :
  Payoff.t -> distribution -> cost:(int -> float) -> corrupted:(int * float) list -> float
(** Equation 5: Σ γ_ij Pr[E_ij] − Σ_I C(I)·Pr[E_I], with corruption-set
    events summarized by [(t, Pr[t parties corrupted])] for cost functions
    that depend only on the coalition size (as in Theorem 6). *)

val pp : Format.formatter -> distribution -> unit
