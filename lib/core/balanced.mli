(** Utility-balanced fairness (Definition 5).

    A protocol is utility-balanced γ-fair when the *sum* of the utilities of
    the best t-adversaries, t = 1..n−1, is minimal; Lemmas 14/16 pin that
    minimum at (n−1)(γ10 + γ11)/2.  The per-t profile φ(t) refines this. *)

val sum_over_t : (int * Montecarlo.estimate) list -> float
(** Σ_t û(Π, A_t) over a per-t best-response table (t = 1..n−1). *)

val sum_std_err : (int * Montecarlo.estimate) list -> float
(** Standard error of the sum (independent estimates). *)

val is_balanced : per_t:(int * Montecarlo.estimate) list -> gamma:Payoff.t -> n:int -> bool
(** The measured sum matches the Lemma 14 bound within 3σ (both
    directions: a protocol beating the bound would contradict Lemma 16, a
    protocol exceeding it is not balanced). *)

val exceeds_balanced_bound :
  per_t:(int * Montecarlo.estimate) list -> gamma:Payoff.t -> n:int -> bool
(** The sufficient criterion after Definition 5: the measured sum exceeds
    (n−1)(γ10+γ11)/2 beyond noise, hence the protocol is not balanced. *)
