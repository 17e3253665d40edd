(** The relative-fairness relation ≼_γ (Definition 1) and its derived
    judgments, evaluated on measured estimates.

    Π ≼_γ Π' ("Π is at least as γ-fair as Π'") iff
    sup_A u(Π, A) ≤ sup_A u(Π', A) up to negligible slack; empirically the
    suprema are taken over an adversary zoo and the slack is
    {!Check.Sum} of the two standard errors. *)

type verdict =
  | At_least_as_fair  (** Π ≼ Π' strictly or within noise *)
  | Strictly_fairer  (** Π ≼ Π' with a gap beyond noise *)
  | Less_fair
  | Equally_fair  (** both directions hold within noise *)

val compare_sup : pi:Montecarlo.estimate -> pi':Montecarlo.estimate -> verdict
(** Compare the best-response estimates of two protocols. *)

val pp_verdict : Format.formatter -> verdict -> unit
