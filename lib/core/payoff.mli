(** Payoff (preference) vectors ~γ = (γ00, γ01, γ10, γ11) — Section 3 of the
    paper.

    γ_ij is the attacker's payoff for provoking event E_ij, where i = 1 iff
    the adversary learned the output and j = 1 iff the honest parties
    received theirs.  The natural fairness class Γ_fair requires

      0 = γ01 ≤ min(γ00, γ11)  and  max(γ00, γ11) < γ10,

    and the multi-party class Γ+_fair additionally γ00 ≤ γ11. *)

type t = { g00 : float; g01 : float; g10 : float; g11 : float }

val v : float * float * float * float -> t
(** [(γ00, γ01, γ10, γ11)]. *)

val in_gamma_fair : t -> bool
val in_gamma_fair_plus : t -> bool

val check_fair : t -> t
(** Identity on Γ_fair members. @raise Invalid_argument otherwise. *)

val normalize : t -> t
(** Shift so that γ01 = 0 (the w.l.o.g. normalization of Section 3). *)

val default : t
(** (0.2, 0, 1, 0.5): a representative of Γ+_fair used throughout the
    experiments. *)

val zero_one : t
(** (0, 0, 1, 0): the vector under which utility-based fairness implies
    1/p-security (Lemma 25). *)

val sweep : t list
(** A small set of Γ+_fair vectors for bound-robustness sweeps. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
