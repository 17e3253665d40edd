(** The Gordon–Katz partially fair (1/p-secure) two-party protocols
    [Eurocrypt'10], analyzed in the paper's Section 5 / Appendix C.

    Structure (ShareGen as a trusted dealer, id 0): the dealer receives the
    inputs, draws the switch round i* (geometric with parameter λ, truncated
    to the last round), and prepares two authenticated value sequences —
    a_1..a_r for p1 and b_1..b_r for p2 — that are i.i.d. *fake* samples
    before i* and the true output from i* on.  The parties then alternate,
    p1 first, forwarding each other's encrypted-and-MACed values round by
    round; whoever observes an abort outputs the last value it decrypted.

    Variants:
    - {!poly_domain} (GK §3.2, Theorem 23 here): fake values are
      f(x, D̂) with the peer's input resampled from its (polynomial) domain;
      λ = 1/(p·max|domain|), r = 4·p·max|domain| rounds.
    - {!poly_range} (GK §3.3, Theorem 24 here): fake values are uniform in
      the (polynomial) range; λ = 1/(p²·|range|), r = 4·p²·|range|.

    Aborting at exactly i* is the only way to provoke E10 — the adversary's
    held value is then real while the honest party still holds a fake one —
    and the geometric switch makes that posterior ≤ 1/p.  The module's
    {!overrides} implement the exact simulator accounting of Theorem 23:
    the trace carries an audit record of (i*, y), and "the adversary
    learned" is credited only for a verified claim made while holding the
    real value.  Random fallback outputs are *expected* here (F_sfe^$
    semantics), so honest-got is judged against the true output alone. *)

module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func
module Events = Fairness.Events

type variant = {
  label : string;
  lambda : float;  (** switch probability per round *)
  rounds : int;  (** r: number of exchange rounds *)
  fake1 : Fair_crypto.Rng.t -> inputs:string array -> string;
      (** distribution of p1's fake values (Y1(x1) of F_sfe^$) *)
  fake2 : Fair_crypto.Rng.t -> inputs:string array -> string;
}

val poly_domain : func:Func.t -> p:int -> domain1:string list -> domain2:string list -> variant
val poly_range : func:Func.t -> p:int -> range:string list -> variant

val protocol : func:Func.t -> variant:variant -> Protocol.t

val protocol_with_offset : func:Func.t -> variant:variant -> offset:int -> Protocol.t
(** Exchange schedule delayed by [offset] engine rounds (the dealer phase is
    unchanged) — used to embed the protocol as the tail of Π̃. *)

val total_rounds : variant:variant -> offset:int -> int

val overrides : offset:int -> Events.overrides
(** The Theorem 23 simulator accounting, reconstructed from the trace audit
    record. *)

val sampler : variant:variant -> Fair_mpc.Ideal.sampler
(** The Y_i(x_i) distributions of the corresponding F_sfe^$. *)

(** {1 Adversary strategies} *)

val abort_at_exchange : target:int -> gk_round:int -> Adversary.t
(** Corrupt p[target], play honestly, abort at exchange round [gk_round]
    (claiming the held value). *)

val abort_on_repeat : target:int -> k:int -> Adversary.t
(** Abort once the held value has stayed constant for [k] consecutive
    exchange rounds — the "detect stabilization" heuristic. *)

val zoo : variant:variant -> Adversary.t list
(** Fixed-round aborters across the exchange and repeat-triggered
    strategies, for both corruption targets, plus baselines. *)
