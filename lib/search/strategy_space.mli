(** A declarative parameterization of the attacker-strategy space.

    The experiment registry's headline numbers are suprema over adversaries;
    a hand-written zoo only witnesses the strategies someone remembered to
    enumerate.  This module instead describes the space the paper's proofs
    quantify over — tactic × abort round × corruption pattern × input
    substitution — as data: every {!point} compiles, via the constructors in
    {!Fair_protocols.Adversaries}, to a concrete {!Fair_exec.Adversary.t},
    and the whole space can be enumerated (deterministic order) or sampled,
    so the racing scheduler ({!Racing}) can treat points as bandit arms.

    The space deliberately {e contains} the standard zoo: every
    [Adversaries.standard_zoo] strategy corresponds to some point, which is
    what makes "searched ≥ zoo best" a structural guarantee rather than
    luck. *)

module Adv = Fair_protocols.Adversaries
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func
module Rng = Fair_crypto.Rng

type tactic =
  | Passive  (** corrupt nobody — the honest baseline arm *)
  | Silent  (** crash at start *)
  | Semi_honest
  | Abort_at of int  (** honest until round r, then silent (+ final probe) *)
  | Abort_f of int  (** hybrid only: send the trusted party (abort) at round r *)
  | Greedy  (** probe-and-abort-on-first-knowledge (the A1/A_gen family) *)
  | Grab_and_abort  (** hybrid only: use the trusted party's output interface *)
  | Substitute of string  (** run honestly on a substituted input *)
  | Adaptive of int  (** adaptive corruption with the given budget *)

type point = { spec : Adv.corrupt_spec; tactic : tactic }

type space

val make :
  ?adaptive_budgets:int list ->
  ?hybrid:bool ->
  ?func:Func.t ->
  n:int ->
  max_round:int ->
  unit ->
  space
(** The corruption patterns are every fixed singleton (n ≤ 6), the uniform
    party, every uniform coalition size 2..n−1, and everyone; the abort
    rounds cover 1..[max_round], strided down to ≤ 12 values when the
    protocol is long; the substituted input is the function's default
    input (when [func] is given).  [adaptive_budgets] defaults to 1..n−1
    capped at 3; [hybrid] (default false) gates the trusted-party tactics.
    [func] is forwarded to the greedy / adaptive probes so they can
    discount default-fallback evaluations.
    @raise Invalid_argument if [n < 1] or [max_round < 1]. *)

val points : space -> point list
(** Full enumeration, in a deterministic order independent of everything
    but the space description. *)

val cardinality : space -> int
(** [List.length (points space)], without building the list. *)

val sample : space -> Rng.t -> point
(** One uniform point — for spaces too large to enumerate (not the case
    for any current experiment, but the interface scales). *)

val compile : space -> point -> Adversary.t
(** The executable strategy at this point. *)

val contains_zoo : space -> bool
(** True when the space's tactic set covers [Adversaries.standard_zoo]'s
    generators (passive, silent, semi-honest, greedy, grab-and-abort,
    abort-at) over its grid ([Adversaries.zoo_grid]). *)
