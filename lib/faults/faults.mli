(** Deterministic fault injection for the execution engine.

    A {!plan} is compiled from a declarative spec string and instantiated,
    per run, into an {!Fair_exec.Engine.injector} driven by its own RNG.
    Because the injector draws only from the generator it is given —
    conventionally [Rng.split master ~label:"faults"], and {!Rng.split}
    never advances its parent — every other stream in the run (parties,
    dealer, adversary, environment) is bit-identical whether faults are on
    or off; an empty plan is the identity.

    {2 Spec grammar}

    Rules are separated by [;].  Channel rules:

    {v KIND[@ROUNDS][:SRC->DST][%PROB] v}

    where [KIND] is [drop], [dup], [flip] (flip one uniformly-chosen
    payload bit), [trunc] (cut the payload to a uniformly-chosen strict
    prefix) or [delay+K] (defer delivery by [K] extra rounds); [ROUNDS] is
    [N], [N-M] or [*] (default); [SRC]/[DST] are party ids or [*]; [PROB]
    is the per-envelope application probability (default 1).  A [DST] of
    [*] also matches broadcasts; a specific [DST] only matches
    point-to-point envelopes.

    Crash rules:

    {v crash[@ROUNDS]:pN[%PROB] v}

    crash-stop party [N] at the first matching round (with probability
    [PROB] per round in the range).

    Examples: ["drop@*%0.25"] — every envelope is lost with probability
    1/4; ["flip@2-5:1->2"] — every payload from party 1 to party 2 in
    rounds 2..5 has one bit flipped; ["delay+2;crash@3:p2"] — all traffic
    is delayed two extra rounds and party 2 crash-stops at round 3.

    Rules apply in spec order: each rule transforms the in-flight copies
    produced by the previous one (so [drop;dup] and [dup;drop] differ). *)

module Rng = Fair_crypto.Rng
module Engine = Fair_exec.Engine
module Adversary = Fair_exec.Adversary

type kind = Drop | Duplicate | Delay of int | Bitflip | Truncate

type rule = {
  kind : kind;
  r_lo : int;  (** first round the rule is live (1-based) *)
  r_hi : int;  (** last round; [max_int] = until the end *)
  src : int option;  (** [None] = any sender *)
  dst : int option;  (** [None] = any destination incl. broadcast *)
  prob : float;  (** per-envelope application probability *)
}

type crash_rule = {
  party : int;
  c_lo : int;
  c_hi : int;
  c_prob : float;  (** per-round crash probability within the range *)
}

type plan
(** A compiled fault plan.  Pure data: instantiating it twice with equal
    generators yields identical behaviour. *)

val empty : plan
val is_empty : plan -> bool
val rules : plan -> rule list
val crashes : plan -> crash_rule list

val parse : string -> (plan, string) result
(** Compile a spec string; [Error msg] pinpoints the offending rule.
    The empty (or all-whitespace) spec compiles to {!empty}. *)

val of_spec : string -> plan
(** Like {!parse}. @raise Invalid_argument on a malformed spec. *)

val to_string : plan -> string
(** Canonical spec round-trip: [parse (to_string p)] reproduces [p]. *)

(** One fault application, for schedule audits. *)
type applied = {
  at_round : int;
  action : string;  (** e.g. ["drop 1->2"], ["crash p3"] *)
}

type instance = {
  injector : Engine.injector;
  applied : unit -> applied list;  (** chronological; grows as the run executes *)
}

val instantiate : plan -> rng:Rng.t -> instance
(** Bind a plan to one run's fault generator.  All randomness (rule
    bernoullis, flip positions, truncation lengths) comes from [rng], so
    the schedule is a deterministic function of (plan, rng seed, run
    behaviour).  Metrics are counted under [faults.*] when enabled. *)

val harden_adversary : Adversary.t -> Adversary.t
(** Wrap an adversary so that an exception raised by its [step] (e.g. while
    parsing a payload a fault tampered with) degrades to
    {!Adversary.silent_decision} instead of killing the run — a crashing
    adversary is an aborting adversary, which the fairness reduction
    already prices.  Fatal exceptions (OOM, stack overflow, assert) still
    propagate.  The result has no play key ({!Adversary.t}[.key]). *)
