(** Classification of a protocol execution into the paper's fairness events
    E00, E01, E10, E11 (Section 3, Step 2).

    The two questions are answered from ground truth, mirroring what the
    *best simulator* for the executed adversary would be forced to do:

    - {e Did the adversary learn the output?}  i = 1 iff the adversary
      registered a learned-output claim whose value is a {e legitimate}
      output of the evaluation.  An adversary that merely guesses has its
      claim rejected unless it happens to match — experiments that need
      exact simulator semantics (the Gordon–Katz protocols, where the
      adversary's held value collides with the output by chance) supply a
      [learned] override derived from audit data in the trace.
    - {e Did the honest parties receive their output?}  j = 1 iff every
      never-corrupted party output a legitimate value (and they all agree).

    A {e legitimate} output is [f] applied to the environment's inputs with
    any subset of the corrupted parties' inputs replaced by the function's
    default — the input substitutions the ideal functionality permits.  An
    honest party outputting a non-⊥ value outside this set is a correctness
    breach, which the classifier reports separately (it must have negligible
    probability for any protocol claiming to realize F_sfe^⊥). *)

module Engine = Fair_exec.Engine
module Func = Fair_mpc.Func

type event = E00 | E01 | E10 | E11

val pp_event : Format.formatter -> event -> unit

type trial = {
  outcome : Engine.outcome;
  inputs : string array;  (** the environment's inputs *)
  func : Func.t;
}

type overrides = {
  learned : (trial -> bool) option;
  honest_got : (trial -> bool) option;
}

val no_overrides : overrides

type classification = {
  event : event;
  correctness_breach : bool;
      (** some honest party output a non-⊥, non-legitimate value *)
}

val legitimate_outputs : trial -> string list
(** All evaluations over default-substituted corrupted inputs (deduplicated,
    in order of first appearance, the unsubstituted evaluation first;
    capped at 2^12 substitution patterns — far above any experiment here).
    They depend only on [inputs], [func] and the corrupted set, so every
    outcome with the same corrupted set shares them. *)

val classify : ?overrides:overrides -> ?legitimate:string list -> trial -> classification
(** [legitimate], when given, must be {!legitimate_outputs} of a trial with
    the same inputs, function and corrupted set: a caller that classifies
    several outcomes of one prelude evaluates them once per corrupted set
    ([Montecarlo]'s plays do).  Without it they are evaluated here. *)

val corrupted_parties : trial -> int list
(** Ids that were corrupted at any point of the execution. *)

val corrupted_count : trial -> int
(** How many there are, counted without building their list. *)
