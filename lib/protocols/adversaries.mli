(** The generic adversary-strategy zoo, and the skeleton it is built on.

    Every attacker in the paper's proofs runs its corrupted parties'
    honest machines and deviates only by stopping, claiming an output or
    rewriting a message.  {!driven} is that shape: it draws the coalition,
    and a {e tactic} turns each round's view into a decision, stepping the
    coalition's honest code through one {!driver}.  Every strategy here but
    {!silent}, and the protocol-specific ones of [Gordon_katz],
    [Leaky_and] and [Coin_toss], is a tactic over it:

    - {!semi_honest} runs the corrupted parties' honest machines and merely
      records what they learn — the E11 baseline;
    - {!abort_at} behaves honestly until a fixed round, then goes silent —
      the family behind the reconstruction-round analyzer (Definition 8);
    - {!greedy} is the A1/A2/A_gen/A_ī strategy of Lemma 7, Theorem 4 and
      Lemma 12: run the corrupted coalition honestly, and before releasing
      each round's messages *probe* — by simulating the coalition forward
      against a silent residual network — whether the coalition already
      holds the evaluation's output; the moment it does, abort and claim it;
    - {!adaptive_hunter} is greedy with a corruption budget (greedy's is 0);
    - {!silent} corrupts and never speaks (crash-at-start);
    - {!substitute_input} replaces a corrupted party's input and otherwise
      runs semi-honestly (exercises the input-substitution power of
      F_sfe^⊥).

    Corruption patterns are expressed with {!corrupt_spec}.  Every
    strategy here draws coins only to choose its coalition, so each
    carries a play key ({!Adversary.t}[.key]) naming its tactic and
    parameters but not its spec: a random coalition shares its plays with
    the fixed coalition it drew.  The one exception is
    {!adaptive_hunter} with [budget > 1]. *)

module Adversary = Fair_exec.Adversary
module Rng = Fair_crypto.Rng

type corrupt_spec =
  | Nobody
  | Fixed of int list
  | Random_party  (** one uniform party — the "mixing" of Theorem 4 *)
  | Random_subset of int  (** a uniform size-t coalition — Lemma 13's mixing *)
  | All_but of int  (** the A_ī pattern of Lemma 12 *)
  | Everyone

val spec_to_string : corrupt_spec -> string

val choose : corrupt_spec -> Rng.t -> n:int -> int list

(** {1 The skeleton} *)

type driver
(** The coalition's honest machines in one execution: every machine the
    engine has handed over and that has not yet output or aborted. *)

val driven :
  ?key:string ->
  name:string ->
  corrupt_spec ->
  (Rng.t -> protocol:Fair_exec.Protocol.t -> driver -> Adversary.view -> Adversary.decision) ->
  Adversary.t
(** [driven ?key ~name spec tactic] draws its initial coalition with
    {!choose}, then applies [tactic rng ~protocol driver] once per
    execution, to the generator [choose] drew from and a fresh driver, to
    get the instance's step.  Per-execution state belongs between the
    driver and the view argument ([fun rng ~protocol driver -> let s = …
    in fun view -> …]).  [key] keeps {!Adversary.make}'s contract: give
    one only to a tactic that draws no coin from [rng]. *)

val step_machines :
  driver ->
  Adversary.view ->
  (Fair_exec.Wire.party_id * Fair_exec.Wire.dest * Fair_exec.Wire.payload) list
  * Fair_exec.Wire.payload list
(** Adopt the machines the engine has just handed over, then step every
    live machine on its inbox of [view].  Returns their sends, as decision
    sends in machine order, and their outputs.  A machine that outputs or
    aborts is retired. *)

val machines : driver -> (int * Fair_exec.Machine.t) list
(** The live machines after the last {!step_machines}: what a probe
    resumes. *)

(** {1 Strategies} *)

val semi_honest : corrupt_spec -> Adversary.t
val silent : corrupt_spec -> Adversary.t
val abort_at : round:int -> corrupt_spec -> Adversary.t

(** Behave honestly; at the given round send the hybrid's (abort) message
    to the trusted party (id 0) and go silent — "the adversary aborts the
    phase-1 subprotocol in one of its rounds", expressed at the hybrid's
    granularity. *)
val abort_via_functionality : round:int -> corrupt_spec -> Adversary.t

val greedy : ?func:Fair_mpc.Func.t -> corrupt_spec -> Adversary.t
(** [func] lets the strategy discount default-fallback evaluations it could
    compute on its own — required against protocols whose honest machines
    output f(x, default) on abort (the check "is this the default output?"
    in the paper's A1). *)

val adaptive_hunter : ?func:Fair_mpc.Func.t -> budget:int -> unit -> Adversary.t
(** Adaptive corruption up to [budget] parties: start with one uniform
    victim, corrupt one more honest party per round, probe the coalition
    for the output after every step and abort the moment it is held — the
    hunt for i* considered in the proof of Lemma 11.  ΠOpt-nSFE resists it
    because the phase-1 outputs of non-holders carry no information about
    i*, so adaptivity buys nothing over a static t-coalition.  At
    [budget = 1] it plays [greedy ?func Random_party] and shares its key;
    a larger budget draws its victims as it goes and has no key. *)

val grab_and_abort : corrupt_spec -> Adversary.t
(** Hybrid-protocol strategy: request the corrupted parties' outputs from
    the trusted party and send it (abort) the moment a function output is
    rushed to the coalition — the optimal attack against the dummy
    F_sfe^⊥ protocol. *)

val substitute_input : input:string -> corrupt_spec -> Adversary.t

val zoo_grid : n:int -> max_round:int -> corrupt_spec list * int list
(** {!standard_zoo}'s grid: its corruption patterns (the uniform party, a
    uniform coalition of each size from 1 to n−1, or of size 1 when n = 1,
    and everyone) and its abort rounds (those of 1..7 and [max_round] that
    lie within 1..[max_round], ascending). *)

val standard_zoo : ?func:Fair_mpc.Func.t -> n:int -> max_round:int -> unit -> Adversary.t list
(** A broad pile of strategies for best-response sweeps: passive, silent,
    semi-honest, greedy and abort-at-r for every corruption size and a
    range of rounds.  Intended for "no adversary beats the bound" tests. *)

val greedy_per_t : ?func:Fair_mpc.Func.t -> n:int -> unit -> Adversary.t list
(** [greedy (Random_subset t)] for t = 1..n−1 — the per-coalition-size
    best-response family used by utility-balanced experiments. *)
