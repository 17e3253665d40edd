(** The adversary interface: a rushing, adaptive, malicious attacker.

    Per round the engine first lets the honest parties (and the ideal
    functionality, if any) compute their round-r messages, then shows the
    adversary everything a real rushing adversary sees — the corrupted
    parties' round-r inboxes, all round-r messages addressed to corrupted
    parties, and every broadcast — and only then collects the corrupted
    parties' round-r messages from the adversary's decision.

    Corruption hands the adversary the party's input, private setup string
    and current machine (persistent, so it can be probed and resumed — see
    {!Machine}).  Adaptive corruptions requested in round r take effect
    before round r+1.

    [claim_learned] is the bookkeeping hook for the paper's event E_1j: an
    adversary that has extracted the protocol output registers it here, and
    the fairness layer later verifies the claim against the true function
    value, so claims cannot inflate utility. *)

type corrupted = {
  id : Wire.party_id;
  input : string;
  setup : string;
  machine : Machine.t;  (** state at the moment of corruption *)
}

type view = {
  round : int;
  n : int;
  corrupted : corrupted list;
  inbox : (Wire.party_id * (Wire.party_id * Wire.payload) list) list;
      (** per corrupted party: the messages it received this round (sent in
          round r-1), including broadcasts *)
  rushed : Wire.envelope list;
      (** honest/functionality round-r messages addressed to corrupted
          parties, plus all round-r broadcasts — visible before answering *)
}

type decision = {
  send : (Wire.party_id * Wire.dest * Wire.payload) list;
      (** round-r messages of corrupted parties (src must be corrupted) *)
  corrupt : Wire.party_id list;  (** adaptive corruptions, effective next round *)
  claim_learned : Wire.payload option;
}

val silent_decision : decision

type instance = {
  initial : Wire.party_id list;  (** static corruptions, fixed before round 1 *)
  step : view -> decision;
}

type t = {
  name : string;
  key : string option;
      (** The play key.  A keyed adversary draws coins only to choose its
          initial coalition; after that its behaviour depends only on its
          key, that coalition and its views.  Two adversaries with equal
          keys that draw the same coalition therefore play the same
          execution, and {!Engine.run_prepared} plays it once per prelude.
          [None] promises nothing. *)
  make : Fair_crypto.Rng.t -> protocol:Protocol.t -> instance;
      (** Called once per execution: fresh coins, fresh mutable state. *)
}

val passive : t
(** Corrupts nobody and does nothing: the honest-execution baseline.  Keyed. *)

val make :
  ?key:string -> name:string -> (Fair_crypto.Rng.t -> protocol:Protocol.t -> instance) -> t
(** [key] (default none) must keep {!t.key}'s contract: give one only to an
    adversary that draws no coin after choosing its initial coalition. *)
