(** Ideal functionalities (trusted parties, engine id 0) and the "dummy"
    protocols that consist of nothing but calling them.

    All functionalities follow a fixed schedule so that executions have
    guaranteed termination (the model of Canetti [6] as used by the paper):

    - round 1: parties send ["input|x"] to the functionality;
    - round 2 ([compute_round]): the functionality evaluates the function,
      substituting a party's default input when no input arrived (a party
      that aborts before contributing); from this round on it answers
      ["get-output"] requests from corrupted parties with ["output|y_i"];
    - round 4 ([release_round]): outputs are released to all parties —
      unless an ["abort"] arrived first, in which case {!sfe_abort} sends
      ["abort"] (honest parties output ⊥) and {!sfe_random_abort} sends a
      freshly sampled fake output (the F_sfe^$ of Appendix C.2).

    The two-round gap between compute and release is the "delayed output"
    window: a rushing adversary can request the corrupted parties' outputs,
    see them, and still abort before any honest party receives anything —
    exactly the power F_sfe^⊥ grants the simulator.  {!sfe_fair} releases at
    [compute_round] + 1 and ignores aborts: full fairness. *)

module Rng = Fair_crypto.Rng
module Machine = Fair_exec.Machine
module Protocol = Fair_exec.Protocol

val compute_round : int
val release_round : int
val dummy_rounds : int
(** Number of rounds a dummy-protocol execution takes (= 5). *)

(** {1 Wire forms}

    Every frame to and from a functionality is encoded and decoded here,
    for its own machines, the hybrid protocols' parties and the
    adversaries that talk to it. *)

val msg_input : string -> Fair_exec.Wire.payload
val msg_get_output : Fair_exec.Wire.payload
val msg_abort : Fair_exec.Wire.payload
(** Requests to a functionality. *)

val msg_output : string -> Fair_exec.Wire.payload
(** A functionality's answer carrying one party's output body. *)

val send_input : string -> Machine.action list
(** A hybrid party's round 1: send its input to the functionality. *)

type reply =
  | No_reply  (** no frame, or one that does not decode *)
  | Aborted  (** the functionality's ["abort"] *)
  | Output of string  (** an output body, still in the protocol's own form *)

val decode_reply : Fair_exec.Wire.payload -> reply
(** One frame from the functionality.  Total: malformed bytes are
    [No_reply]. *)

val reply : (Fair_exec.Wire.party_id * Fair_exec.Wire.payload) list -> reply
(** The functionality's reply in an inbox: the first frame it sent decides,
    so an undecodable first frame is [No_reply] even when a later one
    decodes. *)

type per_party_outputs = Rng.t -> inputs:string array -> string array
(** A (possibly randomized) assignment of one private output per party;
    used to express functionalities like F_priv-sfe whose outputs differ
    across parties. *)

val global_outputs : Func.t -> per_party_outputs
(** Every party receives the same [Func.eval inputs]. *)

val sfe_abort : func:Func.t -> ?outputs:per_party_outputs -> unit -> Rng.t -> n:int -> Machine.t
(** F_sfe^⊥: SFE with unanimous abort and delayed output. *)

val sfe_fair : func:Func.t -> unit -> Rng.t -> n:int -> Machine.t
(** Fully fair SFE: outputs released simultaneously, aborts ignored. *)

type sampler = Rng.t -> inputs:string array -> honest:Fair_exec.Wire.party_id -> string
(** The replacement-output distribution Y_i(x_i) of F_sfe^$. *)

val sfe_random_abort : func:Func.t -> sampler:sampler -> unit -> Rng.t -> n:int -> Machine.t
(** F_sfe^$ (Appendix C.2): on abort, honest parties receive a random output
    drawn from [sampler] instead of ⊥. *)

(** {1 Dummy protocols} *)

val dummy_party : rng:Rng.t -> id:Fair_exec.Wire.party_id -> n:int -> input:string -> setup:string -> Machine.t
(** Sends its input to the functionality, outputs whatever comes back
    (⊥ on ["abort"]). *)

val dummy_protocol_abort : Func.t -> Protocol.t
(** Φ^{F_sfe^⊥}: the unfair-SFE baseline. *)

val dummy_protocol_fair : Func.t -> Protocol.t
(** Φ^{F_sfe}: the ideally fair protocol of Definition 19. *)

val dummy_protocol_random_abort : Func.t -> sampler -> Protocol.t
