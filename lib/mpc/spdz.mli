(** A SPDZ-style maliciously secure-with-abort MPC protocol over GF(2^31-1):
    the repository's stand-in for the "unfair SFE protocol ΠGMW" the paper
    uses as the phase-1 substrate (see DESIGN.md for the substitution
    argument).

    Preprocessing comes from a trusted dealer (replacing OT/HE-based triple
    generation): a global MAC key α is additively shared among the parties,
    every shared value [x] consists of additive shares of x and of α·x, and
    every multiplication gate consumes one Beaver triple.

    Online phase round schedule (all messages are broadcasts):

    + round 1 — input phase: every party masks each of its input wires with
      its dealer-issued mask and broadcasts ε = x − r;
    + rounds 2..L+1 — one round per multiplication layer: Beaver openings
      d = x − a, e = y − b for every gate in the layer;
    + then, per *opening stage* (the staged output reveal that fairness
      protocols are built from), three rounds: (a) broadcast of the output
      shares, (b) broadcast of a commitment to this party's MAC-check value
      σ_i, (c) opening of the commitments.  The check covers a random linear
      combination (coefficients derived from the transcript) of {e}very{e}
      value opened so far, so a share forged in any earlier round is caught
      at the next stage boundary, before further secrets are revealed.

    Any missing or invalid broadcast makes honest parties abort; what they
    then output is the protocol designer's choice via [on_abort] (⊥ for the
    standalone SFE protocol, "evaluate f locally on a default input" for
    ΠOpt-2SFE's phase 1).

    A rushing adversary attacking the *last* stage sees the honest shares
    first and can withhold its own: it learns the output while honest
    parties abort.  That is Cleve-style unfairness, and it is precisely the
    behaviour the paper's Theorem 3/4 analysis expects from the substrate:
    the interesting protocols never open the function output in a single
    SPDZ stage. *)

module Field = Fair_field.Field
module Rng = Fair_crypto.Rng

(** {1 Authenticated shares (exposed for tests and for building custom
    protocols on the substrate)} *)

type auth = { share : Field.t; mac : Field.t }
(** One party's additive share of a value and of α·value. *)

val auth_add : auth -> auth -> auth
val auth_sub : auth -> auth -> auth
val auth_scale : Field.t -> auth -> auth

val auth_add_const : alpha_share:Field.t -> first:bool -> Field.t -> auth -> auth
(** Add a public constant: only the designated first party adjusts its value
    share; every party adjusts its MAC share by α_i·c. *)

(** {1 Dealer} *)

type party_setup
(** Everything the dealer hands one party: its α-share, authenticated mask /
    randomness shares for every input wire, clear mask values for the wires
    it owns or that are revealed to it, and Beaver triples. *)

val deal : Rng.t -> circuit:Circuit.t -> n:int -> reveal_to:(Circuit.wire * int) list -> party_setup array
(** Dealer-owned input wires (owner 0) are uniform random values shared
    among the parties; [reveal_to] additionally hands the clear value of a
    dealer wire to one party (the mask mechanism for private outputs).
    @raise Invalid_argument if a reveal refers to a party-owned wire. *)

val setup_to_string : party_setup -> string
val setup_of_string : string -> party_setup
(** Serialization used to pass setups through {!Fair_exec.Protocol.t}. *)

val setup_alpha_share : party_setup -> Field.t
val setup_clears : party_setup -> (Circuit.wire * Field.t) list
(** The clear mask values this party knows (own wires and reveals). *)

(** {1 The online protocol} *)

type stage_plan = stage_index:int -> opened:(Circuit.wire * Field.t) list -> Circuit.wire list option
(** Called after every completed stage with everything publicly opened so
    far; returns the next set of output wires to open publicly, or [None]
    when the protocol is finished.  All parties see the same public values,
    so they agree on the (possibly data-dependent) schedule. *)

val protocol :
  name:string ->
  circuit:Circuit.t ->
  n:int ->
  encode_input:(id:int -> string -> Field.t list) ->
  (* values for the party's input wires, in wire order *)
  reveal_to:(Circuit.wire * int) list ->
  plan:stage_plan ->
  output_of:
    (id:int -> opened:(Circuit.wire * Field.t) list -> clears:(Circuit.wire * Field.t) list ->
     string) ->
  on_abort:
    (id:int -> input:string -> opened:(Circuit.wire * Field.t) list ->
     clears:(Circuit.wire * Field.t) list -> string option) ->
  (* called when the party detects a deviation; it receives everything
     publicly opened so far plus its private mask clears. [None] = output ⊥ *)
  max_stages:int ->
  Fair_exec.Protocol.t

val sfe :
  name:string -> circuit:Circuit.t -> n:int ->
  encode_input:(id:int -> string -> Field.t list) ->
  decode_output:(Field.t array -> string) ->
  Fair_exec.Protocol.t
(** The standalone secure-with-abort SFE protocol: single public opening of
    all outputs, ⊥ on abort. *)
