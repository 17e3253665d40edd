(** Hash-based digital signatures.

    {!Lamport} is the classic one-time signature scheme: existentially
    unforgeable under one signing query, from SHA-256 preimage resistance.
    The multi-party protocol ΠOpt-nSFE signs a single value (the output y)
    per execution, so a one-time scheme is all the protocol layer needs. *)

module Lamport : sig
  type secret_key
  type public_key
  type signature

  val keygen : Rng.t -> secret_key * public_key
  val sign : secret_key -> string -> signature
  val verify : public_key -> string -> signature -> bool

  val public_key_to_string : public_key -> string
  val public_key_of_string : string -> public_key
  val signature_to_string : signature -> string
  val signature_of_string : string -> signature
  (** Wire forms. @raise Invalid_argument on malformed input. *)

  (** Memoized verification of hex-encoded wire forms.  Parsing a 32 KiB
      public-key hex string and re-hashing 256 preimages are pure functions
      of the inputs, so their results are cached per domain: parsed keys
      bounded and reset when full, verdicts until {!clear_verdicts}.
      Repeated verification of the same announcement — by every receiving
      party in an execution, and by every arm played on one prelude —
      costs one table lookup.  No randomness is consumed and no result ever
      differs from the uncached path, so estimates are bit-identical with
      or without the cache. *)
  module Verifier : sig
    val public_key_of_hex : string -> public_key
    (** Cached [public_key_of_string (Sha256.of_hex hex)].
        @raise Invalid_argument on malformed input (not cached). *)

    val verify_hex : pk_hex:string -> msg:string -> signature_hex:string -> bool
    (** Cached "decode both wire forms and verify"; malformed input is
        [false] (never raises), matching the protocol-layer convention that
        an unparseable announcement is simply invalid. *)

    val clear_verdicts : unit -> unit
    (** Forget this domain's verdicts.  [Fair_exec.Engine.prepare] calls
        it, so a verdict lives for one prelude and the blocks a run hashes
        are the same at any [-j]. *)
  end
end
