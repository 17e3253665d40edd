(** A from-scratch SHA-256 (FIPS 180-4).

    Every keyed primitive in this repository (HMAC, the PRG, hash commitments,
    Lamport signatures) bottoms out here, and the Monte-Carlo trial loop calls
    it millions of times, so each 64-byte block is compressed by a C kernel:
    on the x86 SHA extensions where the CPU has them, else a portable loop
    ({!kernel}).  The implementation is validated in the test suite against
    the FIPS test vectors (empty string, "abc", the 448-bit two-block message,
    and a million 'a's), both one-shot and through the incremental {!Ctx} API,
    and every kernel the CPU can run is checked block by block against a
    reference compression written from the FIPS formulas.

    Every 64-byte block compressed counts one [sha256.blocks]
    ({!Fair_obs.Metrics}), the deterministic work count behind a trial's
    hashing cost. *)

val kernel : string
(** The compression kernel in use: ["sha-ni"] (the x86 SHA extensions) or
    ["portable"].  Chosen once, at load, from what the CPU reports; every
    kernel gives the same digests, only the time per block differs. *)

val digest : string -> string
(** [digest msg] is the 32-byte raw digest of [msg].  Allocation-free apart
    from the result (the working state is a domain-local scratch context, so
    concurrent calls from different domains are safe). *)

val hex_digest : string -> string
(** [hex_digest msg] is the 64-character lowercase hex digest. *)

module Ctx : sig
  (** Incremental hashing.

      A context absorbs message bytes in any chunking; the digest depends
      only on the byte stream, so [feed c a; feed c b] is equivalent to
      [feed c (a ^ b)]. *)

  type t

  val create : unit -> t
  (** A fresh context (empty message). *)

  val feed : t -> string -> unit
  (** Absorb a string. *)

  val feed_bytes : t -> bytes -> pos:int -> len:int -> unit
  (** Absorb [len] bytes of [b] starting at [pos].
      @raise Invalid_argument if the range is out of bounds. *)

  val digest : t -> string
  (** Pad and produce the 32-byte digest of everything absorbed.  The
      context is {e spent} afterwards: do not feed it again. *)
end

val to_hex : string -> string
(** Hex-encode an arbitrary byte string. *)

val of_hex : string -> string
(** Decode a hex string. @raise Invalid_argument on malformed input. *)
