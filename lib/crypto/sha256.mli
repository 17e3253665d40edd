(** A from-scratch SHA-256 (FIPS 180-4).

    Every keyed primitive in this repository (HMAC, the PRG, hash commitments,
    Lamport signatures) bottoms out here, and the Monte-Carlo trial loop calls
    it millions of times, so a whole message is padded and compressed in one
    C call: on the x86 SHA extensions where the CPU has them, else a portable
    loop ({!kernel}).  The implementation is validated in the test suite
    against the FIPS test vectors (empty string, "abc", the 448-bit
    two-block message, and a million 'a's), and every kernel the CPU can run
    is checked against a reference digest written from the FIPS formulas, on
    messages of every length up to 300 bytes and on long ones of a few KiB.

    Every 64-byte block compressed counts one [sha256.blocks]
    ({!Fair_obs.Metrics}), the deterministic work count behind a trial's
    hashing cost. *)

val kernel : string
(** The compression kernel in use: ["sha-ni"] (the x86 SHA extensions) or
    ["portable"].  Chosen once, at load, from what the CPU reports; every
    kernel gives the same digests, only the time per block differs. *)

val digest : string -> string
(** [digest msg] is the 32-byte raw digest of [msg]: one C call pads and
    compresses the whole message, so the result is its only allocation and
    concurrent calls from different domains share nothing.  Counts its
    [(String.length msg + 8) / 64 + 1] blocks in [sha256.blocks] at once. *)

val hex_digest : string -> string
(** [hex_digest msg] is the 64-character lowercase hex digest. *)

val to_hex : string -> string
(** Hex-encode an arbitrary byte string. *)

val of_hex : string -> string
(** Decode a hex string. @raise Invalid_argument on malformed input. *)
