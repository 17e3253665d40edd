(** SHA-256 in C (internal to [Sha256]): on the x86 SHA extensions where
    the CPU has them, else a portable loop. *)

val digest : string -> Bytes.t -> unit
(** [digest msg out] writes the 32-byte SHA-256 digest of [msg] into [out]
    in one call: it pads [msg] and compresses its [(len + 8) / 64 + 1]
    blocks with the kernel named by {!kernel}.
    @raise Invalid_argument unless [Bytes.length out = 32]. *)

val kernel : string
(** The kernel {!digest} runs: ["sha-ni"] or ["portable"], chosen once
    when the module initialises. *)

val digests : (string * (string -> Bytes.t -> unit)) list
(** Every kernel this CPU can run, by name, each with {!digest}'s contract
    and checks.  For tests. *)
