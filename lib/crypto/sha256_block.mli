(** SHA-256 block compression (internal to [Sha256]), in C: on the x86 SHA
    extensions where the CPU has them, else a portable loop. *)

val compress : int array -> Bytes.t -> int -> unit
(** [compress h b off] folds the 64-byte block at [b.(off .. off+63)] into
    the eight 32-bit chaining words [h], FIPS 180-4 section 6.2.2, with the
    kernel named by {!kernel}.
    @raise Invalid_argument unless [Array.length h = 8] and
    [0 <= off <= Bytes.length b - 64]. *)

val kernel : string
(** The kernel {!compress} runs: ["sha-ni"] or ["portable"], chosen once
    when the module initialises. *)

val kernels : (string * (int array -> Bytes.t -> int -> unit)) list
(** Every kernel this CPU can run, by name, each with {!compress}'s
    contract and checks.  For tests. *)
