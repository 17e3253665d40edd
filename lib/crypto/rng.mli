(** Deterministic pseudo-random generator.

    A counter-mode PRG over SHA-256: block [i] of the stream is
    [SHA256(seed || "|ctr|" || i)], [i] in decimal, and golden tests lock
    the stream.  Every random choice in the repository — party
    randomness, dealer randomness, adversary coin flips, Monte-Carlo trial
    seeds — flows through a value of this type, so every experiment is
    reproducible bit-for-bit from its seed.

    Generators are mutable; use {!split} to derive independent child
    generators (e.g. one per party) whose streams do not interleave with the
    parent's. *)

type t

val create : seed:string -> t
(** A fresh generator keyed by [seed]. *)

val of_int_seed : int -> t
(** Convenience: seed from an integer. *)

val split : t -> label:string -> t
(** [split g ~label] derives an independent generator from [g]'s seed and
    [label]; distinct labels give computationally independent streams and do
    not advance [g]. *)

val copy : t -> t
(** [copy g] continues [g]'s stream from where [g] stands, without advancing
    [g] or being advanced by it.  A copy of a generator never drawn from
    draws what [g] itself would: a split taken once can serve as the
    template of many identical ones. *)

val bytes : t -> int -> string
(** [bytes g n] draws [n] pseudo-random bytes. *)

val bits : t -> int -> int
(** [bits g k] draws a uniform [k]-bit non-negative integer, [0 < k <= 62]. *)

val bool : t -> bool

val int : t -> int -> int
(** [int g n] is uniform in [0, n-1] (rejection sampling), [n >= 1]. *)

val bernoulli : t -> float -> bool
(** [bernoulli g q] is [true] with probability [q] (53-bit resolution). *)

val field : t -> Fair_field.Field.t
(** A uniform field element (rejection sampling below the modulus). *)

val field_vector : t -> int -> Fair_field.Field.t array

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list (indexed through an array, so the
    selection is O(n) conversion + O(1) access rather than [List.nth] under
    rejection sampling). @raise Invalid_argument on []. *)

val pick_array : t -> 'a array -> 'a
(** Uniform element of a non-empty array, O(1) after the draw.  Consumes the
    same stream bytes as {!pick} on the equivalent list.
    @raise Invalid_argument on [||]. *)
