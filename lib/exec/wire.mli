(** Message-layer types shared by the whole execution stack.

    Parties are numbered 1..n; id 0 is reserved for an (incorruptible) ideal
    functionality / trusted party when the protocol runs in a hybrid model. *)

type party_id = int

val functionality_id : party_id
(** 0; the trusted party of hybrid protocols. *)

type dest =
  | To of party_id  (** point-to-point over a secure channel *)
  | Broadcast  (** delivered to every party (ids 0..n) next round *)

type payload = string

type envelope = { src : party_id; dst : dest; payload : payload }

val pp_dest : Format.formatter -> dest -> unit
val pp_envelope : Format.formatter -> envelope -> unit

(** {1 Payload encoding helpers}

    Protocol messages are pipe-separated tagged fields; these helpers keep
    the framing uniform across protocols. *)

val frame : string list -> payload
(** Join fields with ['|'], escaping embedded pipes and backslashes.
    @raise Invalid_argument on the empty list (its framing would collide
    with [frame [""]]). *)

val unframe : payload -> string list
(** Inverse of {!frame}. @raise Invalid_argument on malformed input. *)

val tagged : tag:string -> payload -> string option
(** [tagged ~tag p] is [Some body] exactly when [unframe p = [tag; body]],
    else [None]; it never raises.  The reader for a frame of one tag and one
    body: a payload with another first field is rejected by a prefix compare
    that allocates nothing, and a match copies out only the body.  Readers
    of three or more fields use {!unframe}. *)
