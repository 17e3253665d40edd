(** A minimal JSON tree — emitter and recursive-descent parser — shared by
    every machine-readable artifact in the tree: search certificates,
    BENCH_mc.json, and the observability exports ({!Obs_json}).  The build
    image carries no JSON library, so this is deliberately the smallest
    dialect that round-trips our records: UTF-8 passes through opaquely,
    numbers are OCaml floats printed with enough digits ([%.17g]) to
    round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val num_int : int -> t
(** Integers travel as JSON numbers; {!to_int} reverses exactly for
    magnitudes below 2{^53}. *)

val to_string : ?indent:bool -> t -> string
(** [indent] (default true) pretty-prints with two-space indentation. *)

val of_string : string -> (t, string) result
(** Parses exactly one JSON value (trailing whitespace allowed).  Errors
    carry a byte offset.  Total on arbitrary bytes: malformed input —
    including nesting deeper than {!max_depth}, which would otherwise turn
    attacker-controlled input into unbounded recursion — yields [Error],
    never an exception (fuzz-locked in [test/test_fuzz.ml]; the parser is a
    wire-format boundary for {!Fair_service}). *)

val max_depth : int
(** Maximum container nesting {!of_string} accepts (255 — our own emitters
    stay below 10). *)

(** Accessors: [Error] describes the type mismatch or missing key. *)

val member : string -> t -> (t, string) result
val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
val to_bool : t -> (bool, string) result
val to_str : t -> (string, string) result
val to_list : t -> (t list, string) result

val member_opt : string -> t -> t option
(** {!member} for an optional key: [None] when the key is absent or the
    value is not an object, without building an error text. *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
(** Result bind, exposed so decoders read linearly. *)
