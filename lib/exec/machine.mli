(** Party machines: persistent (purely functional) interactive state
    machines.

    A machine consumes its round inbox and produces actions plus its
    successor machine.  Persistence matters: the adversary strategies from
    the paper's lower-bound proofs (A1, A2, A_ī) repeatedly *probe* a
    corrupted party's machine — "would it output the real value if the peer
    aborted now?" — and then resume it from the unprobed state.  With
    persistent machines a probe is just a [step] call on a retained value.

    Protocol implementations must therefore pre-draw all the randomness they
    need at construction time; stepping a machine twice from the same state
    with the same inbox must yield identical results.

    Persistence is also what lets the paired racer share a trial's honest
    side: a protocol's [make_party] machines (and the dealer's setup) are
    built once for a trial and played against the surviving arms
    ({!Engine.prepare}), so a machine that draws from its captured
    generator inside [step], or mutates anything it closes over, makes
    one arm's play change the next one's.  [test_search.ml] checks every
    registry target for this. *)

type action =
  | Send of Wire.dest * Wire.payload
  | Output of Wire.payload  (** final output; the engine stops stepping this machine *)
  | Abort_self  (** output ⊥ and halt *)

type t = { step : round:int -> inbox:(Wire.party_id * Wire.payload) list -> t * action list }

val make :
  'state -> ('state -> round:int -> inbox:(Wire.party_id * Wire.payload) list -> 'state * action list) -> t
(** Wrap a pure transition function over an explicit state. *)

val silent : t
(** A machine that never sends and never outputs. *)

val probe_output : t -> round:int -> inbox:(Wire.party_id * Wire.payload) list -> Wire.payload option
(** Step a copy of the machine (the original value is unaffected) and return
    the payload of an [Output] action if one was produced, [None] otherwise
    ([Abort_self] also yields [None]).  This is the "hypothetical run" used
    by the proof adversaries. *)

val run_to_completion :
  t -> max_rounds:int -> feed:(round:int -> (Wire.party_id * Wire.payload) list) -> Wire.payload option
(** Drive a machine alone, feeding it [feed ~round] each round, until it
    outputs, aborts, or [max_rounds] elapse.  Used by probing adversaries to
    simulate "everyone else went silent". *)
