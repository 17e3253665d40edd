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
    registry target for this.

    {b Remembered steps.}  A machine built by {!make} remembers, for as
    long as the machine value lives, the successor and actions of every
    (round, inbox) it has been stepped with, and answers a repeat from
    that store without running the transition again.  Inboxes match when
    they hold the same sources and equal payload strings, in order.  The
    racer's arms, which play one prelude, and the proof adversaries'
    probes, which step a machine and then resume it, repeat most steps.
    This makes the contract above load-bearing for every play, not just
    for shared preludes: a transition that draws from a captured generator
    or mutates what it closes over is not run again when its (round,
    inbox) repeats, so it replays its first result.  A transition that
    raises stores nothing and raises again on the next call.
    Functionalities are built per play and stepped once a round, so their
    own state is never replayed.  The store is not synchronised: a machine
    value (and every successor reached from it) must be stepped from one
    domain at a time.  Every caller does so today, because a prelude is
    built and played inside one pool task. *)

type action =
  | Send of Wire.dest * Wire.payload
  | Output of Wire.payload  (** final output; the engine stops stepping this machine *)
  | Abort_self  (** output ⊥ and halt *)

type t = { step : round:int -> inbox:(Wire.party_id * Wire.payload) list -> t * action list }

val make :
  'state -> ('state -> round:int -> inbox:(Wire.party_id * Wire.payload) list -> 'state * action list) -> t
(** Wrap a pure transition function over an explicit state.  The machine
    remembers its steps (see above). *)

val silent : t
(** A machine that never sends and never outputs. *)
