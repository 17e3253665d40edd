(** The synchronous execution engine.

    Round structure (r = 1, 2, ...):

    + every honest party — and the ideal functionality, if the protocol is
      hybrid — consumes its round-r inbox (messages sent in round r-1) and
      produces its round-r messages and possibly an output;
    + the rushing adversary observes the corrupted parties' inboxes and all
      round-r traffic addressed to corrupted parties (and all broadcasts),
      then decides the corrupted parties' round-r messages, adaptive
      corruptions, and learned-output claims;
    + all round-r messages are delivered into round-(r+1) inboxes; point-to-
      point channels are secure (only the addressee sees the payload), and
      broadcast is the standard ideal broadcast (everyone receives the same
      value next round).

    The execution stops when every party in 1..n has produced an output,
    aborted, or been corrupted — or after [max_rounds].

    The engine knows nothing about the function being computed; it reports
    raw facts (who output what, what the adversary claimed to have learned)
    and the fairness layer classifies them into the paper's events. *)

type party_result =
  | Honest_output of Wire.payload  (** ran to completion and output *)
  | Honest_abort  (** output ⊥ *)
  | Honest_no_output  (** still running at [max_rounds] — a protocol bug *)
  | Was_corrupted  (** corrupted at some point; excluded from fairness accounting *)

(** {2 Failure taxonomy}

    Structured classification of everything that can go wrong in a run.
    {!Malformed_message} (an honest machine raised on its inbox) and
    {!Party_crash} (a fault plan crash-stopped a party) are {e contained}:
    the party collapses to {!Honest_abort} — the paper's reduction charges
    any deviation no more than an abort — and the failure is recorded in
    [outcome.failures].  {!Protocol_violation} (the adversary broke the
    execution contract) and {!Round_limit} (the message-count guard
    tripped) invalidate the run and are raised as {!Fail}. *)

type failure =
  | Malformed_message of { round : int; party : Wire.party_id; reason : string }
  | Protocol_violation of { round : int; party : Wire.party_id; reason : string }
  | Round_limit of { round : int; messages : int; limit : int }
  | Party_crash of { round : int; party : Wire.party_id }

exception Fail of failure

val failure_to_string : failure -> string

val fatal : exn -> bool
(** [Stack_overflow], [Out_of_memory], [Assert_failure]: what no
    containment layer in the repo may swallow. *)

(** {2 Fault injection}

    The engine exposes two interposition points; {!Fair_faults} compiles
    declarative fault specs into them.  [on_envelope ~round env] maps one
    sent envelope to the list of [(extra_delay, copy)] actually put on the
    wire — [[(0, env)]] is faithful delivery, [[]] drops the message, a
    positive delay defers the copy that many extra rounds, and payload
    tampering returns a modified copy.  [crash ~round id] is consulted for
    every still-running honest party at the top of each round.

    {!no_faults} is the identity injector; it consumes no randomness, so a
    run with it is bit-identical to a run without fault support at all. *)

type injector = {
  on_envelope : round:int -> Wire.envelope -> (int * Wire.envelope) list;
  crash : round:int -> Wire.party_id -> bool;
}

val no_faults : injector

type outcome = {
  results : (Wire.party_id * party_result) list;  (** parties 1..n in order *)
  claims : (int * Wire.payload) list;  (** (round, value) learned-output claims *)
  rounds : int;  (** rounds actually executed *)
  trace : Trace.t;
  failures : failure list;
      (** contained failures, chronological; empty in a clean run *)
}

val honest_outputs : outcome -> (Wire.party_id * Wire.payload option) list
(** Never-corrupted parties only; [Some v] for an output, [None] for ⊥ or no
    output. *)

val claimed : outcome -> truth:Wire.payload -> bool
(** Did any learned-output claim match the true value? *)

(** {2 Prelude and play}

    An execution splits into an adversary-independent {e prelude} — the
    dealer's setup and the honest party machines, built from the inputs
    and the execution generator — and a per-adversary {e play}.  The paired
    racer builds a trial's prelude and plays many surviving arms against
    it, so the prelude's parts are shared by those arms:
    party machines must be persistent ({!Machine}) and the dealer's setup
    a plain value.  The functionality (which may keep per-run state), the
    adversary instance, the fault injector and the per-run arrays are
    built inside every play.  {!run} is [run_prepared (prepare …)], and
    every play, faulted or not, takes the same path through the engine. *)

type prepared

val prepare : protocol:Protocol.t -> inputs:string array -> rng:Fair_crypto.Rng.t -> prepared
(** Run the dealer on [rng]'s ["dealer"] split, build party [i]'s machine
    on its ["party-i"] split, and take the ["adversary"] split (and, for a
    hybrid protocol, the ["functionality"] split) that every play starts
    from.  [rng] itself is only split from, never drawn.
    @raise Invalid_argument if [inputs] has the wrong length or the dealer
    produces the wrong number of setup values. *)

val run_prepared : ?faults:injector -> adversary:Adversary.t -> prepared -> outcome
(** Play [adversary] against a prelude, under the protocol it was built
    for.  The functionality and the adversary draw from copies
    ({!Fair_crypto.Rng.copy}) of the prelude's ["functionality"] and
    ["adversary"] splits, so every play of one prelude sees the coins a
    fresh split would give.  [faults] (default
    {!no_faults}) rewrites every envelope — honest and adversarial alike —
    and decides party crash-stops; the trace records envelopes as sent
    (pre-fault), so audit-based event overrides are unaffected by channel
    tampering.  The [engine.run] trace span covers this play only, not the
    {!prepare} before it, on every path including {!run}.
    @raise Fail as {!run}. *)

val run :
  protocol:Protocol.t ->
  adversary:Adversary.t ->
  inputs:string array ->
  rng:Fair_crypto.Rng.t ->
  outcome
(** Execute one protocol run on faithful channels: [run_prepared
    ~adversary (prepare ~protocol ~inputs ~rng)].  [inputs.(i)] is party
    i+1's input.  Party, functionality, dealer and adversary randomness are
    derived from [rng] via independent splits, so a single seed reproduces
    the run.
    @raise Invalid_argument if [inputs] has the wrong length or the dealer
    produces the wrong number of setup values.
    @raise Fail on a protocol violation (adversary sending from a
    non-corrupted party, corrupting an invalid id) or the message guard:
    a run that sends more than [(n+1) * max_rounds * 1024] messages in all
    raises [Fail (Round_limit _)]. *)
