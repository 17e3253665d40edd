(** Protocol descriptions: everything the engine (and the adversary, who by
    Kerckhoffs' principle knows the protocol) needs to instantiate an
    execution.

    Parties have ids 1..n.  A protocol may declare an ideal functionality
    (trusted party, id 0) — that is how hybrid-model protocols such as
    ΠOpt-2SFE in the F'-hybrid model are expressed — and/or an
    input-independent trusted-dealer [setup] that distributes correlated
    randomness (preprocessing for the SPDZ-style substrate, ShareGen-less
    variants, etc.). *)

type t = {
  name : string;
  parties : int;  (** n *)
  max_rounds : int;  (** hard stop for the engine *)
  setup : (Fair_crypto.Rng.t -> string array) option;
      (** input-independent dealer; element [i] is handed privately to party
          [i+1] at construction time.  Run once for a trial and shared by
          the adversaries played on it. *)
  functionality : (Fair_crypto.Rng.t -> n:int -> Machine.t) option;
      (** the trusted party (id 0), if the protocol is hybrid.  Built
          afresh for every execution, because hybrid functionalities may
          keep per-run state: the Gordon–Katz ShareGen dealer
          ([Fair_protocols.Gordon_katz]) fills a mutable [inputs] array,
          sets a [dealt] flag and draws from its generator inside [step]. *)
  make_party :
    rng:Fair_crypto.Rng.t -> id:Wire.party_id -> n:int -> input:string -> setup:string ->
    Machine.t;
      (** party [id]'s honest machine.  Built once for a trial and shared
          by the adversaries played on it ({!Engine.prepare}), so it
          must be persistent ({!Machine}): all its randomness drawn here,
          none inside [step]. *)
}

val make :
  name:string -> parties:int -> max_rounds:int ->
  ?setup:(Fair_crypto.Rng.t -> string array) ->
  ?functionality:(Fair_crypto.Rng.t -> n:int -> Machine.t) ->
  (rng:Fair_crypto.Rng.t -> id:Wire.party_id -> n:int -> input:string -> setup:string -> Machine.t) ->
  t
