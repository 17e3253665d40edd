type corrupted = {
  id : Wire.party_id;
  input : string;
  setup : string;
  machine : Machine.t;
}

type view = {
  round : int;
  n : int;
  corrupted : corrupted list;
  inbox : (Wire.party_id * (Wire.party_id * Wire.payload) list) list;
  rushed : Wire.envelope list;
}

type decision = {
  send : (Wire.party_id * Wire.dest * Wire.payload) list;
  corrupt : Wire.party_id list;
  claim_learned : Wire.payload option;
}

let silent_decision = { send = []; corrupt = []; claim_learned = None }

type instance = {
  initial : Wire.party_id list;
  step : view -> decision;
}

type t = {
  name : string;
  key : string option;
  make : Fair_crypto.Rng.t -> protocol:Protocol.t -> instance;
}

let passive =
  { name = "passive";
    key = Some "passive";
    make = (fun _rng ~protocol:_ -> { initial = []; step = (fun _ -> silent_decision) }) }

let make ?key ~name make = { name; key; make }
