type t = {
  name : string;
  parties : int;
  max_rounds : int;
  setup : (Fair_crypto.Rng.t -> string array) option;
  functionality : (Fair_crypto.Rng.t -> n:int -> Machine.t) option;
  make_party :
    rng:Fair_crypto.Rng.t -> id:Wire.party_id -> n:int -> input:string -> setup:string ->
    Machine.t;
}

let make ~name ~parties ~max_rounds ?setup ?functionality make_party =
  if parties < 1 then invalid_arg "Protocol.make: parties < 1";
  if max_rounds < 1 then invalid_arg "Protocol.make: max_rounds < 1";
  { name; parties; max_rounds; setup; functionality; make_party }
