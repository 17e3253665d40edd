module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Engine = Fair_exec.Engine
module Rng = Fair_crypto.Rng
module Func = Fair_mpc.Func

let offset = 2

let variant =
  Gordon_katz.poly_domain ~func:Func.and_ ~p:4 ~domain1:[ "0"; "1" ] ~domain2:[ "0"; "1" ]

let total_rounds = Gordon_katz.total_rounds ~variant ~offset

let is_side_channel payload =
  match Wire.unframe payload with
  | [ "bit"; _ ] | [ "leak"; _ ] | [ "leak-empty" ] -> true
  | _ -> false
  | exception Invalid_argument _ -> false

let filter_inbox inbox = List.filter (fun (_, p) -> not (is_side_channel p)) inbox

let inner_party = Gordon_katz.protocol_with_offset ~func:Func.and_ ~variant ~offset

let wrapper ~rng ~id ~n ~input ~setup =
  let inner =
    inner_party.Protocol.make_party ~rng:(Rng.split rng ~label:"inner") ~id ~n ~input ~setup
  in
  let leak_coin = Rng.bernoulli (Rng.split rng ~label:"leak-coin") 0.25 in
  let step inner ~round ~inbox =
    let inner', actions = inner.Machine.step ~round ~inbox:(filter_inbox inbox) in
    let extra =
      if id = 2 && round = 1 then [ Machine.Send (Wire.To 1, Wire.frame [ "bit"; "0" ]) ]
      else if id = 1 && round = 2 then begin
        let got_one =
          List.exists
            (fun (src, payload) ->
              src = 2
              &&
              match Wire.unframe payload with
              | [ "bit"; "1" ] -> true
              | _ -> false
              | exception Invalid_argument _ -> false)
            inbox
        in
        if got_one then
          if leak_coin then [ Machine.Send (Wire.To 2, Wire.frame [ "leak"; input ]) ]
          else [ Machine.Send (Wire.To 2, Wire.frame [ "leak-empty" ]) ]
        else []
      end
      else []
    in
    (inner', extra @ actions)
  in
  Machine.make inner step

let protocol =
  Protocol.make ~name:"leaky-and" ~parties:2 ~max_rounds:total_rounds
    ~functionality:(fun rng ~n ->
      match inner_party.Protocol.functionality with
      | Some f -> f rng ~n
      | None -> Machine.silent)
    wrapper

(* Corrupt p2: send the 1-bit, run the rest honestly, claim a leaked x1. *)
let leak_adversary =
  Adversaries.driven ~name:"leaky-and-p2" (Adversaries.Fixed [ 2 ]) (fun _rng ~protocol:_ driver ->
      let claimed = ref false in
      fun (view : Adversary.view) ->
        let sends, _ = Adversaries.step_machines driver view in
        let send =
          List.map
            (fun ((src, dst, payload) as sent) ->
              match Wire.unframe payload with
              | [ "bit"; "0" ] -> (src, dst, Wire.frame [ "bit"; "1" ])
              | _ -> sent
              | exception Invalid_argument _ -> sent)
            sends
        in
        let leak =
          if !claimed then None
          else
            List.find_map
              (fun (src, payload) -> if src = 1 then Wire.tagged ~tag:"leak" payload else None)
              (try List.assoc 2 view.Adversary.inbox with Not_found -> [])
        in
        if leak <> None then claimed := true;
        { Adversary.send; corrupt = []; claim_learned = leak })

type z_result = { z1_accepts : bool; z2_accepts : bool }

let run_z_environments ~seed =
  let master = Rng.of_int_seed seed in
  let x1 = if Rng.bool (Rng.split master ~label:"x1") then "1" else "0" in
  let outcome =
    Engine.run ~protocol ~adversary:leak_adversary ~inputs:[| x1; "0" |]
      ~rng:(Rng.split master ~label:"exec")
  in
  let reply = List.map snd outcome.Engine.claims in
  let p1_output =
    List.find_map
      (fun (id, r) ->
        if id = 1 then match r with Engine.Honest_output v -> Some v | _ -> None else None)
      outcome.Engine.results
  in
  (* Z2 accepts iff p1 sent a non-empty first-round reply (the leak fired);
     Z1 accepts iff the leaked value is x1 and p1's final output is 0. *)
  let z2_accepts = reply <> [] in
  let z1_accepts = List.mem x1 reply && p1_output = Some "0" in
  { z1_accepts; z2_accepts }
