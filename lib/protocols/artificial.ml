module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Rng = Fair_crypto.Rng
module Signature = Fair_crypto.Signature
module Sha256 = Fair_crypto.Sha256
module Func = Fair_mpc.Func
module Ideal = Fair_mpc.Ideal

let hybrid_rounds = Ideal.dummy_rounds + 3

type holding = Value of string * string | Nothing

type state = {
  holding : holding option;
  vk : string;
  received_round : int;
  halted : bool;
}

let verify_value vk y signature =
  Signature.Lamport.Verifier.verify_hex ~pk_hex:vk ~msg:y ~signature_hex:signature

let party (_func : Func.t) ~rng ~id ~n ~input ~setup:_ =
  let coin_heads = Rng.bool (Rng.split rng ~label:"lemma18-coin") in
  let others = List.filter (fun j -> j <> id) (List.init n (fun j -> j + 1)) in
  let step st ~round ~inbox =
    if st.halted then (st, [])
    else
      match st.holding with
      | None -> (
          if round = 1 then (st, Ideal.send_input input)
          else
            match Ideal.reply inbox with
            | Ideal.Aborted -> ({ st with halted = true }, [ Machine.Abort_self ])
            | Ideal.Output body -> (
                match Wire.unframe body with
                | [ "val"; y; signature; vk ] ->
                    ( { st with holding = Some (Value (y, signature)); vk; received_round = round },
                      List.map (fun j -> Machine.Send (Wire.To j, Wire.frame [ "bit"; "0" ])) others
                    )
                | [ "none"; vk ] ->
                    ( { st with holding = Some Nothing; vk; received_round = round },
                      List.map (fun j -> Machine.Send (Wire.To j, Wire.frame [ "bit"; "0" ])) others
                    )
                | _ | (exception Invalid_argument _) -> (st, []))
            | Ideal.No_reply -> (st, []))
      | Some holding ->
          if round = st.received_round + 1 then
            (* Bit round: only the holder acts. *)
            match holding with
            | Value (y, signature) ->
                let zero_senders =
                  List.filter_map
                    (fun (src, payload) ->
                      match Wire.unframe payload with
                      | [ "bit"; "0" ] when List.mem src others -> Some src
                      | _ | (exception Invalid_argument _) -> None)
                    inbox
                in
                let non_zero = List.filter (fun j -> not (List.mem j zero_senders)) others in
                let msg = Wire.frame [ "value"; y; signature ] in
                let sends =
                  if non_zero = [] then [ Machine.Send (Wire.Broadcast, msg) ]
                  else if coin_heads then [ Machine.Send (Wire.Broadcast, msg) ]
                  else List.map (fun j -> Machine.Send (Wire.To j, msg)) non_zero
                in
                ({ st with halted = true }, sends @ [ Machine.Output y ])
            | Nothing -> (st, [])
          else if round = st.received_round + 2 then
            (* Delivery round for non-holders. *)
            let valid =
              List.find_map
                (fun (_, payload) ->
                  match Wire.unframe payload with
                  | [ "value"; y; signature ] when verify_value st.vk y signature -> Some y
                  | _ | (exception Invalid_argument _) -> None)
                inbox
            in
            match valid with
            | Some y -> ({ st with halted = true }, [ Machine.Output y ])
            | None -> ({ st with halted = true }, [ Machine.Abort_self ])
          else (st, [])
  in
  Machine.make { holding = None; vk = ""; received_round = 0; halted = false } step

let hybrid func =
  if func.Func.arity < 2 then invalid_arg "Artificial.hybrid: need n >= 2";
  Protocol.make
    ~name:(Printf.sprintf "lemma18:%s" func.Func.name)
    ~parties:func.Func.arity ~max_rounds:hybrid_rounds
    ~functionality:(Ideal.sfe_abort ~func ~outputs:(Optn.priv_outputs func) ())
    (party func)

(* The t = 1 adversary from the proof of Lemma 18. *)
let lemma18_t1 =
  Adversary.make ~name:"lemma18-t1" (fun rng ~protocol ->
      let n = protocol.Protocol.parties in
      let me = 1 + Rng.int rng n in
      let others = List.filter (fun j -> j <> me) (List.init n (fun j -> j + 1)) in
      let holder = ref false in
      let claimed = ref false in
      let step (view : Adversary.view) =
        let inbox = try List.assoc me view.Adversary.inbox with Not_found -> [] in
        if view.Adversary.round = 1 then
          (* Submit our real input to the functionality (the proof's
             adversary behaves honestly until the output phase). *)
          let my_input =
            match
              List.find_map
                (fun (c : Adversary.corrupted) ->
                  if c.Adversary.id = me then Some c.Adversary.input else None)
                view.Adversary.corrupted
            with
            | Some x -> x
            | None -> ""
          in
          { Adversary.send = [ (me, Wire.To Wire.functionality_id, Ideal.msg_input my_input) ];
            corrupt = [];
            claim_learned = None }
        else begin
          (* Phase-1 output arriving? *)
          match List.assoc_opt Wire.functionality_id inbox with
          | Some payload -> (
              match
                match Ideal.decode_reply payload with
                | Ideal.Output body -> Wire.unframe body
                | Ideal.Aborted | Ideal.No_reply -> []
              with
              | [ "val"; y; _sig; _vk ] ->
                  (* We are the holder: abort with the value (E10). *)
                  holder := true;
                  claimed := true;
                  { Adversary.send = []; corrupt = []; claim_learned = Some y }
              | [ "none"; _vk ] ->
                  (* Send 1s instead of the protocol's 0s. *)
                  { Adversary.send =
                      List.map (fun j -> (me, Wire.To j, Wire.frame [ "bit"; "1" ])) others;
                    corrupt = [];
                    claim_learned = None }
              | _ | (exception Invalid_argument _) -> Adversary.silent_decision)
          | None ->
              if !holder || !claimed then Adversary.silent_decision
              else begin
                (* Watch for the value reaching us (privately or by
                   broadcast, possibly rushed). *)
                let seen =
                  List.find_map
                    (fun (_, payload) ->
                      match Wire.unframe payload with
                      | [ "value"; y; _ ] -> Some y
                      | _ | (exception Invalid_argument _) -> None)
                    inbox
                in
                let seen =
                  match seen with
                  | Some y -> Some y
                  | None ->
                      List.find_map
                        (fun (env : Wire.envelope) ->
                          match Wire.unframe env.Wire.payload with
                          | [ "value"; y; _ ] -> Some y
                          | _ | (exception Invalid_argument _) -> None)
                        view.Adversary.rushed
                in
                match seen with
                | Some y ->
                    claimed := true;
                    { Adversary.send = []; corrupt = []; claim_learned = Some y }
                | None -> Adversary.silent_decision
              end
        end
      in
      { Adversary.initial = [ me ]; step })
