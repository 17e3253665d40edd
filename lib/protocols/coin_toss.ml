module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Engine = Fair_exec.Engine
module Rng = Fair_crypto.Rng
module Commit = Fair_crypto.Commit

let rounds = 3

type state = { peer_commitment : string option; halted : bool }

let party ~rng ~id ~n:_ ~input:_ ~setup:_ =
  let rng = Rng.split rng ~label:"coin" in
  let my_bit = if Rng.bool rng then "1" else "0" in
  let my_commitment, my_opening = Commit.commit rng my_bit in
  let peer = 3 - id in
  let step st ~round ~inbox =
    if st.halted then (st, [])
    else
      let st =
        match
          List.find_map
            (fun (src, payload) ->
              if src = peer then Wire.tagged ~tag:"commit" payload else None)
            inbox
        with
        | Some c -> { st with peer_commitment = Some c }
        | None -> st
      in
      match round with
      | 1 ->
          ( st,
            [ Machine.Send
                (Wire.To peer, Wire.frame [ "commit"; Commit.commitment_to_string my_commitment ])
            ] )
      | 2 ->
          ( st,
            [ Machine.Send (Wire.To peer, Wire.frame [ "open"; Commit.opening_to_string my_opening ])
            ] )
      | 3 -> (
          let opening =
            List.find_map
              (fun (src, payload) ->
                if src = peer then
                  match Wire.tagged ~tag:"open" payload with
                  | Some body -> (
                      match Commit.opening_of_string body with
                      | o -> Some o
                      | exception Invalid_argument _ -> None)
                  | None -> None
                else None)
              inbox
          in
          match (opening, st.peer_commitment) with
          | Some o, Some c
            when Commit.verify (Commit.commitment_of_string c) o
                 && List.mem (Commit.message o) [ "0"; "1" ] ->
              let b = (int_of_string my_bit + int_of_string (Commit.message o)) mod 2 in
              ({ st with halted = true }, [ Machine.Output (string_of_int b) ])
          | _ -> ({ st with halted = true }, [ Machine.Abort_self ]))
      | _ -> (st, [])
  in
  Machine.make { peer_commitment = None; halted = false } step

let protocol = Protocol.make ~name:"blum-coin-toss" ~parties:2 ~max_rounds:rounds party

let bit_of_opening body =
  match Commit.opening_of_string body with
  | o -> int_of_string_opt (Commit.message o)
  | exception Invalid_argument _ -> None

let veto_adversary ~target ~want =
  Adversary.make ~name:(Printf.sprintf "coin-veto(%s):p%d" want target) (fun _rng ~protocol:_ ->
      let machine = ref None in
      let step (view : Adversary.view) =
        (match !machine with
        | None ->
            List.iter
              (fun (c : Adversary.corrupted) ->
                if c.Adversary.id = target then machine := Some c.Adversary.machine)
              view.Adversary.corrupted
        | Some _ -> ());
        match !machine with
        | None -> Adversary.silent_decision
        | Some m ->
            let inbox = try List.assoc target view.Adversary.inbox with Not_found -> [] in
            let m', actions = m.Machine.step ~round:view.Adversary.round ~inbox in
            machine := Some m';
            let sends =
              List.filter_map
                (function
                  | Machine.Send (dst, payload) -> Some (target, dst, payload)
                  | Machine.Output _ | Machine.Abort_self -> None)
                actions
            in
            if view.Adversary.round <> 2 then
              { Adversary.send = sends; corrupt = []; claim_learned = None }
            else begin
              (* Rushing: the honest opening is already visible; veto the
                 toss if it would come out wrong. *)
              let my_bit =
                List.find_map
                  (fun (_, _, payload) ->
                    Option.bind (Wire.tagged ~tag:"open" payload) bit_of_opening)
                  sends
              in
              let peer_bit =
                List.find_map
                  (fun (env : Wire.envelope) ->
                    Option.bind (Wire.tagged ~tag:"open" env.Wire.payload) bit_of_opening)
                  view.Adversary.rushed
              in
              match (my_bit, peer_bit) with
              | Some a, Some b when string_of_int ((a + b) mod 2) <> want ->
                  { Adversary.send = []; corrupt = []; claim_learned = None }
              | _ -> { Adversary.send = sends; corrupt = []; claim_learned = None }
            end
      in
      { Adversary.initial = [ target ]; step })

type bias_stats = {
  trials : int;
  honest_zero : int;
  honest_one : int;
  honest_abort : int;
}

let measure_bias ~adversary ~trials ~seed =
  let zero = ref 0 and one = ref 0 and abort = ref 0 in
  for i = 0 to trials - 1 do
    let o =
      Engine.run ~protocol ~adversary ~inputs:[| ""; "" |]
        ~rng:(Rng.create ~seed:(Printf.sprintf "coin:%d:%d" seed i))
    in
    List.iter
      (fun (_, v) ->
        match v with
        | Some "0" -> incr zero
        | Some "1" -> incr one
        | Some _ -> ()
        | None -> incr abort)
      (Engine.honest_outputs o)
  done;
  { trials; honest_zero = !zero; honest_one = !one; honest_abort = !abort }
