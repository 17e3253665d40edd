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

(* The bit a well-formed "open" frame reveals. *)
let opened_bit payload =
  match Wire.tagged ~tag:"open" payload with
  | None -> None
  | Some body -> (
      match Commit.opening_of_string body with
      | o -> int_of_string_opt (Commit.message o)
      | exception Invalid_argument _ -> None)

let veto_adversary ~target ~want =
  Adversaries.driven
    ~name:(Printf.sprintf "coin-veto(%s):p%d" want target)
    (Adversaries.Fixed [ target ])
    (fun _rng ~protocol:_ driver (view : Adversary.view) ->
      let sends, _ = Adversaries.step_machines driver view in
      (* Rushing: in round 2 the honest opening is already visible; veto
         the toss if it would come out wrong. *)
      let veto =
        view.Adversary.round = 2
        &&
        let mine = List.find_map (fun (_, _, payload) -> opened_bit payload) sends
        and theirs =
          List.find_map
            (fun (env : Wire.envelope) -> opened_bit env.Wire.payload)
            view.Adversary.rushed
        in
        match (mine, theirs) with
        | Some a, Some b -> string_of_int ((a + b) mod 2) <> want
        | _ -> false
      in
      { Adversary.send = (if veto then [] else sends); corrupt = []; claim_learned = None })

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
