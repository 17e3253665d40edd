module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Rng = Fair_crypto.Rng
module Commit = Fair_crypto.Commit
module Func = Fair_mpc.Func

let func = Func.contract

let pi1_rounds = 4
let pi2_rounds = 6

let peer id = 3 - id

let find_msg ~inbox ~src ~tag =
  List.find_map (fun (s, payload) -> if s = src then Wire.tagged ~tag payload else None) inbox

(* The message that [src]'s [tag] opening in [inbox] reveals, checked
   against the [commitment] it sent earlier: [None] when either is missing,
   or the opening is malformed or opens something else. *)
let opened ~inbox ~src ~tag commitment =
  match (find_msg ~inbox ~src ~tag, commitment) with
  | Some body, Some c -> (
      match Commit.opening_of_string body with
      | opening when Commit.verify (Commit.commitment_of_string c) opening ->
          Some (Commit.message opening)
      | _ | (exception Invalid_argument _) -> None)
  | _ -> None

let contract_output ~id ~own ~theirs =
  if id = 1 then Func.eval_exn func [| own; theirs |] else Func.eval_exn func [| theirs; own |]

(* ---------------------------------------------------------------------- *)
(* Π1: commit, then p1 opens, then p2 opens.                               *)
(* ---------------------------------------------------------------------- *)

type pi1_state = { peer_commitment : string option }

let pi1_party ~rng ~id ~n:_ ~input ~setup:_ =
  let my_commitment, my_opening = Commit.commit (Rng.split rng ~label:"commit") input in
  let step st ~round ~inbox =
    let remember st =
      match find_msg ~inbox ~src:(peer id) ~tag:"commit" with
      | Some c -> { peer_commitment = Some c }
      | None -> st
    in
    let st = remember st in
    match (id, round) with
    | _, 1 ->
        ( st,
          [ Machine.Send
              (Wire.To (peer id), Wire.frame [ "commit"; Commit.commitment_to_string my_commitment ])
          ] )
    | 1, 2 ->
        (* p1 opens first *)
        ( st,
          [ Machine.Send
              (Wire.To 2, Wire.frame [ "open"; Commit.opening_to_string my_opening ]) ] )
    | 2, 3 -> (
        (* p2 verifies p1's opening; if valid, opens back and outputs *)
        match opened ~inbox ~src:1 ~tag:"open" st.peer_commitment with
        | Some theirs ->
            ( st,
              [ Machine.Send
                  (Wire.To 1, Wire.frame [ "open"; Commit.opening_to_string my_opening ]);
                Machine.Output (contract_output ~id ~own:input ~theirs) ] )
        | None -> (st, [ Machine.Abort_self ]))
    | 1, 4 -> (
        match opened ~inbox ~src:2 ~tag:"open" st.peer_commitment with
        | Some theirs -> (st, [ Machine.Output (contract_output ~id ~own:input ~theirs) ])
        | None -> (st, [ Machine.Abort_self ]))
    | _ -> (st, [])
  in
  Machine.make { peer_commitment = None } step

let pi1 = Protocol.make ~name:"pi1-contract" ~parties:2 ~max_rounds:pi1_rounds pi1_party

(* ---------------------------------------------------------------------- *)
(* Π2: commit; coin-toss (commit/open) decides who opens first.            *)
(* ---------------------------------------------------------------------- *)

type pi2_state = {
  peer_ccommit : string option; (* contract commitment *)
  peer_dcommit : string option; (* coin commitment *)
  first_opener : int option;
  theirs : string option; (* peer's contract half, once opened *)
}

let pi2_party ~rng ~id ~n:_ ~input ~setup:_ =
  let rng = Rng.split rng ~label:"pi2" in
  let my_ccommit, my_copen = Commit.commit rng input in
  let my_bit = if Rng.bool rng then "1" else "0" in
  let my_dcommit, my_dopen = Commit.commit rng my_bit in
  let step st ~round ~inbox =
    let st =
      let st =
        match find_msg ~inbox ~src:(peer id) ~tag:"ccommit" with
        | Some c -> { st with peer_ccommit = Some c }
        | None -> st
      in
      match find_msg ~inbox ~src:(peer id) ~tag:"dcommit" with
      | Some c -> { st with peer_dcommit = Some c }
      | None -> st
    in
    match round with
    | 1 ->
        ( st,
          [ Machine.Send
              (Wire.To (peer id), Wire.frame [ "ccommit"; Commit.commitment_to_string my_ccommit ])
          ] )
    | 2 ->
        ( st,
          [ Machine.Send
              (Wire.To (peer id), Wire.frame [ "dcommit"; Commit.commitment_to_string my_dcommit ])
          ] )
    | 3 ->
        ( st,
          [ Machine.Send (Wire.To (peer id), Wire.frame [ "dopen"; Commit.opening_to_string my_dopen ])
          ] )
    | 4 -> (
        (* verify peer's coin opening, compute b, maybe open first *)
        match opened ~inbox ~src:(peer id) ~tag:"dopen" st.peer_dcommit with
        | Some their_bit when List.mem their_bit [ "0"; "1" ] ->
            let b = (int_of_string my_bit + int_of_string their_bit) mod 2 in
            let first = 1 + b in
            let st = { st with first_opener = Some first } in
            if first = id then
              ( st,
                [ Machine.Send
                    (Wire.To (peer id), Wire.frame [ "copen"; Commit.opening_to_string my_copen ])
                ] )
            else (st, [])
        | _ -> (st, [ Machine.Abort_self ]))
    | 5 -> (
        match st.first_opener with
        | Some first when first <> id -> (
            (* we are second: verify the first opener's contract opening,
               reply with ours, output *)
            match opened ~inbox ~src:(peer id) ~tag:"copen" st.peer_ccommit with
            | Some theirs ->
                ( { st with theirs = Some theirs },
                  [ Machine.Send
                      (Wire.To (peer id), Wire.frame [ "copen"; Commit.opening_to_string my_copen ]);
                    Machine.Output (contract_output ~id ~own:input ~theirs) ] )
            | None -> (st, [ Machine.Abort_self ]))
        | _ -> (st, []))
    | 6 -> (
        match st.first_opener with
        | Some first when first = id -> (
            match opened ~inbox ~src:(peer id) ~tag:"copen" st.peer_ccommit with
            | Some theirs -> (st, [ Machine.Output (contract_output ~id ~own:input ~theirs) ])
            | None -> (st, [ Machine.Abort_self ]))
        | _ -> (st, []))
    | _ -> (st, [])
  in
  Machine.make
    { peer_ccommit = None; peer_dcommit = None; first_opener = None; theirs = None }
    step

let pi2 = Protocol.make ~name:"pi2-contract" ~parties:2 ~max_rounds:pi2_rounds pi2_party

let zoo =
  let specs = [ Adversaries.Fixed [ 1 ]; Adversaries.Fixed [ 2 ]; Adversaries.Random_party ] in
  Adversary.passive
  :: List.concat_map
       (fun spec ->
         Adversaries.greedy spec :: Adversaries.semi_honest spec :: Adversaries.silent spec
         :: List.map (fun r -> Adversaries.abort_at ~round:r spec) [ 1; 2; 3; 4; 5; 6 ])
       specs
