module Protocol = Fair_exec.Protocol
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Rng = Fair_crypto.Rng
module Field = Fair_field.Field
module Auth_share = Fair_sharing.Auth_share
module Func = Fair_mpc.Func
module Ideal = Fair_mpc.Ideal
module Circuit = Fair_mpc.Circuit
module Spdz = Fair_mpc.Spdz

let reconstruction_rounds = 2
let hybrid_rounds = Ideal.dummy_rounds + reconstruction_rounds

(* f': an authenticated sharing of y plus a (possibly biased) index. *)
let augmented_outputs ?(q = 0.5) (func : Func.t) rng ~inputs =
  let y = Func.eval_exn func inputs in
  let s1, s2 = Auth_share.share rng (Field.encode_string y) in
  let index = if Rng.bernoulli rng q then 1 else 2 in
  [| Wire.frame [ Auth_share.share_to_string s1; string_of_int index ];
     Wire.frame [ Auth_share.share_to_string s2; string_of_int index ] |]

let local_default (func : Func.t) ~id ~input =
  let inputs =
    if id = 1 then [| input; func.Func.default_input |]
    else [| func.Func.default_input; input |]
  in
  Func.eval_exn func inputs

type phase2 = {
  share : Auth_share.share;
  index : int;
  received_round : int; (* round at which the F'-output arrived *)
}

type state = {
  phase2 : phase2 option;
  halted : bool;
}

(* A share opening travels as ["opening"; summand and tag].  [opened] reads
   the peer's and reconstructs y against our share: [None] when it is
   missing, malformed or fails its MAC. *)
let send_opening ~peer share =
  Machine.Send
    ( Wire.To peer,
      Wire.frame [ "opening"; Auth_share.opening_to_string (Auth_share.opening_of_share share) ] )

let opened ~inbox ~peer share =
  match List.assoc_opt peer inbox with
  | Some payload -> (
      match Wire.tagged ~tag:"opening" payload with
      | Some body -> (
          match Auth_share.opening_of_string body with
          | summand, tag -> (
              match Auth_share.reconstruct ~mine:share ~theirs_summand:summand ~theirs_tag:tag with
              | Ok secret -> Some (Field.decode_string secret)
              | Error _ -> None)
          | exception Invalid_argument _ -> None)
      | None -> None)
  | None -> None

let hybrid_party (func : Func.t) ~rng:_ ~id ~n:_ ~input ~setup:_ =
  let peer = 3 - id in
  let step st ~round ~inbox =
    if st.halted then (st, [])
    else
      match st.phase2 with
      | None -> (
          if round = 1 then (st, Ideal.send_input input)
          else
            match Ideal.reply inbox with
            | Ideal.Aborted ->
                (* Phase 1 aborted: evaluate locally on the default. *)
                ({ st with halted = true }, [ Machine.Output (local_default func ~id ~input) ])
            | Ideal.Output body -> (
                match Wire.unframe body with
                | [ share_s; index_s ] -> (
                    match int_of_string_opt index_s with
                    | Some index when index = 1 || index = 2 ->
                        let share = Auth_share.share_of_string share_s in
                        let st =
                          { st with phase2 = Some { share; index; received_round = round } }
                        in
                        (* Reconstruction towards p_index happens first:
                           the other party opens right away. *)
                        if index <> id then (st, [ send_opening ~peer share ]) else (st, [])
                    | _ -> ({ st with halted = true }, [ Machine.Abort_self ]))
                | _ | (exception Invalid_argument _) ->
                    ({ st with halted = true }, [ Machine.Abort_self ]))
            | Ideal.No_reply -> (st, []))
      | Some ph ->
          if ph.index = id && round = ph.received_round + 1 then
            (* First reconstruction round: we are p_i, expecting the peer's
               opening. *)
            match opened ~inbox ~peer ph.share with
            | Some y ->
                ({ st with halted = true }, [ send_opening ~peer ph.share; Machine.Output y ])
            | None ->
                ({ st with halted = true }, [ Machine.Output (local_default func ~id ~input) ])
          else if ph.index <> id && round = ph.received_round + 2 then
            (* Second reconstruction round: we are p_¬i. *)
            match opened ~inbox ~peer ph.share with
            | Some y -> ({ st with halted = true }, [ Machine.Output y ])
            | None -> ({ st with halted = true }, [ Machine.Abort_self ])
          else (st, [])
  in
  Machine.make { phase2 = None; halted = false } step

let hybrid_biased ~q func =
  if func.Func.arity <> 2 then invalid_arg "Opt2.hybrid: two-party functions only";
  if q < 0.0 || q > 1.0 then invalid_arg "Opt2.hybrid_biased: q outside [0,1]";
  Protocol.make
    ~name:(Printf.sprintf "opt2(q=%g):%s" q func.Func.name)
    ~parties:2 ~max_rounds:hybrid_rounds
    ~functionality:(Ideal.sfe_abort ~func ~outputs:(augmented_outputs ~q func) ())
    (hybrid_party func)

let hybrid func = hybrid_biased ~q:0.5 func

(* ---------------------------------------------------------------------- *)
(* Single-reconstruction-round straw-man (Lemma 10)                        *)
(* ---------------------------------------------------------------------- *)

let one_round_party (func : Func.t) ~rng:_ ~id ~n:_ ~input ~setup:_ =
  let peer = 3 - id in
  let step st ~round ~inbox =
    if st.halted then (st, [])
    else
      match st.phase2 with
      | None -> (
          if round = 1 then (st, Ideal.send_input input)
          else
            match Ideal.reply inbox with
            | Ideal.Aborted ->
                ({ st with halted = true }, [ Machine.Output (local_default func ~id ~input) ])
            | Ideal.Output body -> (
                match Wire.unframe body with
                | [ share_s; _index ] ->
                    let share = Auth_share.share_of_string share_s in
                    (* Both parties open simultaneously. *)
                    ( { st with phase2 = Some { share; index = id; received_round = round } },
                      [ send_opening ~peer share ] )
                | _ | (exception Invalid_argument _) ->
                    ({ st with halted = true }, [ Machine.Abort_self ]))
            | Ideal.No_reply -> (st, []))
      | Some ph ->
          if round = ph.received_round + 1 then
            match opened ~inbox ~peer ph.share with
            | Some y -> ({ st with halted = true }, [ Machine.Output y ])
            | None -> ({ st with halted = true }, [ Machine.Abort_self ])
          else (st, [])
  in
  Machine.make { phase2 = None; halted = false } step

let one_round_variant func =
  if func.Func.arity <> 2 then invalid_arg "Opt2.one_round_variant: two-party functions only";
  Protocol.make
    ~name:("opt2-1round:" ^ func.Func.name)
    ~parties:2 ~max_rounds:(Ideal.dummy_rounds + 1)
    ~functionality:(Ideal.sfe_abort ~func ~outputs:(augmented_outputs func) ())
    (one_round_party func)

(* ---------------------------------------------------------------------- *)
(* SPDZ instantiation (composition theorem)                                *)
(* ---------------------------------------------------------------------- *)

let spdz ~name ~circuit ~(func : Func.t) ~encode_input ~decode_output =
  let n_in = circuit.Circuit.n_inputs in
  let n_out = Array.length circuit.Circuit.outputs in
  (* Augment: dealer wires [index; mask1 per output; mask2 per output]. *)
  let owners =
    Array.append circuit.Circuit.input_owner (Array.make (1 + (2 * n_out)) 0)
  in
  let index_wire = n_in in
  let mask_wire party k = n_in + 1 + ((party - 1) * n_out) + k in
  (* Gates shift: old gate wire w >= n_in moves to w + 1 + 2*n_out. *)
  let shift w = if w < n_in then w else w + 1 + (2 * n_out) in
  let old_gates =
    Array.map
      (fun g ->
        match g with
        | Circuit.Add (a, b) -> Circuit.Add (shift a, shift b)
        | Circuit.Sub (a, b) -> Circuit.Sub (shift a, shift b)
        | Circuit.Mul (a, b) -> Circuit.Mul (shift a, shift b)
        | Circuit.Mul_const (c, a) -> Circuit.Mul_const (c, shift a)
        | Circuit.Add_const (c, a) -> Circuit.Add_const (c, shift a)
        | Circuit.Const c -> Circuit.Const c)
      circuit.Circuit.gates
  in
  let n_old_gates = Array.length old_gates in
  let masked_gate_base = n_in + 1 + (2 * n_out) + n_old_gates in
  let masked_gates =
    Array.init (2 * n_out) (fun k ->
        let party = (k / n_out) + 1 in
        let out = k mod n_out in
        Circuit.Add (shift circuit.Circuit.outputs.(out), mask_wire party out))
  in
  let gates = Array.append old_gates masked_gates in
  let masked_out party k = masked_gate_base + ((party - 1) * n_out) + k in
  let outputs =
    Array.init ((2 * n_out) + 1) (fun i ->
        if i = 0 then index_wire
        else
          let k = i - 1 in
          masked_out ((k / n_out) + 1) (k mod n_out))
  in
  let aug = Circuit.make ~input_owner:owners ~gates ~outputs in
  let reveal_to =
    List.concat_map
      (fun party -> List.init n_out (fun k -> (mask_wire party k, party)))
      [ 1; 2 ]
  in
  let indexed_party opened =
    match List.assoc_opt index_wire opened with
    | Some v -> Some (1 + (Field.to_int v mod 2))
    | None -> None
  in
  let plan ~stage_index ~opened =
    match stage_index with
    | 0 -> Some [ index_wire ]
    | 1 | 2 -> (
        match indexed_party opened with
        | Some i ->
            let party = if stage_index = 1 then i else 3 - i in
            Some (List.init n_out (fun k -> masked_out party k))
        | None -> None)
    | _ -> None
  in
  let unmask ~id ~opened ~clears =
    let values =
      List.init n_out (fun k ->
          match List.assoc_opt (masked_out id k) opened with
          | Some masked -> (
              match List.assoc_opt (mask_wire id k) clears with
              | Some m -> Some (Field.sub masked m)
              | None -> None)
          | None -> None)
    in
    if List.for_all Option.is_some values then
      Some (decode_output (Array.of_list (List.map Option.get values)))
    else None
  in
  let output_of ~id ~opened ~clears =
    match unmask ~id ~opened ~clears with
    | Some y -> y
    | None -> local_default func ~id ~input:"" (* unreachable on honest completion *)
  in
  let on_abort ~id ~input ~opened ~clears =
    match unmask ~id ~opened ~clears with
    | Some y -> Some y (* our reconstruction already completed *)
    | None -> (
        match indexed_party opened with
        | None -> Some (local_default func ~id ~input) (* phase-1-style abort *)
        | Some i ->
            if i = id then Some (local_default func ~id ~input)
              (* first reconstruction failed towards us *)
            else None (* we are p_¬i and the second reconstruction failed: ⊥ *))
  in
  Spdz.protocol ~name ~circuit:aug ~n:2 ~encode_input ~reveal_to ~plan ~output_of ~on_abort
    ~max_stages:4
