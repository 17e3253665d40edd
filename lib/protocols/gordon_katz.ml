module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Trace = Fair_exec.Trace
module Engine = Fair_exec.Engine
module Rng = Fair_crypto.Rng
module Hmac = Fair_crypto.Hmac
module Sha256 = Fair_crypto.Sha256
module Func = Fair_mpc.Func
module Events = Fairness.Events

type variant = {
  label : string;
  lambda : float;
  rounds : int;
  fake1 : Rng.t -> inputs:string array -> string;
  fake2 : Rng.t -> inputs:string array -> string;
}

let resample_eval (func : Func.t) ~keep rng ~inputs ~pool =
  let inputs' =
    Array.mapi (fun i x -> if i = keep then x else Rng.pick rng pool) inputs
  in
  Func.eval_exn func inputs'

let poly_domain ~func ~p ~domain1 ~domain2 =
  if p < 1 || domain1 = [] || domain2 = [] then invalid_arg "Gordon_katz.poly_domain";
  let m = max (List.length domain1) (List.length domain2) in
  let lambda = 1.0 /. float_of_int (p * m) in
  { label = Printf.sprintf "gk-domain(p=%d)" p;
    lambda;
    rounds = 4 * p * m;
    (* p1's fakes resample p2's input; p2's fakes resample p1's. *)
    fake1 = (fun rng ~inputs -> resample_eval func ~keep:0 rng ~inputs ~pool:domain2);
    fake2 = (fun rng ~inputs -> resample_eval func ~keep:1 rng ~inputs ~pool:domain1) }

let poly_range ~func:_ ~p ~range =
  if p < 1 || range = [] then invalid_arg "Gordon_katz.poly_range";
  let lambda = 1.0 /. float_of_int (p * p * List.length range) in
  let uniform rng ~inputs:_ = Rng.pick rng range in
  { label = Printf.sprintf "gk-range(p=%d)" p;
    lambda;
    rounds = 4 * p * p * List.length range;
    fake1 = uniform;
    fake2 = uniform }

let total_rounds ~variant ~offset = offset + (2 * variant.rounds) + 4

(* Exchange schedule: p1 forwards ct_b[i] at e1 i; p2 forwards ct_a[i] at
   e2 i. *)
let e1 ~offset i = offset + (2 * i) + 1
let e2 ~offset i = offset + (2 * i) + 2

(* ------------------------------------------------------------------ *)
(* Authenticated encryption of the dealt values                        *)
(* ------------------------------------------------------------------ *)

let xor_pad ~key ~index msg =
  let pad =
    Rng.bytes (Rng.create ~seed:(Printf.sprintf "gk-enc:%s:%d" key index)) (String.length msg)
  in
  String.init (String.length msg) (fun i -> Char.chr (Char.code msg.[i] lxor Char.code pad.[i]))

let enc ~key ~index msg =
  let ct = xor_pad ~key ~index msg in
  let tag = Hmac.mac ~key (Printf.sprintf "gk-tag:%d:%s" index ct) in
  Sha256.to_hex ct ^ "." ^ Sha256.to_hex tag

let dec ~key ~index s =
  match String.split_on_char '.' s with
  | [ ct_hex; tag_hex ] -> (
      match (Sha256.of_hex ct_hex, Sha256.of_hex tag_hex) with
      | ct, tag ->
          if Hmac.verify ~key ~msg:(Printf.sprintf "gk-tag:%d:%s" index ct) ~tag then
            Some (xor_pad ~key ~index ct)
          else None
      | exception Invalid_argument _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* ShareGen dealer (functionality id 0)                                *)
(* ------------------------------------------------------------------ *)

let dealer (func : Func.t) variant rng ~n =
  if n <> 2 then invalid_arg "Gordon_katz: two parties only";
  let inputs = Array.make 3 None in
  let dealt = ref false in
  let step () ~round ~inbox =
    List.iter
      (fun (src, payload) ->
        if src >= 1 && src <= 2 then
          match Wire.unframe payload with
          | [ "input"; x ] -> if inputs.(src) = None then inputs.(src) <- Some x
          | _ | (exception Invalid_argument _) -> ())
      inbox;
    if round = 2 && not !dealt then begin
      dealt := true;
      let xs =
        Array.init 2 (fun i ->
            match inputs.(i + 1) with Some x -> x | None -> func.Func.default_input)
      in
      let y = Func.eval_exn func xs in
      let r = variant.rounds in
      let istar =
        let rec go i = if i >= r then r else if Rng.bernoulli rng variant.lambda then i else go (i + 1) in
        go 1
      in
      let value_a i = if i >= istar then y else variant.fake1 rng ~inputs:xs in
      let value_b i = if i >= istar then y else variant.fake2 rng ~inputs:xs in
      let k1 = Sha256.to_hex (Rng.bytes rng 32) in
      let k2 = Sha256.to_hex (Rng.bytes rng 32) in
      let ct_a = List.init r (fun i -> enc ~key:k1 ~index:(i + 1) (value_a (i + 1))) in
      let ct_b = List.init r (fun i -> enc ~key:k2 ~index:(i + 1) (value_b (i + 1))) in
      let a0 = variant.fake1 rng ~inputs:xs and b0 = variant.fake2 rng ~inputs:xs in
      ( (),
        [ Machine.Send
            (Wire.To 1, Wire.frame [ "deal"; a0; k1; String.concat "~" ct_b ]);
          Machine.Send
            (Wire.To 2, Wire.frame [ "deal"; b0; k2; String.concat "~" ct_a ]);
          (* Audit record for the event classifier (engine-internal; never
             visible to the adversary). *)
          Machine.Send (Wire.To 0, Wire.frame [ "audit"; string_of_int istar; y ]) ] )
    end
    else ((), [])
  in
  Machine.make () step

(* ------------------------------------------------------------------ *)
(* Party machines                                                      *)
(* ------------------------------------------------------------------ *)

type party_state = {
  key : string;
  to_forward : string array; (* ciphertexts we relay to the peer *)
  last : string; (* last decrypted value: our fallback output *)
  have_deal : bool;
  halted : bool;
}

let party variant ~offset ~rng:_ ~id ~n:_ ~input ~setup:_ =
  let r = variant.rounds in
  let step st ~round ~inbox =
    if st.halted then (st, [])
    else if round = 1 then
      (st, [ Machine.Send (Wire.To Wire.functionality_id, Wire.frame [ "input"; input ]) ])
    else begin
      let st =
        if st.have_deal then st
        else
          match
            List.find_map
              (fun (src, payload) ->
                if src = Wire.functionality_id then
                  match Wire.unframe payload with
                  | [ "deal"; v0; key; cts ] -> Some (v0, key, cts)
                  | _ | (exception Invalid_argument _) -> None
                else None)
              inbox
          with
          | Some (v0, key, cts) ->
              { st with
                key;
                last = v0;
                to_forward = Array.of_list (String.split_on_char '~' cts);
                have_deal = true }
          | None -> st
      in
      if not st.have_deal then (st, [])
      else if id = 1 then begin
        (* p1 sends ct_b[i] at e1 i; processes ct_a[i-1] first. *)
        let i = (round - offset - 1) / 2 in
        if round = e1 ~offset i && i >= 1 && i <= r + 1 then begin
          let st, ok =
            if i = 1 then (st, true)
            else
              match
                List.find_map
                  (fun (src, payload) -> if src = 2 then Some payload else None)
                  inbox
              with
              | Some ct -> (
                  match dec ~key:st.key ~index:(i - 1) ct with
                  | Some v -> ({ st with last = v }, true)
                  | None -> (st, false))
              | None -> (st, false)
          in
          if not ok then ({ st with halted = true }, [ Machine.Output st.last ])
          else if i <= r then
            (st, [ Machine.Send (Wire.To 2, st.to_forward.(i - 1)) ])
          else (* i = r + 1: we just decrypted ct_a[r]; done *)
            ({ st with halted = true }, [ Machine.Output st.last ])
        end
        else (st, [])
      end
      else begin
        (* p2 processes ct_b[i] and replies with ct_a[i] at e2 i. *)
        let i = (round - offset - 2) / 2 in
        if round = e2 ~offset i && i >= 1 && i <= r then begin
          match
            List.find_map (fun (src, payload) -> if src = 1 then Some payload else None) inbox
          with
          | Some ct -> (
              match dec ~key:st.key ~index:i ct with
              | Some v ->
                  let st = { st with last = v } in
                  let send = Machine.Send (Wire.To 1, st.to_forward.(i - 1)) in
                  if i = r then ({ st with halted = true }, [ send; Machine.Output v ])
                  else (st, [ send ])
              | None -> ({ st with halted = true }, [ Machine.Output st.last ]))
          | None -> ({ st with halted = true }, [ Machine.Output st.last ])
        end
        else (st, [])
      end
    end
  in
  Machine.make
    { key = ""; to_forward = [||]; last = ""; have_deal = false; halted = false }
    step

let protocol_with_offset ~func ~variant ~offset =
  if func.Func.arity <> 2 then invalid_arg "Gordon_katz: two-party functions only";
  Protocol.make
    ~name:(Printf.sprintf "%s:%s" variant.label func.Func.name)
    ~parties:2
    ~max_rounds:(total_rounds ~variant ~offset)
    ~functionality:(dealer func variant)
    (party variant ~offset)

let protocol ~func ~variant = protocol_with_offset ~func ~variant ~offset:0

(* ------------------------------------------------------------------ *)
(* Simulator-faithful event accounting                                 *)
(* ------------------------------------------------------------------ *)

let audit_of trial =
  List.find_map
    (fun ev ->
      match ev with
      | Trace.Sent (_, env)
        when env.Wire.src = Wire.functionality_id && env.Wire.dst = Wire.To Wire.functionality_id
        -> (
          match Wire.unframe env.Wire.payload with
          | [ "audit"; istar; y ] -> (
              match int_of_string_opt istar with Some i -> Some (i, y) | None -> None)
          | _ | (exception Invalid_argument _) -> None)
      | _ -> None)
    (Trace.events trial.Events.outcome.Engine.trace)

(* The exchange round at which the corrupted party stopped cooperating:
   r+1 if it relayed all its ciphertexts (ran to completion), otherwise one
   past the last exchange message it sent.  This is the abort round the
   Theorem 23 simulator keys its decisions on, so the events below are the
   simulator's events, independent of chance value collisions. *)
let abort_round_of trial ~offset ~target =
  let peer = 3 - target in
  let last_sent =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Trace.Sent (r, env)
          when env.Wire.src = target && env.Wire.dst = Wire.To peer && r >= offset + 3 ->
            let i =
              if target = 1 then (r - offset - 1) / 2 else (r - offset - 2) / 2
            in
            max acc i
        | _ -> acc)
      0
      (Trace.events trial.Events.outcome.Engine.trace)
  in
  last_sent + 1

(* What the two sides hold when the corrupted party aborts at exchange
   round a: a corrupted p2 holds b_a (it receives first) while p1 falls
   back to a_{a-1}; a corrupted p1 holds a_{a-1} while p2 falls back to
   b_{a-1}.  A value with index >= i* is the true output. *)
let simulator_events trial ~offset ~istar =
  match Events.corrupted_parties trial with
  | [] -> (false, true)
  | [ target ] ->
      let a = abort_round_of trial ~offset ~target in
      if target = 2 then (a >= istar, a > istar) else (a - 1 >= istar, a - 1 >= istar)
  | _ -> (true, true)

let overrides ~offset =
  { Events.learned =
      Some
        (fun trial ->
          match audit_of trial with
          | None -> false
          | Some (istar, _) -> fst (simulator_events trial ~offset ~istar));
    honest_got =
      Some
        (fun trial ->
          match audit_of trial with
          | None -> true
          | Some (istar, _) -> snd (simulator_events trial ~offset ~istar)) }

let sampler ~variant rng ~inputs ~honest =
  if honest = 1 then variant.fake1 rng ~inputs else variant.fake2 rng ~inputs

(* ------------------------------------------------------------------ *)
(* Adversary strategies                                                *)
(* ------------------------------------------------------------------ *)

let abort_at_exchange ~target ~gk_round =
  let round = if target = 1 then e1 ~offset:0 gk_round else e2 ~offset:0 gk_round in
  Adversaries.abort_at ~round (Adversaries.Fixed [ target ])

let probe_machine m ~start_round ~max_rounds =
  let rec go m round =
    if round > max_rounds then None
    else
      let m', actions = m.Machine.step ~round ~inbox:[] in
      match
        List.find_map
          (function Machine.Output v -> Some (Some v) | Machine.Abort_self -> Some None | Machine.Send _ -> None)
          actions
      with
      | Some result -> result
      | None -> go m' (round + 1)
  in
  go m start_round

(* Drive the corrupted party honestly; after each round probe the held
   fallback value; abort (and claim) once [decide history] fires. *)
let value_adversary ~name ~target ~decide =
  Adversaries.driven ~name (Adversaries.Fixed [ target ]) (fun _rng ~protocol driver ->
      let history = ref [] in
      let aborted = ref false in
      let max_rounds = protocol.Protocol.max_rounds in
      fun (view : Adversary.view) ->
        if !aborted then Adversary.silent_decision
        else begin
          let sends, outputs = Adversaries.step_machines driver view in
          let finished = match outputs with v :: _ -> Some v | [] -> None in
          let held =
            match (finished, Adversaries.machines driver) with
            | None, [ (_, m) ] ->
                probe_machine m ~start_round:(view.Adversary.round + 1) ~max_rounds
            | _ -> finished
          in
          (match held with Some v -> history := v :: !history | None -> ());
          if finished <> None then begin
            aborted := true;
            { Adversary.send = sends; corrupt = []; claim_learned = finished }
          end
          else if held <> None && decide (List.rev !history) then begin
            aborted := true;
            { Adversary.send = []; corrupt = []; claim_learned = held }
          end
          else { Adversary.send = sends; corrupt = []; claim_learned = None }
        end)

let rec last_k k = function
  | [] -> []
  | l -> if List.length l <= k then l else last_k k (List.tl l)

let abort_on_repeat ~target ~k =
  value_adversary
    ~name:(Printf.sprintf "gk-repeat%d:p%d" k target)
    ~target
    ~decide:(fun history ->
      List.length history >= k
      &&
      match last_k k history with
      | v :: rest -> List.for_all (String.equal v) rest
      | [] -> false)

let zoo ~variant =
  let r = variant.rounds in
  let sample_rounds =
    let step = max 1 (r / 12) in
    List.sort_uniq compare
      (1 :: 2 :: r
      :: List.filter (fun i -> i >= 1 && i <= r) (List.init 13 (fun k -> 1 + (k * step))))
  in
  Adversary.passive
  :: Adversaries.semi_honest (Adversaries.Fixed [ 2 ])
  :: List.concat_map
       (fun target ->
         abort_on_repeat ~target ~k:2 :: abort_on_repeat ~target ~k:3
         :: abort_on_repeat ~target ~k:5
         :: List.map (fun gk_round -> abort_at_exchange ~target ~gk_round) sample_rounds)
       [ 1; 2 ]
