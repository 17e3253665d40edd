module Rng = Fair_crypto.Rng
module Machine = Fair_exec.Machine
module Protocol = Fair_exec.Protocol
module Wire = Fair_exec.Wire

let compute_round = 2
let release_round = 4
let dummy_rounds = 5

let msg_input x = Wire.frame [ "input"; x ]
let msg_get_output = Wire.frame [ "get-output" ]
let msg_abort = Wire.frame [ "abort" ]
let msg_output y = Wire.frame [ "output"; y ]
let send_input x = [ Machine.Send (Wire.To Wire.functionality_id, msg_input x) ]

type reply = No_reply | Aborted | Output of string

(* [unframe payload = ["abort"]] exactly when [payload] is [msg_abort]'s
   five bytes: a '|' would make a second field, and an escape would put a
   '|' or '\' into the first. *)
let decode_reply payload =
  match Wire.tagged ~tag:"output" payload with
  | Some body -> Output body
  | None -> if String.equal payload msg_abort then Aborted else No_reply

let rec reply = function
  | [] -> No_reply
  | (src, payload) :: rest ->
      if src = Wire.functionality_id then decode_reply payload else reply rest

type per_party_outputs = Rng.t -> inputs:string array -> string array

let global_outputs (func : Func.t) _rng ~inputs =
  let y = Func.eval_exn func inputs in
  Array.make func.Func.arity y

(* What happens to honest parties when the adversary aborts. *)
type abort_mode =
  | Abort_bottom (* F_sfe^⊥: honest parties output ⊥ *)
  | Abort_ignore (* fair F_sfe: abort has no effect *)
  | Abort_resample of (Rng.t -> inputs:string array -> honest:Wire.party_id -> string)
      (* F_sfe^$: honest party i gets a fresh sample from Y_i *)

type state = {
  inputs : string option array; (* index 0 unused *)
  mutable outputs : string array option;
  mutable aborted : bool;
  mutable released : bool;
  mutable pending : Wire.party_id list; (* get-output requests not yet served *)
}

let functionality ~(func : Func.t) ~outputs_of ~abort_mode ~release_at rng ~n =
  if n <> func.Func.arity then invalid_arg "Ideal: function arity mismatch";
  let st =
    { inputs = Array.make (n + 1) None;
      outputs = None;
      aborted = false;
      released = false;
      pending = [] }
  in
  let step st ~round ~inbox =
    List.iter
      (fun (src, payload) ->
        if src >= 1 && src <= n then
          match Wire.unframe payload with
          | [ "input"; x ] -> if st.inputs.(src) = None then st.inputs.(src) <- Some x
          | [ "get-output" ] -> st.pending <- src :: st.pending
          | [ "abort" ] -> if not st.released then st.aborted <- true
          | _ | (exception Invalid_argument _) -> ())
      inbox;
    let actions = ref [] in
    if round = compute_round && st.outputs = None then begin
      let inputs =
        Array.init n (fun i ->
            match st.inputs.(i + 1) with Some x -> x | None -> func.Func.default_input)
      in
      st.outputs <- Some (outputs_of rng ~inputs)
    end;
    (match st.outputs with
    | Some ys ->
        List.iter
          (fun src ->
            actions := Machine.Send (Wire.To src, msg_output ys.(src - 1)) :: !actions)
          (List.rev st.pending);
        st.pending <- []
    | None -> ());
    if round = release_at && not st.released then begin
      st.released <- true;
      let ys = match st.outputs with Some ys -> ys | None -> assert false in
      (* Per-party output bodies are often physically shared (ΠOpt-nSFE's
         non-holders all receive the key pool's "none" payload — 32 KiB),
         so the release wrap is memoized on physical equality: one frame
         per distinct body instead of one per party. *)
      let last = ref None in
      let wrap body =
        match !last with
        | Some (b, f) when b == body -> f
        | _ ->
            let f = msg_output body in
            last := Some (body, f);
            f
      in
      for i = 1 to n do
        let payload =
          if st.aborted then
            match abort_mode with
            | Abort_bottom -> msg_abort
            | Abort_ignore -> wrap ys.(i - 1)
            | Abort_resample sample ->
                let inputs =
                  Array.init n (fun j ->
                      match st.inputs.(j + 1) with
                      | Some x -> x
                      | None -> func.Func.default_input)
                in
                msg_output (sample rng ~inputs ~honest:i)
          else wrap ys.(i - 1)
        in
        actions := Machine.Send (Wire.To i, payload) :: !actions
      done
    end;
    (st, List.rev !actions)
  in
  Machine.make st step

let sfe_abort ~func ?outputs () rng ~n =
  let outputs_of = match outputs with Some o -> o | None -> global_outputs func in
  functionality ~func ~outputs_of ~abort_mode:Abort_bottom ~release_at:release_round rng ~n

let sfe_fair ~func () rng ~n =
  functionality ~func ~outputs_of:(global_outputs func) ~abort_mode:Abort_ignore
    ~release_at:(compute_round + 1) rng ~n

type sampler = Rng.t -> inputs:string array -> honest:Wire.party_id -> string

let sfe_random_abort ~func ~sampler () rng ~n =
  functionality ~func ~outputs_of:(global_outputs func) ~abort_mode:(Abort_resample sampler)
    ~release_at:release_round rng ~n

let dummy_party ~rng:_ ~id:_ ~n:_ ~input ~setup:_ =
  let step sent ~round:_ ~inbox =
    if not sent then (true, send_input input)
    else
      (* Unlike the hybrid parties, read past an undecodable frame. *)
      let result =
        List.find_map
          (fun (src, payload) ->
            if src = Wire.functionality_id then
              match decode_reply payload with
              | Output y -> Some (Machine.Output y)
              | Aborted -> Some Machine.Abort_self
              | No_reply -> None
            else None)
          inbox
      in
      (true, match result with Some a -> [ a ] | None -> [])
  in
  Machine.make false step

let dummy_protocol_abort func =
  Protocol.make
    ~name:("dummy-abort:" ^ func.Func.name)
    ~parties:func.Func.arity ~max_rounds:(dummy_rounds + 2)
    ~functionality:(sfe_abort ~func ())
    dummy_party

let dummy_protocol_fair func =
  Protocol.make
    ~name:("dummy-fair:" ^ func.Func.name)
    ~parties:func.Func.arity ~max_rounds:(dummy_rounds + 2)
    ~functionality:(sfe_fair ~func ())
    dummy_party

let dummy_protocol_random_abort func sampler =
  Protocol.make
    ~name:("dummy-random-abort:" ^ func.Func.name)
    ~parties:func.Func.arity ~max_rounds:(dummy_rounds + 2)
    ~functionality:(sfe_random_abort ~func ~sampler ())
    dummy_party
