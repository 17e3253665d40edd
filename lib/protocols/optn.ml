module Protocol = Fair_exec.Protocol
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Rng = Fair_crypto.Rng
module Signature = Fair_crypto.Signature
module Sha256 = Fair_crypto.Sha256
module Func = Fair_mpc.Func
module Ideal = Fair_mpc.Ideal

let hybrid_rounds = Ideal.dummy_rounds + 2

(* Lamport key generation dominates the per-trial cost of Monte-Carlo
   sweeps; since key reuse across *independent executions* cannot change any
   event (no strategy forges either way), we draw from a small precomputed
   pool instead of regenerating 16 KiB of preimages per trial.  The pool is
   a pure function of its fixed seeds, so it is built once per process and
   shared read-only across trials and domains.  The hex verification key
   the wire format ships (32 KiB per encode) is equally static and is
   precomputed alongside each entry. *)
type pool_key = {
  sk : Signature.Lamport.secret_key;
  vk_hex : string;
  none_framed : string;  (* [Wire.frame ["none"; vk_hex]], static per key *)
}

let pool_size = 16
let built_pool : pool_key array option ref = ref None
let pool_lock = Mutex.create ()

(* Built on first use, not at load, so processes that never run ΠOpt-nSFE
   skip the 16 keygens.  The lock makes concurrent first uses wait for one
   build (a [lazy] forced from two domains at once raises instead), so the
   pool's hashing is counted once at any -j. *)
let key_pool () =
  Mutex.protect pool_lock (fun () ->
      match !built_pool with
      | Some keys -> keys
      | None ->
          let keys =
            Array.init pool_size (fun i ->
                let sk, pk =
                  Signature.Lamport.keygen (Rng.create ~seed:("optn-key-pool-" ^ string_of_int i))
                in
                let vk_hex = Sha256.to_hex (Signature.Lamport.public_key_to_string pk) in
                { sk; vk_hex; none_framed = Wire.frame [ "none"; vk_hex ] })
          in
          built_pool := Some keys;
          keys)

(* F^⊥_priv-sfe outputs: party i* gets (y, σ, vk); everyone else (⊥, vk). *)
let priv_outputs (func : Func.t) rng ~inputs =
  let n = func.Func.arity in
  let y = Func.eval_exn func inputs in
  let pool = key_pool () in
  let k = pool.(Rng.int rng (Array.length pool)) in
  let signature =
    Sha256.to_hex (Signature.Lamport.signature_to_string (Signature.Lamport.sign k.sk y))
  in
  let star = 1 + Rng.int rng n in
  Array.init n (fun i ->
      if i + 1 = star then Wire.frame [ "val"; y; signature; k.vk_hex ] else k.none_framed)

type holding = Value of string * string (* y, signature hex *) | Nothing

type state = {
  holding : holding option; (* None until phase 1 completes *)
  vk : string;
  received_round : int;
  halted : bool;
}

let optn_party (_func : Func.t) ~rng:_ ~id:_ ~n:_ ~input ~setup:_ =
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
                      [ Machine.Send (Wire.Broadcast, Wire.frame [ "announce"; y; signature ]) ] )
                | [ "none"; vk ] ->
                    ( { st with holding = Some Nothing; vk; received_round = round },
                      [ Machine.Send (Wire.Broadcast, Wire.frame [ "announce-none" ]) ] )
                | _ | (exception Invalid_argument _) -> (st, []))
            | Ideal.No_reply -> (st, []))
      | Some holding ->
          if round = st.received_round + 1 then begin
            (* Collect announcements; adopt a validly signed value.  Every
               party verifies the same announcement (and trials reuse pool
               keys), so verification goes through the memoized wire-form
               verifier — same verdicts, no repeated 32 KiB key parses. *)
            let valid =
              List.find_map
                (fun (_, payload) ->
                  match Wire.unframe payload with
                  | [ "announce"; y; signature ]
                    when Signature.Lamport.Verifier.verify_hex ~pk_hex:st.vk ~msg:y
                           ~signature_hex:signature ->
                      Some y
                  | _ | (exception Invalid_argument _) -> None)
                inbox
            in
            let valid =
              match (valid, holding) with
              | Some y, _ -> Some y
              | None, Value (y, _) -> Some y (* our own broadcast counts *)
              | None, Nothing -> None
            in
            match valid with
            | Some y -> ({ st with halted = true }, [ Machine.Output y ])
            | None -> ({ st with halted = true }, [ Machine.Abort_self ])
          end
          else (st, [])
  in
  Machine.make { holding = None; vk = ""; received_round = 0; halted = false } step

let hybrid func =
  if func.Func.arity < 2 then invalid_arg "Optn.hybrid: need n >= 2";
  Protocol.make
    ~name:(Printf.sprintf "optn:%s" func.Func.name)
    ~parties:func.Func.arity ~max_rounds:hybrid_rounds
    ~functionality:(Ideal.sfe_abort ~func ~outputs:(priv_outputs func) ())
    (optn_party func)
