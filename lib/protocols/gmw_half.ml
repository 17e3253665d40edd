module Protocol = Fair_exec.Protocol
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Rng = Fair_crypto.Rng
module Sha256 = Fair_crypto.Sha256
module Field = Fair_field.Field
module Vss = Fair_sharing.Vss
module Func = Fair_mpc.Func
module Ideal = Fair_mpc.Ideal

let hybrid_rounds = Ideal.dummy_rounds + 2

let reconstruction_threshold ~n = (n / 2) + 1

let keystream pad len =
  let rng = Rng.create ~seed:("gmw-half-pad:" ^ string_of_int (Field.to_int pad)) in
  Rng.bytes rng len

let encrypt pad y =
  let ks = keystream pad (String.length y) in
  Sha256.to_hex (String.init (String.length y) (fun i -> Char.chr (Char.code y.[i] lxor Char.code ks.[i])))

let decrypt pad c_hex =
  let c = Sha256.of_hex c_hex in
  let ks = keystream pad (String.length c) in
  String.init (String.length c) (fun i -> Char.chr (Char.code c.[i] lxor Char.code ks.[i]))

(* F outputs: every party gets the ciphertext plus its VSS package. *)
let vss_outputs (func : Func.t) rng ~inputs =
  let n = func.Func.arity in
  let y = Func.eval_exn func inputs in
  let pad = Rng.field rng in
  let ciphertext = encrypt pad y in
  let packages = Vss.deal rng ~threshold:(reconstruction_threshold ~n) ~n pad in
  Array.init n (fun i ->
      Wire.frame [ "package"; ciphertext; Vss.package_to_string packages.(i) ])

type state = {
  package : (string * Vss.package) option; (* ciphertext, package *)
  received_round : int;
  halted : bool;
}

let party (func : Func.t) ~rng:_ ~id:_ ~n ~input ~setup:_ =
  ignore func;
  let step st ~round ~inbox =
    if st.halted then (st, [])
    else
      match st.package with
      | None -> (
          if round = 1 then (st, Ideal.send_input input)
          else
            match Ideal.reply inbox with
            | Ideal.Aborted -> ({ st with halted = true }, [ Machine.Abort_self ])
            | Ideal.Output body -> (
                match Wire.unframe body with
                | [ "package"; ciphertext; pkg ] -> (
                    match Vss.package_of_string pkg with
                    | pkg ->
                        ( { st with package = Some (ciphertext, pkg); received_round = round },
                          [ Machine.Send
                              ( Wire.Broadcast,
                                Wire.frame
                                  [ "announce"; Vss.announcement_to_string (Vss.announce pkg) ] )
                          ] )
                    | exception Invalid_argument _ ->
                        ({ st with halted = true }, [ Machine.Abort_self ]))
                | _ | (exception Invalid_argument _) -> (st, []))
            | Ideal.No_reply -> (st, []))
      | Some (ciphertext, pkg) ->
          if round = st.received_round + 1 then begin
            let announcements =
              List.filter_map
                (fun (_, payload) ->
                  match Wire.tagged ~tag:"announce" payload with
                  | Some body -> (
                      match Vss.announcement_of_string body with
                      | a -> Some a
                      | exception Invalid_argument _ -> None)
                  | None -> None)
                inbox
            in
            match
              Vss.reconstruct pkg announcements ~threshold:(reconstruction_threshold ~n)
            with
            | Some pad -> ({ st with halted = true }, [ Machine.Output (decrypt pad ciphertext) ])
            | None -> ({ st with halted = true }, [ Machine.Abort_self ])
          end
          else (st, [])
  in
  Machine.make { package = None; received_round = 0; halted = false } step

let hybrid func =
  if func.Func.arity < 2 then invalid_arg "Gmw_half.hybrid: need n >= 2";
  Protocol.make
    ~name:(Printf.sprintf "gmw-half:%s" func.Func.name)
    ~parties:func.Func.arity ~max_rounds:hybrid_rounds
    ~functionality:(Ideal.sfe_abort ~func ~outputs:(vss_outputs func) ())
    (party func)
