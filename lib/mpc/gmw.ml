module Rng = Fair_crypto.Rng
module Machine = Fair_exec.Machine
module Protocol = Fair_exec.Protocol
module Wire = Fair_exec.Wire

(* Per-AND-gate dealer material for one party: its cross-term blinding bit
   s, the sender correlation for the OT in which it plays sender, and the
   receiver correlation for the other one. *)
type and_setup = { s : bool; snd_corr : Ot.sender_corr; rcv_corr : Ot.receiver_corr }

type party_setup = {
  ands : and_setup array; (* indexed by AND-gate occurrence order *)
  dealer_shares : (int * bool) list; (* shares of dealer-owned input wires *)
}

let bit b = if b then '1' else '0'
let unbit c = c = '1'

let setup_to_string su =
  let b = Buffer.create 64 in
  Array.iter
    (fun a ->
      Buffer.add_char b (bit a.s);
      Buffer.add_char b (bit a.snd_corr.Ot.r0);
      Buffer.add_char b (bit a.snd_corr.Ot.r1);
      Buffer.add_char b (bit a.rcv_corr.Ot.c);
      Buffer.add_char b (bit a.rcv_corr.Ot.rc))
    su.ands;
  Buffer.add_char b '#';
  List.iter
    (fun (w, v) ->
      Buffer.add_string b (string_of_int w);
      Buffer.add_char b ':';
      Buffer.add_char b (bit v);
      Buffer.add_char b ';')
    su.dealer_shares;
  Buffer.contents b

let setup_of_string s =
  match String.index_opt s '#' with
  | None -> invalid_arg "Gmw.setup_of_string"
  | Some pos ->
      let head = String.sub s 0 pos in
      if String.length head mod 5 <> 0 then invalid_arg "Gmw.setup_of_string";
      let ands =
        Array.init
          (String.length head / 5)
          (fun i ->
            let at k = unbit head.[(5 * i) + k] in
            { s = at 0;
              snd_corr = { Ot.r0 = at 1; r1 = at 2 };
              rcv_corr = { Ot.c = at 3; rc = at 4 } })
      in
      let rest = String.sub s (pos + 1) (String.length s - pos - 1) in
      let dealer_shares =
        List.filter_map
          (fun item ->
            if item = "" then None
            else
              match String.split_on_char ':' item with
              | [ w; v ] when String.length v = 1 -> (
                  match int_of_string_opt w with
                  | Some w -> Some (w, unbit v.[0])
                  | None -> invalid_arg "Gmw.setup_of_string")
              | _ -> invalid_arg "Gmw.setup_of_string")
          (String.split_on_char ';' rest)
      in
      { ands; dealer_shares }

(* AND-gate layering by AND-depth, as in Spdz.layering. *)
let layering (c : Boolcirc.t) =
  let n_in = c.Boolcirc.n_inputs in
  let depth = Array.make (Boolcirc.n_wires c) 0 in
  let layers = Hashtbl.create 8 in
  Array.iteri
    (fun g gate ->
      let d =
        match gate with
        | Boolcirc.Xor (a, b) -> max depth.(a) depth.(b)
        | Boolcirc.And (a, b) ->
            let d = max depth.(a) depth.(b) + 1 in
            let cur = try Hashtbl.find layers d with Not_found -> [] in
            Hashtbl.replace layers d (g :: cur);
            d
        | Boolcirc.Not a -> depth.(a)
        | Boolcirc.Const _ -> 0
      in
      depth.(n_in + g) <- d)
    c.Boolcirc.gates;
  let max_depth = Array.fold_left max 0 depth in
  Array.init max_depth (fun d ->
      List.sort compare (try Hashtbl.find layers (d + 1) with Not_found -> []))

let and_index (c : Boolcirc.t) =
  let tbl = Hashtbl.create 8 in
  let k = ref 0 in
  Array.iteri
    (fun g gate ->
      match gate with
      | Boolcirc.And _ ->
          Hashtbl.add tbl g !k;
          incr k
      | _ -> ())
    c.Boolcirc.gates;
  tbl

let rounds ~circuit = (2 * Array.length (layering circuit)) + 4

let deal rng (circuit : Boolcirc.t) =
  let n_ands = Boolcirc.n_ands circuit in
  (* OT1: p1 sender (messages depend on p1's a-share), p2 receiver;
     OT2: the mirror image. *)
  let ot1 = Array.init n_ands (fun _ -> Ot.deal rng) in
  let ot2 = Array.init n_ands (fun _ -> Ot.deal rng) in
  let s1 = Array.init n_ands (fun _ -> Rng.bool rng) in
  let s2 = Array.init n_ands (fun _ -> Rng.bool rng) in
  let dealer_wires =
    List.filter
      (fun w -> circuit.Boolcirc.input_owner.(w) = 0)
      (List.init circuit.Boolcirc.n_inputs (fun w -> w))
  in
  let dealer_bits = List.map (fun w -> (w, Rng.bool rng, Rng.bool rng)) dealer_wires in
  let p1 =
    { ands =
        Array.init n_ands (fun i ->
            { s = s1.(i); snd_corr = fst ot1.(i); rcv_corr = snd ot2.(i) });
      dealer_shares = List.map (fun (w, b1, _) -> (w, b1)) dealer_bits }
  in
  let p2 =
    { ands =
        Array.init n_ands (fun i ->
            { s = s2.(i); snd_corr = fst ot2.(i); rcv_corr = snd ot1.(i) });
      dealer_shares = List.map (fun (w, _, b2) -> (w, b2)) dealer_bits }
  in
  [| setup_to_string p1; setup_to_string p2 |]

type state = {
  shares : bool option array;
  pending_d : (int * bool) list; (* peer's d bit per gate, from the last d-round *)
  halted : bool;
}

let protocol ~name ~circuit ~encode_input ~decode_output =
  Array.iter
    (fun p -> if p < 0 || p > 2 then invalid_arg "Gmw.protocol: two parties only")
    circuit.Boolcirc.input_owner;
  let layers = layering circuit in
  let n_layers = Array.length layers in
  let aidx = and_index circuit in
  let n_in = circuit.Boolcirc.n_inputs in
  let out_round = (2 * n_layers) + 2 in
  let make_party ~rng ~id ~n:_ ~input ~setup =
    let su = setup_of_string setup in
    let peer = 3 - id in
    let my_wires =
      List.filter (fun w -> circuit.Boolcirc.input_owner.(w) = id) (List.init n_in (fun w -> w))
    in
    let my_bits =
      let bits = encode_input ~id input in
      if Array.length bits <> List.length my_wires then invalid_arg "Gmw: encode_input arity";
      bits
    in
    (* Pre-draw the masks for our own input wires (machine purity). *)
    let masks = Array.init (List.length my_wires) (fun _ -> Rng.bool rng) in
    let find_peer_msg ~inbox ~tag =
      List.find_map
        (fun (src, payload) ->
          if src = peer then Wire.tagged ~tag payload else None)
        inbox
    in
    (* Evaluate all local gates whose operands are known (AND gates are
       filled in by the OT machinery). *)
    let compute_local st =
      let shares = Array.copy st.shares in
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun g gate ->
            let w = n_in + g in
            if shares.(w) = None then
              let v =
                match gate with
                | Boolcirc.Xor (a, b) -> (
                    match (shares.(a), shares.(b)) with
                    | Some x, Some y -> Some (x <> y)
                    | _ -> None)
                | Boolcirc.Not a ->
                    (* only one party flips its share *)
                    Option.map (fun x -> if id = 1 then not x else x) shares.(a)
                | Boolcirc.Const c -> Some (if id = 1 then c else false)
                | Boolcirc.And _ -> None
              in
              match v with
              | Some v ->
                  shares.(w) <- Some v;
                  changed := true
              | None -> ())
          circuit.Boolcirc.gates
      done;
      { st with shares }
    in
    let operands g =
      match circuit.Boolcirc.gates.(g) with
      | Boolcirc.And (a, b) -> (a, b)
      | _ -> assert false
    in
    (* My d-bits for a layer: I am receiver with choice = my b-share. *)
    let d_message st layer =
      String.concat ""
        (List.map
           (fun g ->
             let _, bw = operands g in
             let su_g = su.ands.(Hashtbl.find aidx g) in
             String.make 1
               (bit (Ot.receiver_round1 su_g.rcv_corr ~choice:(Option.get st.shares.(bw)))))
           layer)
    in
    (* My e-bits replying to the peer's d-bits: I am sender with messages
       (s, s XOR my a-share). *)
    let e_message st layer peer_ds =
      String.concat ""
        (List.map2
           (fun g d ->
             let aw, _ = operands g in
             let su_g = su.ands.(Hashtbl.find aidx g) in
             let a = Option.get st.shares.(aw) in
             let e0, e1 = Ot.sender_round2 su_g.snd_corr ~d ~m0:su_g.s ~m1:(su_g.s <> a) in
             Printf.sprintf "%c%c" (bit e0) (bit e1))
           layer peer_ds)
    in
    (* Fill in a layer's AND shares from the peer's e replies. *)
    let complete_layer st layer peer_es =
      let shares = Array.copy st.shares in
      List.iteri
        (fun i g ->
          let aw, bw = operands g in
          let su_g = su.ands.(Hashtbl.find aidx g) in
          let a = Option.get shares.(aw) and b = Option.get shares.(bw) in
          let e0, e1 = List.nth peer_es i in
          let cross = Ot.receiver_output su_g.rcv_corr ~choice:b ~e0 ~e1 in
          shares.(n_in + g) <- Some ((a && b) <> su_g.s <> cross))
        layer;
      { st with shares }
    in
    let step st ~round ~inbox =
      if st.halted then (st, [])
      else
        let fail () = ({ st with halted = true }, [ Machine.Abort_self ]) in
        if round = 1 then begin
          (* Split our inputs; send the peer its shares; install ours; fill
             dealer wires from the setup. *)
          let shares = Array.copy st.shares in
          List.iteri
            (fun i w -> shares.(w) <- Some (my_bits.(i) <> masks.(i)))
            my_wires;
          List.iter (fun (w, v) -> shares.(w) <- Some v) su.dealer_shares;
          let body = String.init (Array.length masks) (fun i -> bit masks.(i)) in
          ( { st with shares },
            [ Machine.Send (Wire.To peer, Wire.frame [ "inshares"; body ]) ] )
        end
        else begin
          (* 1. process what arrived *)
          let processed =
            if round = 2 then
              match find_peer_msg ~inbox ~tag:"inshares" with
              | Some body ->
                  let peer_wires =
                    List.filter
                      (fun w -> circuit.Boolcirc.input_owner.(w) = peer)
                      (List.init n_in (fun w -> w))
                  in
                  if String.length body <> List.length peer_wires then None
                  else begin
                    let shares = Array.copy st.shares in
                    List.iteri (fun i w -> shares.(w) <- Some (unbit body.[i])) peer_wires;
                    Some { st with shares }
                  end
              | None -> None
            else if round <= out_round then begin
              (* AND layer machinery: even rounds carry d's, odd carry e's *)
              let k = (round - 1) / 2 in
              (* layer index (1-based) whose traffic lands at this round *)
              if round mod 2 = 1 then
                (* round 2k+1: the peer's d-bits for layer k arrive *)
                match find_peer_msg ~inbox ~tag:"otd" with
                | Some body when String.length body = List.length layers.(k - 1) ->
                    Some
                      { st with
                        pending_d =
                          List.mapi (fun i g -> (g, unbit body.[i])) layers.(k - 1) }
                | _ -> None
              else
                (* round 2k+2 (k >= 1): the peer's e-bits for layer k arrive *)
                match find_peer_msg ~inbox ~tag:"ote" with
                | Some body when String.length body = 2 * List.length layers.(k - 1) ->
                    let es =
                      List.mapi
                        (fun i _ -> (unbit body.[2 * i], unbit body.[(2 * i) + 1]))
                        layers.(k - 1)
                    in
                    Some (complete_layer st layers.(k - 1) es)
                | _ -> None
            end
            else Some st (* the output exchange is validated when recombining *)
          in
          match processed with
          | None -> fail ()
          | Some st -> (
              let st = compute_local st in
              (* 2. send this round's message / output *)
              if round >= 2 && round <= out_round - 1 && round mod 2 = 0 then begin
                (* round 2k: send d-bits for layer k *)
                let k = round / 2 in
                if k <= n_layers then
                  ( st,
                    [ Machine.Send (Wire.To peer, Wire.frame [ "otd"; d_message st layers.(k - 1) ])
                    ] )
                else (st, [])
              end
              else if round >= 3 && round <= out_round - 1 then begin
                (* round 2k+1: reply with e-bits for layer k *)
                let k = (round - 1) / 2 in
                let ds = List.map snd st.pending_d in
                if List.length ds <> List.length layers.(k - 1) then fail ()
                else
                  ( st,
                    [ Machine.Send
                        (Wire.To peer, Wire.frame [ "ote"; e_message st layers.(k - 1) ds ]) ] )
              end
              else if round = out_round then
                let body =
                  String.init
                    (Array.length circuit.Boolcirc.outputs)
                    (fun i -> bit (Option.get st.shares.(circuit.Boolcirc.outputs.(i))))
                in
                (st, [ Machine.Send (Wire.To peer, Wire.frame [ "outshares"; body ]) ])
              else if round = out_round + 1 then
                (* recombine (recompute here; the processing branch above
                   only validated the message) *)
                match find_peer_msg ~inbox ~tag:"outshares" with
                | Some body ->
                    let outs =
                      Array.mapi
                        (fun i w -> Option.get st.shares.(w) <> unbit body.[i])
                        circuit.Boolcirc.outputs
                    in
                    ({ st with halted = true }, [ Machine.Output (decode_output outs) ])
                | None -> fail ()
              else (st, []))
        end
    in
    Machine.make
      { shares = Array.make (Boolcirc.n_wires circuit) None; pending_d = []; halted = false }
      step
  in
  Protocol.make ~name ~parties:2
    ~max_rounds:(out_round + 2)
    ~setup:(fun rng -> deal rng circuit)
    make_party
