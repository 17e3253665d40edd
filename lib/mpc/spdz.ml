module Field = Fair_field.Field
module Rng = Fair_crypto.Rng
module Sha256 = Fair_crypto.Sha256
module Machine = Fair_exec.Machine
module Protocol = Fair_exec.Protocol
module Wire = Fair_exec.Wire

type auth = { share : Field.t; mac : Field.t }

let auth_add a b = { share = Field.add a.share b.share; mac = Field.add a.mac b.mac }
let auth_sub a b = { share = Field.sub a.share b.share; mac = Field.sub a.mac b.mac }
let auth_scale c a = { share = Field.mul c a.share; mac = Field.mul c a.mac }

let auth_add_const ~alpha_share ~first c a =
  { share = (if first then Field.add a.share c else a.share);
    mac = Field.add a.mac (Field.mul alpha_share c) }

type triple = { ta : auth; tb : auth; tc : auth }

type party_setup = {
  alpha_share : Field.t;
  first : bool;
  masks : auth array;
  clears : (int * Field.t) list;
  triples : triple array;
}

let setup_alpha_share s = s.alpha_share
let setup_clears s = s.clears

(* ------------------------------------------------------------------ *)
(* Dealer                                                              *)
(* ------------------------------------------------------------------ *)

let share_auth rng ~n ~alpha v =
  let shares = Fair_sharing.Additive.share_scalar rng ~n v in
  let macs = Fair_sharing.Additive.share_scalar rng ~n (Field.mul alpha v) in
  Array.init n (fun i -> { share = shares.(i); mac = macs.(i) })

let deal rng ~circuit ~n ~reveal_to =
  let open Circuit in
  let alpha_shares = Rng.field_vector rng n in
  let alpha = Array.fold_left Field.add Field.zero alpha_shares in
  let n_in = circuit.n_inputs in
  let mask_values = Array.init n_in (fun _ -> Rng.field rng) in
  let mask_shares = Array.map (share_auth rng ~n ~alpha) mask_values in
  List.iter
    (fun (w, p) ->
      if w < 0 || w >= n_in then invalid_arg "Spdz.deal: reveal of a non-input wire";
      if circuit.input_owner.(w) <> 0 then invalid_arg "Spdz.deal: reveal of a party-owned wire";
      if p < 1 || p > n then invalid_arg "Spdz.deal: reveal to invalid party")
    reveal_to;
  let mult_count = Circuit.n_mults circuit in
  let triples =
    Array.init mult_count (fun _ ->
        let a = Rng.field rng and b = Rng.field rng in
        let c = Field.mul a b in
        (share_auth rng ~n ~alpha a, share_auth rng ~n ~alpha b, share_auth rng ~n ~alpha c))
  in
  Array.init n (fun i ->
      let clears =
        List.concat
          [ List.filter_map
              (fun w ->
                if circuit.input_owner.(w) = i + 1 then Some (w, mask_values.(w)) else None)
              (List.init n_in (fun w -> w));
            List.filter_map
              (fun (w, p) -> if p = i + 1 then Some (w, mask_values.(w)) else None)
              reveal_to ]
      in
      { alpha_share = alpha_shares.(i);
        first = i = 0;
        masks = Array.map (fun s -> s.(i)) mask_shares;
        clears;
        triples = Array.map (fun (a, b, c) -> { ta = a.(i); tb = b.(i); tc = c.(i) }) triples })

(* ------------------------------------------------------------------ *)
(* Setup serialization                                                 *)
(* ------------------------------------------------------------------ *)

let setup_to_string s =
  let b = Buffer.create 256 in
  let emit n =
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ';'
  in
  emit (Field.to_int s.alpha_share);
  emit (if s.first then 1 else 0);
  emit (Array.length s.masks);
  Array.iter
    (fun a ->
      emit (Field.to_int a.share);
      emit (Field.to_int a.mac))
    s.masks;
  emit (List.length s.clears);
  List.iter
    (fun (w, v) ->
      emit w;
      emit (Field.to_int v))
    s.clears;
  emit (Array.length s.triples);
  Array.iter
    (fun t ->
      List.iter
        (fun a ->
          emit (Field.to_int a.share);
          emit (Field.to_int a.mac))
        [ t.ta; t.tb; t.tc ])
    s.triples;
  Buffer.contents b

let setup_of_string str =
  let parts = Array.of_list (List.filter (fun s -> s <> "") (String.split_on_char ';' str)) in
  let pos = ref 0 in
  let next () =
    if !pos >= Array.length parts then invalid_arg "Spdz.setup_of_string: truncated";
    let v =
      match int_of_string_opt parts.(!pos) with
      | Some v -> v
      | None -> invalid_arg "Spdz.setup_of_string: not an int"
    in
    incr pos;
    v
  in
  let next_field () = Field.of_int (next ()) in
  let next_auth () =
    let share = next_field () in
    let mac = next_field () in
    { share; mac }
  in
  let alpha_share = next_field () in
  let first = next () = 1 in
  let masks = Array.init (next ()) (fun _ -> next_auth ()) in
  let clears =
    List.init (next ()) (fun _ ->
        let w = next () in
        (w, next_field ()))
  in
  let triples =
    Array.init (next ()) (fun _ ->
        let ta = next_auth () in
        let tb = next_auth () in
        let tc = next_auth () in
        { ta; tb; tc })
  in
  { alpha_share; first; masks; clears; triples }

(* ------------------------------------------------------------------ *)
(* Online protocol                                                     *)
(* ------------------------------------------------------------------ *)

type stage_plan = stage_index:int -> opened:(Circuit.wire * Field.t) list -> Circuit.wire list option

let single_stage_plan circuit ~stage_index ~opened:_ =
  if stage_index = 0 then Some (Array.to_list circuit.Circuit.outputs) else None

(* Multiplication layering: layer k (0-based) holds the Mul gates at
   multiplicative depth k+1. *)
let layering (circuit : Circuit.t) =
  let n_in = circuit.n_inputs in
  let depth = Array.make (Circuit.n_wires circuit) 0 in
  let layers = Hashtbl.create 8 in
  Array.iteri
    (fun g gate ->
      let w = n_in + g in
      let d =
        match gate with
        | Circuit.Add (a, b) | Circuit.Sub (a, b) -> max depth.(a) depth.(b)
        | Circuit.Mul (a, b) ->
            let d = max depth.(a) depth.(b) + 1 in
            let cur = try Hashtbl.find layers d with Not_found -> [] in
            Hashtbl.replace layers d (g :: cur);
            d
        | Circuit.Mul_const (_, a) | Circuit.Add_const (_, a) -> depth.(a)
        | Circuit.Const _ -> 0
      in
      depth.(w) <- d)
    circuit.gates;
  let max_depth = Array.fold_left max 0 depth in
  Array.init max_depth (fun d ->
      List.sort compare (try Hashtbl.find layers (d + 1) with Not_found -> []))

let triple_index (circuit : Circuit.t) =
  let tbl = Hashtbl.create 8 in
  let k = ref 0 in
  Array.iteri
    (fun g gate ->
      match gate with
      | Circuit.Mul _ ->
          Hashtbl.add tbl g !k;
          incr k
      | _ -> ())
    circuit.gates;
  tbl

(* What we are about to send in the stage machinery. *)
type stage_sub = Send_shares | Send_commit | Send_open

type run_state = {
  wires : auth option array; (* copy-on-write: never mutated in place *)
  beaver : (int * (Field.t * Field.t)) list; (* opened (d, e) per Mul gate *)
  opens_log : (Field.t * Field.t) list; (* (public value, my mac share), newest first *)
  public : (Circuit.wire * Field.t) list; (* opened outputs, oldest first *)
  stage : int;
  stage_wires : Circuit.wire list;
  stage_sub : stage_sub;
  my_sigma : Field.t;
  my_salt : string;
  peer_commits : (int * string) list;
  halted : bool;
}

let protocol ~name ~circuit ~n ~encode_input ~reveal_to ~plan ~output_of ~on_abort ~max_stages
    =
  let layers = layering circuit in
  let n_layers = Array.length layers in
  let tidx = triple_index circuit in
  let n_in = circuit.Circuit.n_inputs in
  let stage_base = n_layers + 2 in
  let max_rounds = stage_base + (3 * max_stages) + 3 in
  let setup rng = Array.map setup_to_string (deal rng ~circuit ~n ~reveal_to) in
  let make_party ~rng ~id ~n:_ ~input ~setup =
    let su = setup_of_string setup in
    let my_input_wires =
      List.filter (fun w -> circuit.Circuit.input_owner.(w) = id) (List.init n_in (fun w -> w))
    in
    let input_values =
      let vs = encode_input ~id input in
      if List.length vs <> List.length my_input_wires then invalid_arg "Spdz: encode_input arity";
      List.combine my_input_wires vs
    in
    let salts = Array.init (max_stages + 1) (fun _ -> Sha256.to_hex (Rng.bytes rng 16)) in
    let abort_actions st =
      match on_abort ~id ~input ~opened:st.public ~clears:su.clears with
      | Some out -> [ Machine.Output out ]
      | None -> [ Machine.Abort_self ]
    in
    let clear_of w = List.assoc_opt w su.clears in
    (* Exactly one well-formed broadcast of [kind] from every peer. *)
    let collect_peers ~inbox ~kind =
      let found = Hashtbl.create 8 in
      List.iter
        (fun (src, payload) ->
          if src >= 1 && src <= n && src <> id && not (Hashtbl.mem found src) then
            match Wire.tagged ~tag:kind payload with
            | Some body -> Hashtbl.add found src body
            | None -> ())
        inbox;
      if Hashtbl.length found = n - 1 then
        Some
          (List.filter_map
             (fun j -> if j = id then None else Option.map (fun b -> (j, b)) (Hashtbl.find_opt found j))
             (List.init n (fun i -> i + 1)))
      else None
    in
    let parse_kv body =
      try
        if body = "" then Some []
        else
          Some
            (List.map
               (fun item ->
                 match String.split_on_char ':' item with
                 | [ k; v ] ->
                     (int_of_string k, List.map int_of_string (String.split_on_char '.' v))
                 | _ -> failwith "kv")
               (String.split_on_char ',' body))
      with _ -> None
    in
    let fmt_kv kvs =
      String.concat ","
        (List.map
           (fun (k, vs) -> Printf.sprintf "%d:%s" k (String.concat "." (List.map string_of_int vs)))
           kvs)
    in
    (* Evaluate every gate whose operands (and Beaver openings) are ready. *)
    let compute_ready st =
      let wires = Array.copy st.wires in
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun g gate ->
            let w = n_in + g in
            if wires.(w) = None then
              let value =
                match gate with
                | Circuit.Add (a, b) -> (
                    match (wires.(a), wires.(b)) with
                    | Some x, Some y -> Some (auth_add x y)
                    | _ -> None)
                | Circuit.Sub (a, b) -> (
                    match (wires.(a), wires.(b)) with
                    | Some x, Some y -> Some (auth_sub x y)
                    | _ -> None)
                | Circuit.Mul_const (c, a) -> Option.map (auth_scale c) wires.(a)
                | Circuit.Add_const (c, a) ->
                    Option.map
                      (auth_add_const ~alpha_share:su.alpha_share ~first:su.first c)
                      wires.(a)
                | Circuit.Const c ->
                    Some
                      (auth_add_const ~alpha_share:su.alpha_share ~first:su.first c
                         { share = Field.zero; mac = Field.zero })
                | Circuit.Mul (_, _) -> (
                    match List.assoc_opt g st.beaver with
                    | Some (d, e) ->
                        let t = su.triples.(Hashtbl.find tidx g) in
                        let z =
                          auth_add t.tc (auth_add (auth_scale d t.tb) (auth_scale e t.ta))
                        in
                        Some
                          (auth_add_const ~alpha_share:su.alpha_share ~first:su.first
                             (Field.mul d e) z)
                    | None -> None)
              in
              match value with
              | Some v ->
                  wires.(w) <- Some v;
                  changed := true
              | None -> ())
          circuit.Circuit.gates
      done;
      { st with wires }
    in
    let my_beaver_shares st g =
      match circuit.Circuit.gates.(g) with
      | Circuit.Mul (a, b) ->
          let x = Option.get st.wires.(a) and y = Option.get st.wires.(b) in
          let t = su.triples.(Hashtbl.find tidx g) in
          (auth_sub x t.ta, auth_sub y t.tb)
      | _ -> assert false
    in
    let layer_message st layer =
      fmt_kv
        (List.map
           (fun g ->
             let d, e = my_beaver_shares st g in
             (g, [ Field.to_int d.share; Field.to_int e.share ]))
           layer)
    in
    let process_layer st layer peers =
      let parsed = List.map (fun (j, body) -> (j, parse_kv body)) peers in
      if List.exists (fun (_, p) -> p = None) parsed then None
      else begin
        let parsed = List.map (fun (j, p) -> (j, Option.get p)) parsed in
        let ok = ref true in
        let log = ref st.opens_log in
        let beaver = ref st.beaver in
        List.iter
          (fun g ->
            let my_d, my_e = my_beaver_shares st g in
            let sum_d = ref my_d.share and sum_e = ref my_e.share in
            List.iter
              (fun (_, items) ->
                match List.assoc_opt g items with
                | Some [ ds; es ] ->
                    sum_d := Field.add !sum_d (Field.of_int ds);
                    sum_e := Field.add !sum_e (Field.of_int es)
                | _ -> ok := false)
              parsed;
            beaver := (g, (!sum_d, !sum_e)) :: !beaver;
            log := (!sum_e, my_e.mac) :: (!sum_d, my_d.mac) :: !log)
          layer;
        if !ok then Some { st with opens_log = !log; beaver = !beaver } else None
      end
    in
    let process_eps st peers =
      let parsed = List.map (fun (j, b) -> (j, parse_kv b)) peers in
      if List.exists (fun (_, p) -> p = None) parsed then None
      else begin
        let parsed = List.map (fun (j, p) -> (j, Option.get p)) parsed in
        let eps = Array.make (max 1 n_in) Field.zero in
        let ok = ref true in
        List.iter (fun (w, x) -> eps.(w) <- Field.sub x (Option.get (clear_of w))) input_values;
        List.iter
          (fun (j, items) ->
            let expected =
              List.filter (fun w -> circuit.Circuit.input_owner.(w) = j) (List.init n_in (fun w -> w))
            in
            if List.length items <> List.length expected then ok := false
            else
              List.iter
                (fun (w, vs) ->
                  match vs with
                  | [ v ] when List.mem w expected -> eps.(w) <- Field.of_int v
                  | _ -> ok := false)
                items)
          parsed;
        if not !ok then None
        else begin
          let wires = Array.copy st.wires in
          for w = 0 to n_in - 1 do
            let base = su.masks.(w) in
            wires.(w) <-
              Some
                (if circuit.Circuit.input_owner.(w) = 0 then base
                 else auth_add_const ~alpha_share:su.alpha_share ~first:su.first eps.(w) base)
          done;
          Some { st with wires }
        end
      end
    in
    let process_stage_shares st peers =
      let parsed = List.map (fun (j, body) -> (j, parse_kv body)) peers in
      if List.exists (fun (_, p) -> p = None) parsed then None
      else begin
        let parsed = List.map (fun (j, p) -> (j, Option.get p)) parsed in
        let ok = ref true in
        let log = ref st.opens_log in
        let public = ref st.public in
        List.iter
          (fun w ->
            let mine = Option.get st.wires.(w) in
            let total = ref mine.share in
            List.iter
              (fun (_, items) ->
                match List.assoc_opt w items with
                | Some [ s ] -> total := Field.add !total (Field.of_int s)
                | _ -> ok := false)
              parsed;
            log := (!total, mine.mac) :: !log;
            public := !public @ [ (w, !total) ])
          (List.sort compare st.stage_wires);
        if !ok then Some { st with opens_log = !log; public = !public } else None
      end
    in
    (* MAC check: sigma_i = Σ_j chi_j (m_ij - alpha_i v_j) over everything
       opened so far, with chi derived from the transcript. *)
    let sigma_of st =
      let log = List.rev st.opens_log in
      let seed =
        Sha256.digest
          (String.concat "," (List.map (fun (v, _) -> string_of_int (Field.to_int v)) log)
          ^ "#stage" ^ string_of_int st.stage)
      in
      let chi_rng = Rng.create ~seed in
      List.fold_left
        (fun acc (v, m) ->
          let chi = Rng.field chi_rng in
          Field.add acc (Field.mul chi (Field.sub m (Field.mul su.alpha_share v))))
        Field.zero log
    in
    let process_sigma_opens st peers =
      let parsed =
        List.map
          (fun (j, body) ->
            match String.split_on_char '.' body with
            | [ s; salt_hex ] -> (
                match int_of_string_opt s with
                | Some s -> Some (j, Field.of_int s, salt_hex)
                | None -> None)
            | _ -> None)
          peers
      in
      if List.exists (fun p -> p = None) parsed then None
      else begin
        let parsed = List.map Option.get parsed in
        let ok = ref true in
        let total = ref st.my_sigma in
        List.iter
          (fun (j, sigma, salt_hex) ->
            (match List.assoc_opt j st.peer_commits with
            | Some c ->
                let expect =
                  Sha256.hex_digest (salt_hex ^ "#" ^ string_of_int (Field.to_int sigma))
                in
                if not (String.equal c expect) then ok := false
            | None -> ok := false);
            total := Field.add !total sigma)
          parsed;
        if !ok && Field.equal !total Field.zero then Some st else None
      end
    in
    (* --------------------------------------------------------------- *)
    let step st ~round ~inbox =
      if st.halted then (st, [])
      else
        let fail () = ({ st with halted = true }, abort_actions st) in
        (* 1. Process what arrived (sent in round-1). *)
        let processed =
          if round = 1 then Some st
          else if round = 2 then
            match collect_peers ~inbox ~kind:"eps" with
            | None -> None
            | Some peers -> process_eps st peers
          else if round <= n_layers + 2 then
            match collect_peers ~inbox ~kind:"beaver" with
            | None -> None
            | Some peers -> process_layer st layers.(round - 3) peers
          else
            match st.stage_sub with
            | Send_commit -> (
                match collect_peers ~inbox ~kind:"shares" with
                | None -> None
                | Some peers -> process_stage_shares st peers)
            | Send_open -> (
                match collect_peers ~inbox ~kind:"sigc" with
                | None -> None
                | Some peers -> Some { st with peer_commits = peers })
            | Send_shares -> (
                match collect_peers ~inbox ~kind:"sigo" with
                | None -> None
                | Some peers -> process_sigma_opens st peers)
        in
        match processed with
        | None -> fail ()
        | Some st -> (
            let st = compute_ready st in
            (* 2. Send this round's message. *)
            if round = 1 then
              let msg =
                fmt_kv
                  (List.map
                     (fun (w, x) ->
                       let r = Option.get (clear_of w) in
                       (w, [ Field.to_int (Field.sub x r) ]))
                     input_values)
              in
              (st, [ Machine.Send (Wire.Broadcast, Wire.frame [ "eps"; msg ]) ])
            else if round <= n_layers + 1 then
              let body = layer_message st layers.(round - 2) in
              (st, [ Machine.Send (Wire.Broadcast, Wire.frame [ "beaver"; body ]) ])
            else
              match st.stage_sub with
              | Send_shares -> (
                  match plan ~stage_index:st.stage ~opened:st.public with
                  | None ->
                      let out = output_of ~id ~opened:st.public ~clears:su.clears in
                      ({ st with halted = true }, [ Machine.Output out ])
                  | Some wires_to_open ->
                      if
                        List.exists
                          (fun w -> w < 0 || w >= Array.length st.wires || st.wires.(w) = None)
                          wires_to_open
                      then fail ()
                      else
                        let body =
                          fmt_kv
                            (List.map
                               (fun w ->
                                 ( w,
                                   [ Field.to_int (Option.get st.wires.(w)).share ] ))
                               (List.sort compare wires_to_open))
                        in
                        ( { st with stage_wires = wires_to_open; stage_sub = Send_commit },
                          [ Machine.Send (Wire.Broadcast, Wire.frame [ "shares"; body ]) ] ))
              | Send_commit ->
                  let sigma = sigma_of st in
                  let salt = salts.(st.stage mod (max_stages + 1)) in
                  let c = Sha256.hex_digest (salt ^ "#" ^ string_of_int (Field.to_int sigma)) in
                  ( { st with my_sigma = sigma; my_salt = salt; stage_sub = Send_open },
                    [ Machine.Send (Wire.Broadcast, Wire.frame [ "sigc"; c ]) ] )
              | Send_open ->
                  let body = Printf.sprintf "%d.%s" (Field.to_int st.my_sigma) st.my_salt in
                  ( { st with stage = st.stage + 1; stage_sub = Send_shares },
                    [ Machine.Send (Wire.Broadcast, Wire.frame [ "sigo"; body ]) ] ))
    in
    let init =
      { wires = Array.make (Circuit.n_wires circuit) None;
        beaver = [];
        opens_log = [];
        public = [];
        stage = 0;
        stage_wires = [];
        stage_sub = Send_shares;
        my_sigma = Field.zero;
        my_salt = "";
        peer_commits = [];
        halted = false }
    in
    Machine.make init step
  in
  Protocol.make ~name ~parties:n ~max_rounds ~setup make_party

let sfe ~name ~circuit ~n ~encode_input ~decode_output =
  protocol ~name ~circuit ~n
    ~encode_input:(fun ~id input -> encode_input ~id input)
    ~reveal_to:[]
    ~plan:(single_stage_plan circuit)
    ~output_of:(fun ~id:_ ~opened ~clears:_ ->
      decode_output (Array.of_list (List.map snd opened)))
    ~on_abort:(fun ~id:_ ~input:_ ~opened:_ ~clears:_ -> None)
    ~max_stages:2
