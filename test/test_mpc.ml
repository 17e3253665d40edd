(* Tests for the MPC layer: function descriptors, circuits, the ideal
   functionalities, and the SPDZ-style secure-with-abort substrate. *)

module Field = Fair_field.Field
module Rng = Fair_crypto.Rng
module Wire = Fair_exec.Wire
module Machine = Fair_exec.Machine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Engine = Fair_exec.Engine
module Func = Fair_mpc.Func
module Circuit = Fair_mpc.Circuit
module Ideal = Fair_mpc.Ideal
module Spdz = Fair_mpc.Spdz

let qtest name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let rng () = Rng.create ~seed:"mpc-test"
let field = Alcotest.testable Field.pp Field.equal

(* ----------------------------- func -------------------------------- *)

let test_funcs () =
  Alcotest.(check string) "swap" "b,a" (Func.eval_exn Func.swap [| "a"; "b" |]);
  Alcotest.(check string) "concat" "x,y,z" (Func.eval_exn (Func.concat ~n:3) [| "x"; "y"; "z" |]);
  Alcotest.(check string) "and 1,1" "1" (Func.eval_exn Func.and_ [| "1"; "1" |]);
  Alcotest.(check string) "and 1,0" "0" (Func.eval_exn Func.and_ [| "1"; "0" |]);
  Alcotest.(check string) "mod_sum" "1" (Func.eval_exn (Func.mod_sum ~m:5 ~n:3) [| "2"; "3"; "1" |]);
  Alcotest.(check string) "maximum" "17" (Func.eval_exn (Func.maximum ~n:3) [| "4"; "17"; "9" |]);
  Alcotest.(check string) "contract" "signed<a;b>" (Func.eval_exn Func.contract [| "a"; "b" |])

let test_func_arity () =
  Alcotest.check_raises "arity" (Invalid_argument "Func.eval_exn: arity of swap") (fun () ->
      ignore (Func.eval_exn Func.swap [| "a" |]))

(* ---------------------------- circuit ------------------------------ *)

let test_circuit_eval () =
  let c = Circuit.product ~n:3 in
  Alcotest.check field "product"
    (Field.of_int 105)
    (Circuit.eval c [| Field.of_int 3; Field.of_int 5; Field.of_int 7 |]).(0);
  let s = Circuit.sum ~n:4 in
  Alcotest.check field "sum"
    (Field.of_int 10)
    (Circuit.eval s [| Field.one; Field.two; Field.of_int 3; Field.of_int 4 |]).(0)

let test_circuit_inner_product () =
  let c = Circuit.inner_product ~n:3 in
  (* a = (1,2,3), b = (4,5,6): 4 + 10 + 18 = 32 *)
  let inputs = Array.map Field.of_int [| 1; 2; 3; 4; 5; 6 |] in
  Alcotest.check field "inner product" (Field.of_int 32) (Circuit.eval c inputs).(0);
  Alcotest.(check int) "three mult gates" 3 (Circuit.n_mults c)

let test_circuit_validation () =
  Alcotest.check_raises "forward reference"
    (Invalid_argument "Circuit.make: gate references an undefined wire") (fun () ->
      ignore (Circuit.make ~input_owner:[| 1 |] ~gates:[| Circuit.Add (0, 5) |] ~outputs:[| 0 |]));
  Alcotest.check_raises "bad output"
    (Invalid_argument "Circuit.make: output references an undefined wire") (fun () ->
      ignore (Circuit.make ~input_owner:[| 1 |] ~gates:[||] ~outputs:[| 3 |]))

let prop_circuit_linear_gates =
  qtest "random affine circuits agree with direct evaluation" 100
    QCheck.(pair (int_bound (Field.p - 1)) (int_bound (Field.p - 1)))
    (fun (a, b) ->
      (* (a + b) * 3 + 7 over a two-gate circuit *)
      let c =
        Circuit.make ~input_owner:[| 1; 2 |]
          ~gates:
            [| Circuit.Add (0, 1);
               Circuit.Mul_const (Field.of_int 3, 2);
               Circuit.Add_const (Field.of_int 7, 3) |]
          ~outputs:[| 4 |]
      in
      let expect = Field.add (Field.mul (Field.of_int 3) (Field.add (Field.of_int a) (Field.of_int b))) (Field.of_int 7) in
      Field.equal (Circuit.eval c [| Field.of_int a; Field.of_int b |]).(0) expect)

(* ------------------------------ ideal ------------------------------- *)

let outputs_of o =
  List.map
    (fun (id, r) ->
      ( id,
        match r with
        | Engine.Honest_output v -> v
        | Engine.Honest_abort -> "<abort>"
        | Engine.Honest_no_output -> "<none>"
        | Engine.Was_corrupted -> "<corrupted>" ))
    o.Engine.results

let test_dummy_fair () =
  let o =
    Engine.run ~protocol:(Ideal.dummy_protocol_fair Func.swap) ~adversary:Adversary.passive
      ~inputs:[| "a"; "b" |] ~rng:(rng ())
  in
  Alcotest.(check (list (pair int string))) "both output" [ (1, "b,a"); (2, "b,a") ] (outputs_of o)

let grab_and_abort =
  (* Corrupt p1; ask F for the output, then abort before release. *)
  Adversary.make ~name:"grab-and-abort" (fun _rng ~protocol:_ ->
      { Adversary.initial = [ 1 ];
        step =
          (fun view ->
            let open Adversary in
            if view.round = 1 then
              let my_input =
                match view.corrupted with c :: _ -> c.Adversary.input | [] -> ""
              in
              { send =
                  [ (1, Wire.To 0, Ideal.msg_input my_input);
                    (1, Wire.To 0, Ideal.msg_get_output) ];
                corrupt = [];
                claim_learned = None }
            else
              match
                List.find_map
                  (fun (env : Wire.envelope) ->
                    if env.Wire.src = 0 then
                      match Wire.unframe env.Wire.payload with
                      | [ "output"; y ] -> Some y
                      | _ -> None
                    else None)
                  view.rushed
              with
              | Some y ->
                  { send = [ (1, Wire.To 0, Ideal.msg_abort) ]; corrupt = []; claim_learned = Some y }
              | None -> silent_decision) })

let test_sfe_abort_window () =
  (* Against F_sfe^⊥ the grab-and-abort adversary gets the output while the
     honest party ends with ⊥. *)
  let o =
    Engine.run ~protocol:(Ideal.dummy_protocol_abort Func.swap) ~adversary:grab_and_abort
      ~inputs:[| "a"; "b" |] ~rng:(rng ())
  in
  Alcotest.(check bool) "adversary learned" true (Engine.claimed o ~truth:"b,a");
  (match List.assoc 2 o.Engine.results with
  | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "honest party should end with ⊥");
  (* Against the fair functionality the same strategy achieves nothing. *)
  let o =
    Engine.run ~protocol:(Ideal.dummy_protocol_fair Func.swap) ~adversary:grab_and_abort
      ~inputs:[| "a"; "b" |] ~rng:(rng ())
  in
  match List.assoc 2 o.Engine.results with
  | Engine.Honest_output v -> Alcotest.(check string) "honest still gets output" "b,a" v
  | _ -> Alcotest.fail "fair functionality must deliver"

let test_sfe_abort_default_inputs () =
  (* A corrupted party that never provides input is replaced by the
     function's default. *)
  let silent1 =
    Adversary.make ~name:"silent1" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 1 ]; step = (fun _ -> Adversary.silent_decision) })
  in
  let o =
    Engine.run ~protocol:(Ideal.dummy_protocol_abort Func.swap) ~adversary:silent1
      ~inputs:[| "a"; "b" |] ~rng:(rng ())
  in
  match List.assoc 2 o.Engine.results with
  | Engine.Honest_output v -> Alcotest.(check string) "default used" "b,_" v
  | _ -> Alcotest.fail "honest party should receive an output"

let test_sfe_random_abort () =
  (* F_sfe^$: abort replaces the honest output with a sample, not ⊥. *)
  let sampler _rng ~inputs:_ ~honest:_ = "random-replacement" in
  let o =
    Engine.run
      ~protocol:(Ideal.dummy_protocol_random_abort Func.swap sampler)
      ~adversary:grab_and_abort ~inputs:[| "a"; "b" |] ~rng:(rng ())
  in
  match List.assoc 2 o.Engine.results with
  | Engine.Honest_output v -> Alcotest.(check string) "replaced output" "random-replacement" v
  | _ -> Alcotest.fail "random-abort must still output"

let test_input_substitution () =
  (* The adversary replaces the corrupted party's input at the functionality. *)
  let substituting =
    Adversary.make ~name:"substitute" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 1 ];
          step =
            (fun view ->
              if view.Adversary.round = 1 then
                { Adversary.silent_decision with
                  Adversary.send = [ (1, Wire.To 0, Ideal.msg_input "evil") ] }
              else Adversary.silent_decision) })
  in
  let o =
    Engine.run ~protocol:(Ideal.dummy_protocol_abort Func.swap) ~adversary:substituting
      ~inputs:[| "good"; "b" |] ~rng:(rng ())
  in
  match List.assoc 2 o.Engine.results with
  | Engine.Honest_output v -> Alcotest.(check string) "substituted" "b,evil" v
  | _ -> Alcotest.fail "should deliver"

(* The functionality's reply as every hybrid party reads it: the first
   frame from id 0 decides, whatever comes after it or from the peers. *)
let reply_name = function
  | Ideal.No_reply -> "No_reply"
  | Ideal.Aborted -> "Aborted"
  | Ideal.Output y -> "Output " ^ y

let test_reply_decoder () =
  let reply = Alcotest.testable (fun fmt r -> Format.pp_print_string fmt (reply_name r)) ( = ) in
  let output = Ideal.msg_output (Wire.frame [ "share"; "1" ]) in
  List.iter
    (fun (label, inbox, want) -> Alcotest.check reply label want (Ideal.reply inbox))
    [ ("nothing from the functionality", [ (2, output); (1, Ideal.msg_abort) ], Ideal.No_reply);
      ("an abort", [ (2, output); (0, Ideal.msg_abort) ], Ideal.Aborted);
      ("an output", [ (0, output) ], Ideal.Output (Wire.frame [ "share"; "1" ]));
      ("an undecodable frame", [ (0, "output|dangling\\"); (0, output) ], Ideal.No_reply);
      ("two replies: the first wins", [ (0, output); (0, Ideal.msg_abort) ],
        Ideal.Output (Wire.frame [ "share"; "1" ])) ]

(* Bytes from a corrupted peer or a faulted channel reach these decoders
   unchecked: they must answer, never raise.  Fields are drawn from the
   framing's own alphabet so separators and escapes actually occur. *)
let prop_decoders_total =
  let token = QCheck.Gen.oneofl [ "output"; "abort"; "|"; "\\"; "\\p"; "p"; "0"; "ab"; "" ] in
  let raw =
    QCheck.Gen.(
      oneof
        [ string_size (int_bound 24);
          map (String.concat "") (list_size (int_bound 8) token) ])
  in
  qtest "reply decoder and Lamport verifier total on arbitrary bytes" 500
    (QCheck.make ~print:QCheck.Print.(triple string string string)
       QCheck.Gen.(triple raw raw raw))
    (fun (a, b, c) ->
      ignore (Ideal.decode_reply a);
      ignore (Ideal.reply [ (0, a); (0, b) ]);
      not
        (Fair_crypto.Signature.Lamport.Verifier.verify_hex ~pk_hex:a ~msg:b ~signature_hex:c))

(* ------------------------------ SPDZ -------------------------------- *)

let spdz_product n =
  Spdz.sfe ~name:"prod" ~circuit:(Circuit.product ~n) ~n
    ~encode_input:(fun ~id:_ s -> [ Field.of_int (int_of_string s) ])
    ~decode_output:(fun ys -> string_of_int (Field.to_int ys.(0)))

let test_spdz_honest_2 () =
  let o =
    Engine.run ~protocol:(spdz_product 2) ~adversary:Adversary.passive ~inputs:[| "6"; "7" |]
      ~rng:(rng ())
  in
  Alcotest.(check (list (pair int string))) "product" [ (1, "42"); (2, "42") ] (outputs_of o)

let test_spdz_honest_3 () =
  let o =
    Engine.run ~protocol:(spdz_product 3) ~adversary:Adversary.passive
      ~inputs:[| "2"; "3"; "4" |] ~rng:(rng ())
  in
  Alcotest.(check (list (pair int string)))
    "product" [ (1, "24"); (2, "24"); (3, "24") ] (outputs_of o)

let test_spdz_inner_product () =
  let n = 2 in
  let c = Circuit.inner_product ~n in
  let proto =
    Spdz.sfe ~name:"ip" ~circuit:c ~n
      ~encode_input:(fun ~id:_ s ->
        match String.split_on_char ':' s with
        | [ a; b ] -> [ Field.of_int (int_of_string a); Field.of_int (int_of_string b) ]
        | _ -> invalid_arg "input")
      ~decode_output:(fun ys -> string_of_int (Field.to_int ys.(0)))
  in
  let o =
    Engine.run ~protocol:proto ~adversary:Adversary.passive ~inputs:[| "2:5"; "3:7" |]
      ~rng:(rng ())
  in
  (* a=(2,3), b=(5,7): 10 + 21 = 31 *)
  Alcotest.(check (list (pair int string))) "inner product" [ (1, "31"); (2, "31") ] (outputs_of o)

let prop_spdz_matches_plain_eval =
  qtest "secure evaluation agrees with plain evaluation" 20
    QCheck.(triple (int_bound 1000) (int_bound 1000) (int_bound 1000))
    (fun (a, b, c) ->
      let proto = spdz_product 3 in
      let inputs = [| string_of_int a; string_of_int b; string_of_int c |] in
      let o =
        Engine.run ~protocol:proto ~adversary:Adversary.passive ~inputs
          ~rng:(Rng.create ~seed:(Printf.sprintf "spdz%d-%d-%d" a b c))
      in
      let expect = Field.to_int (Field.mul (Field.of_int a) (Field.mul (Field.of_int b) (Field.of_int c))) in
      List.for_all
        (fun (_, r) ->
          match r with Engine.Honest_output v -> v = string_of_int expect | _ -> false)
        o.Engine.results)

(* Random circuits: a seed-driven generator over all gate kinds; the secure
   evaluation must agree with the plain one on random inputs. *)
let random_circuit rng ~n_parties ~n_gates =
  let n_in = n_parties + 1 (* one wire per party plus a dealer wire *) in
  let owners = Array.init n_in (fun i -> if i < n_parties then i + 1 else 0) in
  let gates =
    Array.init n_gates (fun g ->
        let wire () = Rng.int rng (n_in + g) in
        match Rng.int rng 6 with
        | 0 -> Circuit.Add (wire (), wire ())
        | 1 -> Circuit.Sub (wire (), wire ())
        | 2 -> Circuit.Mul (wire (), wire ())
        | 3 -> Circuit.Mul_const (Rng.field rng, wire ())
        | 4 -> Circuit.Add_const (Rng.field rng, wire ())
        | _ -> Circuit.Const (Rng.field rng))
  in
  let outputs = [| n_in + n_gates - 1; Rng.int rng (n_in + n_gates) |] in
  Circuit.make ~input_owner:owners ~gates ~outputs

let prop_spdz_random_circuits =
  qtest "random circuits: secure = plain (modulo the dealer wire)" 15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g = Rng.of_int_seed (100_000 + seed) in
      let circuit = random_circuit g ~n_parties:2 ~n_gates:6 in
      let xs = [| Rng.field g; Rng.field g |] in
      let proto =
        Spdz.sfe ~name:"rand" ~circuit ~n:2
          ~encode_input:(fun ~id:_ s -> [ Field.of_int (int_of_string s) ])
          ~decode_output:(fun ys ->
            String.concat "," (List.map (fun v -> string_of_int (Field.to_int v)) (Array.to_list ys)))
      in
      let o =
        Engine.run ~protocol:proto ~adversary:Adversary.passive
          ~inputs:(Array.map (fun x -> string_of_int (Field.to_int x)) xs)
          ~rng:(Rng.of_int_seed (200_000 + seed))
      in
      (* All parties agree on some output (the dealer wire is random, so we
         compare the parties against each other, and against plain eval when
         the circuit does not read the dealer wire). *)
      match List.map snd (Engine.honest_outputs o) with
      | [ Some a; Some b ] -> String.equal a b
      | _ -> false)

let test_spdz_cheating_share_detected () =
  (* A corrupted party announcing a wrong share in the output stage must not
     make honest parties accept a wrong value: they abort instead. *)
  let cheater =
    Adversary.make ~name:"cheat-share" (fun _rng ~protocol:_ ->
        let machine = ref None in
        { Adversary.initial = [ 1 ];
          step =
            (fun view ->
              (match !machine with
              | None ->
                  List.iter
                    (fun (c : Adversary.corrupted) ->
                      if c.Adversary.id = 1 then machine := Some c.Adversary.machine)
                    view.Adversary.corrupted
              | Some _ -> ());
              match !machine with
              | None -> Adversary.silent_decision
              | Some m ->
                  let inbox = try List.assoc 1 view.Adversary.inbox with Not_found -> [] in
                  let m', actions = m.Machine.step ~round:view.Adversary.round ~inbox in
                  machine := Some m';
                  let sends =
                    List.filter_map
                      (function
                        | Machine.Send (dst, payload) ->
                            (* corrupt the numeric share inside "shares" messages *)
                            let payload =
                              match Wire.unframe payload with
                              | [ "shares"; body ] -> (
                                  match String.split_on_char ':' body with
                                  | [ w; v ] ->
                                      let v' = (int_of_string v + 1) mod Field.p in
                                      Wire.frame [ "shares"; Printf.sprintf "%s:%d" w v' ]
                                  | _ -> payload)
                              | _ -> payload
                              | exception Invalid_argument _ -> payload
                            in
                            Some (1, dst, payload)
                        | _ -> None)
                      actions
                  in
                  { Adversary.send = sends; corrupt = []; claim_learned = None }) })
  in
  let o =
    Engine.run ~protocol:(spdz_product 2) ~adversary:cheater ~inputs:[| "6"; "7" |] ~rng:(rng ())
  in
  match List.assoc 2 o.Engine.results with
  | Engine.Honest_abort -> ()
  | Engine.Honest_output v -> Alcotest.failf "honest accepted %s from a cheating opener" v
  | _ -> Alcotest.fail "unexpected result"

let test_spdz_silent_abort () =
  (* A party that goes silent causes ⊥, never a wrong output. *)
  let silent2 =
    Adversary.make ~name:"silent2" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 2 ]; step = (fun _ -> Adversary.silent_decision) })
  in
  let o =
    Engine.run ~protocol:(spdz_product 2) ~adversary:silent2 ~inputs:[| "6"; "7" |] ~rng:(rng ())
  in
  match List.assoc 1 o.Engine.results with
  | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "expected ⊥ under a silent peer"

let test_spdz_setup_roundtrip () =
  let c = Circuit.inner_product ~n:2 in
  let setups = Spdz.deal (rng ()) ~circuit:c ~n:2 ~reveal_to:[] in
  Array.iter
    (fun s ->
      let s' = Spdz.setup_of_string (Spdz.setup_to_string s) in
      Alcotest.check field "alpha share survives" (Spdz.setup_alpha_share s)
        (Spdz.setup_alpha_share s');
      Alcotest.(check int) "clears survive"
        (List.length (Spdz.setup_clears s))
        (List.length (Spdz.setup_clears s')))
    setups

let test_spdz_reveal_validation () =
  let c = Circuit.identity2 in
  Alcotest.check_raises "reveal of party wire"
    (Invalid_argument "Spdz.deal: reveal of a party-owned wire") (fun () ->
      ignore (Spdz.deal (rng ()) ~circuit:c ~n:2 ~reveal_to:[ (0, 1) ]))

let () =
  Alcotest.run "fair_mpc"
    [ ( "func",
        [ Alcotest.test_case "stock functions" `Quick test_funcs;
          Alcotest.test_case "arity checked" `Quick test_func_arity ] );
      ( "circuit",
        [ Alcotest.test_case "product/sum evaluation" `Quick test_circuit_eval;
          Alcotest.test_case "inner product" `Quick test_circuit_inner_product;
          Alcotest.test_case "wire validation" `Quick test_circuit_validation;
          prop_circuit_linear_gates ] );
      ( "ideal",
        [ Alcotest.test_case "dummy fair protocol" `Quick test_dummy_fair;
          Alcotest.test_case "abort window of F_sfe^⊥" `Quick test_sfe_abort_window;
          Alcotest.test_case "default inputs" `Quick test_sfe_abort_default_inputs;
          Alcotest.test_case "F_sfe^$ random replacement" `Quick test_sfe_random_abort;
          Alcotest.test_case "input substitution" `Quick test_input_substitution;
          Alcotest.test_case "reply decoder" `Quick test_reply_decoder;
          prop_decoders_total ] );
      ( "spdz",
        [ Alcotest.test_case "honest n=2" `Quick test_spdz_honest_2;
          Alcotest.test_case "honest n=3" `Quick test_spdz_honest_3;
          Alcotest.test_case "multiplication via Beaver triples" `Quick test_spdz_inner_product;
          prop_spdz_matches_plain_eval;
          prop_spdz_random_circuits;
          Alcotest.test_case "forged share detected (MAC check)" `Quick
            test_spdz_cheating_share_detected;
          Alcotest.test_case "silent peer causes ⊥" `Quick test_spdz_silent_abort;
          Alcotest.test_case "setup serialization" `Quick test_spdz_setup_roundtrip;
          Alcotest.test_case "reveal validation" `Quick test_spdz_reveal_validation ] ) ]
