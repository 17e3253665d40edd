(* Robustness fuzzing: an adversary that sprays malformed payloads at the
   honest parties (and the trusted party) must never crash a machine, never
   hang the engine, and never trick honest parties into accepting an
   illegitimate output.  Protocols whose relaxed functionality permits
   random outputs (the Gordon–Katz family under F_sfe^$) are exempt from
   the breach check but not from the no-crash check. *)

open Fairness
module Engine = Fair_exec.Engine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Wire = Fair_exec.Wire
module Rng = Fair_crypto.Rng
module Func = Fair_mpc.Func
module Field = Fair_field.Field

(* Corrupt one random party and send bursts of random bytes to random
   destinations (peers, the functionality, broadcast) every round. *)
let fuzzer =
  Adversary.make ~name:"fuzzer" (fun rng ~protocol ->
      let n = protocol.Protocol.parties in
      let me = 1 + Rng.int rng n in
      let step (view : Adversary.view) =
        let burst = 1 + Rng.int rng 3 in
        let sends =
          List.init burst (fun _ ->
              let dst =
                match Rng.int rng 3 with
                | 0 -> Wire.To (Rng.int rng (n + 1)) (* includes the functionality *)
                | 1 -> Wire.Broadcast
                | _ -> Wire.To (1 + Rng.int rng n)
              in
              let len = Rng.int rng 40 in
              let payload =
                match Rng.int rng 4 with
                | 0 -> Rng.bytes rng len (* raw bytes, possibly invalid framing *)
                | 1 -> Wire.frame [ "output"; Rng.bytes rng len ] (* spoofed F messages *)
                | 2 -> Wire.frame [ "opening"; Rng.bytes rng len ]
                | _ -> String.concat "|" [ "shares"; Rng.bytes rng len; "\\" ]
              in
              (me, dst, payload))
        in
        ignore view;
        { Adversary.send = sends; corrupt = []; claim_learned = None }
      in
      { Adversary.initial = [ me ]; step })

(* Honest machines mixed with a fuzzing peer: like fuzzer, but the corrupted
   machine also runs honestly so deeper protocol states get reached before
   the garbage lands. *)
let hybrid_fuzzer =
  Adversary.make ~name:"hybrid-fuzzer" (fun rng ~protocol ->
      let inner = fuzzer.Adversary.make (Rng.split rng ~label:"inner") ~protocol in
      let honest =
        (Fair_protocols.Adversaries.semi_honest (Fair_protocols.Adversaries.Fixed inner.Adversary.initial))
          .Adversary.make
          (Rng.split rng ~label:"honest")
          ~protocol
      in
      { Adversary.initial = inner.Adversary.initial;
        step =
          (fun view ->
            let a = inner.Adversary.step view in
            let b = honest.Adversary.step view in
            { Adversary.send = b.Adversary.send @ a.Adversary.send;
              corrupt = [];
              claim_learned = None }) })

let protocols : (string * Protocol.t * Func.t * (Rng.t -> string array) * bool) list =
  (* (name, protocol, func, env, check_breach) *)
  let env2 = Montecarlo.uniform_field_inputs ~n:2 in
  let bits = Montecarlo.uniform_bit_inputs ~n:2 in
  let gk_variant =
    Fair_protocols.Gordon_katz.poly_domain ~func:Func.and_ ~p:2 ~domain1:[ "0"; "1" ]
      ~domain2:[ "0"; "1" ]
  in
  [ ("pi1", Fair_protocols.Contract.pi1, Func.contract, env2, true);
    ("pi2", Fair_protocols.Contract.pi2, Func.contract, env2, true);
    ("opt2", Fair_protocols.Opt2.hybrid Func.swap, Func.swap, env2, true);
    ( "opt2-1round",
      Fair_protocols.Opt2.one_round_variant Func.swap,
      Func.swap,
      env2,
      true );
    ( "optn-4",
      Fair_protocols.Optn.hybrid (Func.concat ~n:4),
      Func.concat ~n:4,
      Montecarlo.uniform_field_inputs ~n:4,
      true );
    ( "gmw-half-4",
      Fair_protocols.Gmw_half.hybrid (Func.concat ~n:4),
      Func.concat ~n:4,
      Montecarlo.uniform_field_inputs ~n:4,
      true );
    ( "artificial-3",
      Fair_protocols.Artificial.hybrid (Func.concat ~n:3),
      Func.concat ~n:3,
      Montecarlo.uniform_field_inputs ~n:3,
      true );
    ( "gordon-katz",
      Fair_protocols.Gordon_katz.protocol ~func:Func.and_ ~variant:gk_variant,
      Func.and_,
      bits,
      false (* random fallback outputs are the F_sfe^$ semantics *) );
    ("leaky-and", Fair_protocols.Leaky_and.protocol, Func.and_, bits, false);
    ( "spdz-swap",
      Fair_mpc.Spdz.sfe ~name:"fuzz-spdz" ~circuit:Fair_mpc.Circuit.identity2 ~n:2
        ~encode_input:(fun ~id:_ s -> [ Field.of_int (int_of_string s) ])
        ~decode_output:(fun ys ->
          Printf.sprintf "%d,%d" (Field.to_int ys.(1)) (Field.to_int ys.(0))),
      Func.swap,
      (fun rng ->
        [| string_of_int (Rng.int rng 1000); string_of_int (Rng.int rng 1000) |]),
      true );
    ( "gmw-and",
      Fair_mpc.Gmw.protocol ~name:"fuzz-gmw" ~circuit:Fair_mpc.Boolcirc.and2
        ~encode_input:(fun ~id:_ s -> [| s = "1" |])
        ~decode_output:(fun o -> if o.(0) then "1" else "0"),
      Func.and_,
      bits,
      true ) ]

(* ----------------------- wire-framing fuzz --------------------------- *)

let qtest name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* Fully arbitrary byte strings, including '|', '\\' and '\000' — harsher
   than the printable-ish default generator used in test_exec. *)
let arb_bytes = QCheck.string_gen_of_size QCheck.Gen.(int_range 0 64) QCheck.Gen.char

let prop_unframe_inverts_frame =
  qtest "unframe (frame xs) = xs over arbitrary bytes" 1000
    QCheck.(list_of_size (Gen.int_range 1 8) arb_bytes)
    (fun fields -> Wire.unframe (Wire.frame fields) = fields)

(* Malformed input must fail loudly but narrowly: any byte string either
   unframes cleanly or raises [Invalid_argument] — never a parse crash
   (Failure, Not_found, out-of-bounds...), never a hang. *)
let prop_unframe_total =
  qtest "unframe: arbitrary bytes raise only Invalid_argument" 2000 arb_bytes (fun s ->
      match Wire.unframe s with
      | _ -> true
      | exception Invalid_argument _ -> true
      | exception _ -> false)

(* Successful unframing is stable: re-framing the fields and unframing
   again yields the same field list (frame/unframe is a retraction pair on
   the image of [frame]). *)
let prop_unframe_refames =
  qtest "unframe-frame-unframe stabilizes" 1000 arb_bytes (fun s ->
      match Wire.unframe s with
      | fields -> Wire.unframe (Wire.frame fields) = fields
      | exception Invalid_argument _ -> true)

(* [tagged ~tag p] is the two-field reading of [unframe p], and never
   raises.  Payloads are arbitrary bytes, or frames of 1, 2 or 3 fields
   (the first often the tag) rich in '|', '\\' and 'p', some then broken
   by a dangling escape or a bad one; tags come with and without bytes
   that need escaping. *)
let escapy = QCheck.Gen.(string_size ~gen:(oneof [ char; oneofl [ '|'; '\\'; 'p'; 'a' ] ]) (int_range 0 12))

let gen_tagged_case =
  let open QCheck.Gen in
  let* tag =
    oneof
      [ oneofl [ "output"; "open"; "opening"; ""; "a|b"; "x\\y"; "|"; "\\"; "\\p" ]; escapy ]
  in
  let framed =
    let* k = int_range 1 3 in
    let* first = oneof [ return tag; escapy ] in
    let* rest = list_repeat (k - 1) escapy in
    let p = Wire.frame (first :: rest) in
    let* at = int_range 0 (String.length p) in
    oneofl
      [ p; p ^ "\\"; String.sub p 0 at ^ "\\q" ^ String.sub p at (String.length p - at) ]
  in
  let* payload = oneof [ string_size ~gen:char (int_range 0 64); framed ] in
  return (tag, payload)

let prop_tagged_is_two_field_unframe =
  qtest "tagged ~tag p = the two-field reading of unframe p" 5000
    (QCheck.make ~print:QCheck.Print.(pair string string) gen_tagged_case)
    (fun (tag, p) ->
      let expect =
        match Wire.unframe p with
        | [ t; body ] when String.equal t tag -> Some body
        | _ | (exception Invalid_argument _) -> None
      in
      match Wire.tagged ~tag p with got -> got = expect | exception _ -> false)

(* ----------------------- JSON-parser fuzz --------------------------- *)
(* [Fairness.Json] is the service's wire format, so its parser is a
   security boundary: any byte string — hostile framing, deep nesting,
   binary noise — must come back as [Ok] or [Error], never an exception
   (not even [Stack_overflow]) and never a hang. *)

let prop_json_total_on_bytes =
  qtest "of_string: arbitrary bytes never raise" 2000 arb_bytes (fun s ->
      match Json.of_string s with Ok _ | Error _ -> true | exception _ -> false)

(* JSON-flavoured noise reaches far deeper parser states than uniform
   bytes: brackets, quotes, escapes, digits and keyword fragments. *)
let arb_jsonish =
  let jsonish_chars = "{}[]\",:\\0123456789.eE+-truefalsnu \n\t" in
  QCheck.string_gen_of_size
    QCheck.Gen.(int_range 0 80)
    (QCheck.Gen.map
       (fun i -> jsonish_chars.[i])
       (QCheck.Gen.int_range 0 (String.length jsonish_chars - 1)))

let prop_json_total_on_jsonish =
  qtest "of_string: json-flavoured noise never raises" 4000 arb_jsonish (fun s ->
      match Json.of_string s with Ok _ | Error _ -> true | exception _ -> false)

(* The depth guard, both sides: our emitters' depths parse fine, while
   nesting an attacker could only produce on purpose is a typed [Error] —
   crucially not a [Stack_overflow] leaking through the boundary. *)
let json_depth_guard () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.of_string (nested 64) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 64 should parse: %s" e);
  (match Json.of_string (nested 100_000) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "100k-deep nesting parsed"
  | exception e ->
      Alcotest.failf "100k-deep nesting leaked an exception: %s" (Printexc.to_string e));
  (* unclosed nesting (the classic parser-recursion bomb) *)
  match Json.of_string (String.make 1_000_000 '[') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a million unclosed brackets parsed"
  | exception e ->
      Alcotest.failf "unclosed-bracket bomb leaked an exception: %s" (Printexc.to_string e)

(* Emit/parse is the identity on trees our own code can produce (integers,
   full byte-range strings, nested containers), with and without
   indentation — the property that makes JSON safe as a wire format. *)
let arb_json_tree =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map Json.num_int (int_range (-1_000_000) 1_000_000);
        map (fun s -> Json.Str s) (string_size ~gen:char (int_range 0 12)) ]
  in
  let tree =
    sized
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             frequency
               [ (2, leaf);
                 ( 1,
                   map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun kv -> Json.Obj kv)
                     (list_size (int_range 0 4)
                        (pair (string_size ~gen:char (int_range 0 8)) (self (n / 2)))) ) ])
  in
  QCheck.make ~print:(fun t -> Json.to_string t) tree

let prop_json_roundtrip =
  qtest "of_string (to_string t) = t, both indent modes" 1000 arb_json_tree (fun t ->
      Json.of_string (Json.to_string ~indent:true t) = Ok t
      && Json.of_string (Json.to_string ~indent:false t) = Ok t)

let fuzz_case ~adversary ~adversary_name (name, proto, func, env, check_breach) =
  Alcotest.test_case (Printf.sprintf "%s vs %s" name adversary_name) `Slow (fun () ->
      for i = 0 to 59 do
        let master = Rng.create ~seed:(Printf.sprintf "fuzz:%s:%s:%d" adversary_name name i) in
        let inputs = env (Rng.split master ~label:"env") in
        match
          Engine.run ~protocol:proto ~adversary ~inputs ~rng:(Rng.split master ~label:"exec")
        with
        | exception e ->
            Alcotest.failf "%s crashed on fuzz input %d: %s" name i (Printexc.to_string e)
        | outcome ->
            if check_breach then begin
              let trial = { Events.outcome; inputs; func } in
              let c = Events.classify trial in
              if c.Events.correctness_breach then
                Alcotest.failf "%s: fuzz input %d produced an illegitimate honest output" name i
            end
      done)

let () =
  Alcotest.run "fair_fuzz"
    [ ( "wire-framing",
        [ prop_unframe_inverts_frame;
          prop_unframe_total;
          prop_unframe_refames;
          prop_tagged_is_two_field_unframe ] );
      ( "json-parser",
        [ prop_json_total_on_bytes;
          prop_json_total_on_jsonish;
          Alcotest.test_case "depth guard: deep nesting is Error, not Stack_overflow" `Quick
            json_depth_guard;
          prop_json_roundtrip ] );
      ("raw-garbage", List.map (fuzz_case ~adversary:fuzzer ~adversary_name:"fuzzer") protocols);
      ( "garbage-behind-honest-play",
        List.map (fuzz_case ~adversary:hybrid_fuzzer ~adversary_name:"hybrid") protocols ) ]
