(* Tests for the execution layer: wire framing, machine persistence, and
   the synchronous engine's delivery / rushing / corruption semantics. *)

module Wire = Fair_exec.Wire
module Machine = Fair_exec.Machine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Engine = Fair_exec.Engine
module Trace = Fair_exec.Trace
module Rng = Fair_crypto.Rng

let qtest name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let rng () = Rng.create ~seed:"exec-test"

(* ----------------------------- wire --------------------------------- *)

let prop_frame_roundtrip =
  qtest "frame/unframe roundtrip" 300
    QCheck.(list_of_size (Gen.int_range 1 5) string)
    (fun fields -> Wire.unframe (Wire.frame fields) = fields)

let test_frame_escaping () =
  let fields = [ "a|b"; "c\\d"; "|"; "\\"; "" ] in
  Alcotest.(check (list string)) "pipes and backslashes" fields (Wire.unframe (Wire.frame fields))

let test_frame_empty_rejected () =
  Alcotest.check_raises "empty list" (Invalid_argument "Wire.frame: empty field list")
    (fun () -> ignore (Wire.frame []))

let test_unframe_rejects () =
  Alcotest.check_raises "dangling escape" (Invalid_argument "Wire.unframe: dangling escape")
    (fun () -> ignore (Wire.unframe "abc\\"));
  Alcotest.check_raises "bad escape" (Invalid_argument "Wire.unframe: bad escape") (fun () ->
      ignore (Wire.unframe "\\q"))

(* A tag read that misses runs once per other message in an inbox on every
   protocol step, so it must allocate nothing: 10 000 misses, on a short
   frame and on one whose body holds escapes, stay under 100 minor words
   (the two readings of the counter box a float each). *)
let test_tagged_miss_allocates_nothing () =
  let frames = [ Wire.frame [ "ccommit"; String.make 32 'a' ]; Wire.frame [ "val"; "x|y"; "z" ] ] in
  List.iter
    (fun frame ->
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        ignore (Sys.opaque_identity (Wire.tagged ~tag:"dcommit" frame))
      done;
      let words = Gc.minor_words () -. w0 in
      if words >= 100. then Alcotest.failf "%.0f minor words for 10 000 misses on %S" words frame)
    frames;
  Alcotest.(check (option string)) "the hit still reads" (Some (String.make 32 'a'))
    (Wire.tagged ~tag:"ccommit" (List.hd frames))

(* ---------------------------- machine ------------------------------- *)

let counter_machine () =
  (* Outputs the number of messages it has ever received, at round 3. *)
  Machine.make 0 (fun count ~round ~inbox ->
      let count = count + List.length inbox in
      if round = 3 then (count, [ Machine.Output (string_of_int count) ]) else (count, []))

(* A probe, as the proof adversaries take one: step the machine, keep only
   the payload of an [Output] action, and drop the successor. *)
let probe_output (m : Machine.t) ~round ~inbox =
  let _, actions = m.Machine.step ~round ~inbox in
  List.find_map
    (function Machine.Output p -> Some p | Machine.Send _ | Machine.Abort_self -> None)
    actions

let test_machine_persistent () =
  let m = counter_machine () in
  let m1, _ = m.Machine.step ~round:1 ~inbox:[ (1, "x"); (2, "y") ] in
  (* Probing m1 twice from the same state gives the same result and does
     not disturb the retained value. *)
  let p1 = probe_output m1 ~round:3 ~inbox:[ (1, "z") ] in
  let p2 = probe_output m1 ~round:3 ~inbox:[ (1, "z") ] in
  Alcotest.(check (option string)) "probe deterministic" p1 p2;
  Alcotest.(check (option string)) "probe sees 3 messages" (Some "3") p1;
  let p3 = probe_output m1 ~round:3 ~inbox:[] in
  Alcotest.(check (option string)) "original state undisturbed" (Some "2") p3;
  (* A machine value remembers its steps: the transition runs once per
     (round, inbox content), and a repeat returns the first call's result. *)
  let calls = ref 0 in
  let counted =
    Machine.make 0 (fun count ~round ~inbox ->
        incr calls;
        if List.exists (fun (_, p) -> p = "boom") inbox then failwith "boom";
        (count + 1, [ Machine.Output (Printf.sprintf "%d@%d" count round) ]))
  in
  let fresh s = String.init (String.length s) (String.get s) in
  let s1, a1 = counted.Machine.step ~round:1 ~inbox:[ (1, "x") ] in
  let s2, a2 = counted.Machine.step ~round:1 ~inbox:[ (1, fresh "x") ] in
  Alcotest.(check int) "equal inbox from fresh strings: one call" 1 !calls;
  Alcotest.(check bool) "a hit returns the first call's successor" true (s1 == s2);
  Alcotest.(check bool) "and its actions" true (a1 == a2);
  ignore (counted.Machine.step ~round:2 ~inbox:[ (1, "x") ]);
  Alcotest.(check int) "another round: another call" 2 !calls;
  ignore (counted.Machine.step ~round:1 ~inbox:[ (1, "y") ]);
  Alcotest.(check int) "another payload: another call" 3 !calls;
  let probed = probe_output s1 ~round:2 ~inbox:[ (2, "z") ] in
  let _, stepped = s1.Machine.step ~round:2 ~inbox:[ (2, "z") ] in
  Alcotest.(check int) "probe then the real step: one call" 4 !calls;
  Alcotest.(check bool) "the step outputs what the probe saw" true
    (probed = Some "1@2" && stepped = [ Machine.Output "1@2" ]);
  let boom () = ignore (counted.Machine.step ~round:1 ~inbox:[ (1, "boom") ]) in
  Alcotest.check_raises "a raising transition raises" (Failure "boom") boom;
  Alcotest.check_raises "and raises again: nothing was stored" (Failure "boom") boom;
  Alcotest.(check int) "both raising calls ran the transition" 6 !calls

(* ----------------------------- engine ------------------------------- *)

(* Ping-pong: p1 sends "ping" in round 1; p2 replies with what it received;
   both output the peer's message. *)
let pingpong =
  Protocol.make ~name:"pingpong" ~parties:2 ~max_rounds:5
    (fun ~rng:_ ~id ~n:_ ~input ~setup:_ ->
      Machine.make () (fun () ~round ~inbox ->
          match (id, round) with
          | 1, 1 -> ((), [ Machine.Send (Wire.To 2, input) ])
          | 2, 2 -> (
              match inbox with
              | (1, msg) :: _ -> ((), [ Machine.Send (Wire.To 1, msg ^ "+pong"); Machine.Output msg ])
              | _ -> ((), [ Machine.Abort_self ]))
          | 1, 3 -> (
              match inbox with
              | (2, msg) :: _ -> ((), [ Machine.Output msg ])
              | _ -> ((), [ Machine.Abort_self ]))
          | _ -> ((), [])))

let test_engine_delivery () =
  let o = Engine.run ~protocol:pingpong ~adversary:Adversary.passive ~inputs:[| "hello"; "" |] ~rng:(rng ()) in
  Alcotest.(check (list (pair int (option string))))
    "both output"
    [ (1, Some "hello+pong"); (2, Some "hello") ]
    (Engine.honest_outputs o);
  Alcotest.(check int) "three rounds" 3 o.Engine.rounds

let broadcaster =
  Protocol.make ~name:"broadcaster" ~parties:3 ~max_rounds:3
    (fun ~rng:_ ~id ~n:_ ~input ~setup:_ ->
      Machine.make () (fun () ~round ~inbox ->
          match round with
          | 1 -> ((), if id = 1 then [ Machine.Send (Wire.Broadcast, input) ] else [])
          | 2 ->
              let from_1 = List.filter (fun (s, _) -> s = 1) inbox in
              ((), [ Machine.Output (String.concat "," (List.map snd from_1)) ])
          | _ -> ((), [])))

let test_engine_broadcast () =
  let o =
    Engine.run ~protocol:broadcaster ~adversary:Adversary.passive ~inputs:[| "b"; ""; "" |]
      ~rng:(rng ())
  in
  List.iter
    (fun (id, v) ->
      Alcotest.(check (option string)) (Printf.sprintf "party %d got broadcast" id) (Some "b") v)
    (Engine.honest_outputs o)

let test_engine_rushing_visibility () =
  (* The adversary corrupting p2 must see p1's round-1 message to p2 in its
     round-1 view (before answering). *)
  let seen = ref None in
  let adv =
    Adversary.make ~name:"observer" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 2 ];
          step =
            (fun view ->
              if view.Adversary.round = 1 then
                seen :=
                  List.find_map
                    (fun (env : Wire.envelope) ->
                      if env.Wire.src = 1 then Some env.Wire.payload else None)
                    view.Adversary.rushed;
              Adversary.silent_decision) })
  in
  let _ = Engine.run ~protocol:pingpong ~adversary:adv ~inputs:[| "rush"; "" |] ~rng:(rng ()) in
  Alcotest.(check (option string)) "rushed message visible same round" (Some "rush") !seen

let test_engine_corrupted_excluded () =
  let adv =
    Adversary.make ~name:"corrupt1" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 1 ]; step = (fun _ -> Adversary.silent_decision) })
  in
  let o = Engine.run ~protocol:pingpong ~adversary:adv ~inputs:[| "x"; "" |] ~rng:(rng ()) in
  (match List.assoc 1 o.Engine.results with
  | Engine.Was_corrupted -> ()
  | _ -> Alcotest.fail "p1 should be excluded as corrupted");
  (* p2 gets nothing from the silent corrupted p1 and aborts *)
  match List.assoc 2 o.Engine.results with
  | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "p2 should abort"

let test_engine_adaptive_corruption () =
  (* Corrupt p2 after round 1; the engine stops stepping it, so p1 never
     receives the reply. *)
  let adv =
    Adversary.make ~name:"adaptive" (fun _rng ~protocol:_ ->
        { Adversary.initial = [];
          step =
            (fun view ->
              if view.Adversary.round = 1 then
                { Adversary.silent_decision with Adversary.corrupt = [ 2 ] }
              else Adversary.silent_decision) })
  in
  let o = Engine.run ~protocol:pingpong ~adversary:adv ~inputs:[| "x"; "" |] ~rng:(rng ()) in
  (match List.assoc 2 o.Engine.results with
  | Engine.Was_corrupted -> ()
  | _ -> Alcotest.fail "p2 should be corrupted");
  match List.assoc 1 o.Engine.results with
  | Engine.Honest_abort -> ()
  | r ->
      Alcotest.failf "p1 should abort, got %s"
        (match r with
        | Engine.Honest_output v -> "output " ^ v
        | Engine.Honest_no_output -> "no output"
        | _ -> "?")

let test_engine_adversary_sends () =
  (* The adversary, having corrupted p1, forges the ping itself. *)
  let adv =
    Adversary.make ~name:"forger" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 1 ];
          step =
            (fun view ->
              if view.Adversary.round = 1 then
                { Adversary.silent_decision with
                  Adversary.send = [ (1, Wire.To 2, "forged") ] }
              else Adversary.silent_decision) })
  in
  let o = Engine.run ~protocol:pingpong ~adversary:adv ~inputs:[| "real"; "" |] ~rng:(rng ()) in
  Alcotest.(check (list (pair int (option string))))
    "p2 believes the forgery"
    [ (2, Some "forged") ]
    (Engine.honest_outputs o)

let test_engine_rejects_unauthorized_send () =
  let adv =
    Adversary.make ~name:"imposter" (fun _rng ~protocol:_ ->
        { Adversary.initial = [];
          step =
            (fun _ -> { Adversary.silent_decision with Adversary.send = [ (1, Wire.To 2, "x") ] })
        })
  in
  Alcotest.check_raises "unauthorized send"
    (Engine.Fail
       (Engine.Protocol_violation
          { round = 1; party = 1; reason = "adversary sent from non-corrupted party 1" }))
    (fun () ->
      ignore (Engine.run ~protocol:pingpong ~adversary:adv ~inputs:[| "a"; "" |] ~rng:(rng ())))

let test_engine_max_rounds () =
  let stubborn =
    Protocol.make ~name:"stubborn" ~parties:1 ~max_rounds:4 (fun ~rng:_ ~id:_ ~n:_ ~input:_ ~setup:_ ->
        Machine.silent)
  in
  let o = Engine.run ~protocol:stubborn ~adversary:Adversary.passive ~inputs:[| "" |] ~rng:(rng ()) in
  Alcotest.(check int) "stops at max_rounds" 4 o.Engine.rounds;
  match List.assoc 1 o.Engine.results with
  | Engine.Honest_no_output -> ()
  | _ -> Alcotest.fail "expected Honest_no_output"

(* The message guard: pingpong's limit is (n + 1) * max_rounds * 1024 =
   15 360 messages.  An adversary flooding p2 with 8 000 messages a round
   passes it in round 2: after round 1's 8 000 and p2's reply, the
   7 360th flood message of round 2 is message 15 361. *)
let test_engine_message_guard () =
  let flood = List.init 8000 (fun _ -> (1, Wire.To 2, "x")) in
  let adv =
    Adversary.make ~name:"flood" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 1 ];
          step = (fun _ -> { Adversary.silent_decision with Adversary.send = flood }) })
  in
  Alcotest.check_raises "guard trips"
    (Engine.Fail (Engine.Round_limit { round = 2; messages = 15361; limit = 15360 }))
    (fun () ->
      ignore (Engine.run ~protocol:pingpong ~adversary:adv ~inputs:[| "a"; "" |] ~rng:(rng ())))

let test_engine_claims_recorded () =
  let adv =
    Adversary.make ~name:"claimer" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 2 ];
          step =
            (fun view ->
              if view.Adversary.round = 2 then
                { Adversary.silent_decision with Adversary.claim_learned = Some "the-output" }
              else Adversary.silent_decision) })
  in
  let o = Engine.run ~protocol:pingpong ~adversary:adv ~inputs:[| "a"; "" |] ~rng:(rng ()) in
  Alcotest.(check bool) "claim recorded" true (Engine.claimed o ~truth:"the-output");
  Alcotest.(check bool) "other value not claimed" false (Engine.claimed o ~truth:"other")

let test_engine_deterministic () =
  let run () =
    Engine.run ~protocol:pingpong ~adversary:Adversary.passive ~inputs:[| "d"; "" |]
      ~rng:(Rng.create ~seed:"fixed")
  in
  let o1 = run () and o2 = run () in
  Alcotest.(check (list (pair int (option string))))
    "identical outcomes" (Engine.honest_outputs o1) (Engine.honest_outputs o2)

let test_trace_records_messages () =
  let o = Engine.run ~protocol:pingpong ~adversary:Adversary.passive ~inputs:[| "t"; "" |] ~rng:(rng ()) in
  let round1 = Trace.messages_in_round o.Engine.trace 1 in
  Alcotest.(check int) "one round-1 message" 1 (List.length round1);
  match round1 with
  | [ env ] ->
      Alcotest.(check int) "src" 1 env.Wire.src;
      Alcotest.(check string) "payload" "t" env.Wire.payload
  | _ -> Alcotest.fail "unexpected trace"

let test_engine_input_arity () =
  Alcotest.check_raises "wrong arity"
    (Invalid_argument
       "Engine.run: wrong number of inputs (got 1, protocol \"pingpong\" wants 2)") (fun () ->
      ignore
        (Engine.run ~protocol:pingpong ~adversary:Adversary.passive ~inputs:[| "only-one" |]
           ~rng:(rng ())))

(* A machine that raises mid-protocol is contained, not propagated: the
   party collapses to Honest_abort and the outcome carries a
   [Malformed_message] failure naming the round and party. *)
let test_engine_contains_machine_raise () =
  let fragile =
    Protocol.make ~name:"fragile" ~parties:2 ~max_rounds:3
      (fun ~rng:_ ~id ~n:_ ~input:_ ~setup:_ ->
        Machine.make () (fun () ~round ~inbox:_ ->
            if id = 1 && round = 2 then failwith "boom"
            else if id = 2 && round = 3 then ((), [ Machine.Output "ok" ])
            else ((), [])))
  in
  let o =
    Engine.run ~protocol:fragile ~adversary:Adversary.passive ~inputs:[| "a"; "b" |]
      ~rng:(rng ())
  in
  (match List.assoc 1 o.Engine.results with
  | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "raising party should collapse to Honest_abort");
  (match List.assoc 2 o.Engine.results with
  | Engine.Honest_output "ok" -> ()
  | _ -> Alcotest.fail "peer should keep running");
  match o.Engine.failures with
  | [ Engine.Malformed_message { round = 2; party = 1; reason } ] ->
      Alcotest.(check bool) "reason mentions the exception" true
        (String.length reason > 0)
  | _ -> Alcotest.fail "expected exactly one Malformed_message{round=2;party=1}"

(* Delivery-exactness property: under a random send schedule, every message
   party 1 sends in round r arrives at party 2 exactly once, in round r+1,
   with the right sender — and nothing else arrives. *)
let prop_delivery_exact =
  qtest "every message delivered exactly once, next round" 100
    QCheck.(list_of_size (Gen.int_range 1 12) (pair (int_range 1 4) small_printable_string))
    (fun schedule ->
      (* schedule: (round, payload) pairs for p1 to send to p2 *)
      let received = ref [] in
      let proto =
        Protocol.make ~name:"schedule" ~parties:2 ~max_rounds:7
          (fun ~rng:_ ~id ~n:_ ~input:_ ~setup:_ ->
            Machine.make () (fun () ~round ~inbox ->
                if id = 1 then
                  ( (),
                    List.filter_map
                      (fun (r, p) ->
                        if r = round then Some (Machine.Send (Wire.To 2, p)) else None)
                      schedule )
                else begin
                  List.iter (fun (src, p) -> received := (round, src, p) :: !received) inbox;
                  ((), [])
                end))
      in
      let _ =
        Engine.run ~protocol:proto ~adversary:Adversary.passive ~inputs:[| ""; "" |]
          ~rng:(Rng.create ~seed:"delivery")
      in
      let expected =
        List.sort compare (List.map (fun (r, p) -> (r + 1, 1, p)) schedule)
      in
      List.sort compare !received = expected)

(* ------------------------- prelude and play -------------------------- *)

module Adv = Fair_protocols.Adversaries

let corrupted_ids (o : Engine.outcome) =
  List.filter_map (fun (id, r) -> if r = Engine.Was_corrupted then Some id else None) o.Engine.results

(* A 5-party hybrid protocol whose functionality broadcasts a coin drawn
   in its first step; every party outputs the coin it received. *)
let coin5 =
  Protocol.make ~name:"coin5" ~parties:5 ~max_rounds:3
    ~functionality:(fun rng ~n:_ ->
      Machine.make () (fun () ~round ~inbox:_ ->
          if round = 1 then ((), [ Machine.Send (Wire.Broadcast, string_of_int (Rng.int rng 1000)) ])
          else ((), [])))
    (fun ~rng:_ ~id:_ ~n:_ ~input:_ ~setup:_ ->
      Machine.make () (fun () ~round:_ ~inbox ->
          match List.assoc_opt Wire.functionality_id inbox with
          | Some coin -> ((), [ Machine.Output coin ])
          | None -> ((), [])))

(* Every play of one prelude draws the coins a fresh run on the same
   generator draws: two plays against a coalition-drawing adversary
   corrupt the party [Engine.run] corrupts, and see the same
   functionality coin. *)
let test_plays_redraw_coins () =
  let adversary = Adv.silent Adv.Random_party in
  let inputs = Array.make 5 "" in
  let drawn =
    List.init 24 (fun s ->
        let gen () = Rng.create ~seed:("plays-" ^ string_of_int s) in
        let fresh = Engine.run ~protocol:coin5 ~adversary ~inputs ~rng:(gen ()) in
        let prelude = Engine.prepare ~protocol:coin5 ~inputs ~rng:(gen ()) in
        List.iter
          (fun play ->
            let o = Engine.run_prepared ~adversary prelude in
            Alcotest.(check (list int))
              (Printf.sprintf "seed %d, play %d: corrupted party" s play)
              (corrupted_ids fresh) (corrupted_ids o);
            Alcotest.(check (list (pair int (option string))))
              (Printf.sprintf "seed %d, play %d: functionality coin" s play)
              (Engine.honest_outputs fresh) (Engine.honest_outputs o))
          [ 1; 2 ];
        (corrupted_ids fresh, Engine.honest_outputs fresh))
  in
  (* The generators draw different parties and coins, so the agreement
     above is not vacuous. *)
  Alcotest.(check bool) "seeds draw different parties" true
    (List.length (List.sort_uniq compare (List.map fst drawn)) > 1);
  Alcotest.(check bool) "seeds draw different coins" true
    (List.length (List.sort_uniq compare (List.map snd drawn)) > 1)

(* Party 3 outputs in round 1; parties 1 and 2 exchange two rounds and
   output only if the peer's second message arrived.  An adaptive
   adversary can therefore corrupt party 3 after it finished. *)
let early3 =
  Protocol.make ~name:"early3" ~parties:3 ~max_rounds:4 (fun ~rng:_ ~id ~n:_ ~input:_ ~setup:_ ->
      Machine.make () (fun () ~round ~inbox ->
          if id = 3 then ((), [ Machine.Output "early" ])
          else if round <= 2 then
            ((), [ Machine.Send (Wire.To (3 - id), "r" ^ string_of_int round) ])
          else if List.mem (3 - id, "r2") inbox then ((), [ Machine.Output "done" ])
          else ((), [ Machine.Abort_self ])))

(* Under adaptive corruption every view lists the corrupted parties that
   were still running when corrupted, ascending by id, and the inboxes of
   every corrupted party, ascending by id — checked against the
   corruptions and terminations in the trace. *)
let test_adaptive_view_lists_running_coalition () =
  let seen_finished = ref false and seen_reordered = ref false in
  for s = 0 to 39 do
    let views = ref [] in
    let hunter = Adv.adaptive_hunter ~budget:2 () in
    let adversary =
      Adversary.make ~name:"recorded-hunter" (fun rng ~protocol ->
          let inst = hunter.Adversary.make rng ~protocol in
          { inst with
            Adversary.step =
              (fun view ->
                views := view :: !views;
                inst.Adversary.step view) })
    in
    let o =
      Engine.run ~protocol:early3 ~adversary ~inputs:[| "a"; "b"; "c" |]
        ~rng:(Rng.create ~seed:("hunt-" ^ string_of_int s))
    in
    (* (id, round of corruption, finished before it), in corruption order *)
    let finished = ref [] and corruptions = ref [] in
    List.iter
      (function
        | Trace.Output_event (_, id, _) | Trace.Aborted (_, id) | Trace.Crashed (_, id) ->
            finished := id :: !finished
        | Trace.Corrupted (rc, id) -> corruptions := !corruptions @ [ (id, rc, List.mem id !finished) ]
        | Trace.Sent _ | Trace.Claimed _ -> ())
      (Trace.events o.Engine.trace);
    List.iter
      (fun (view : Adversary.view) ->
        let r = view.Adversary.round in
        let ids = List.map (fun (c : Adversary.corrupted) -> c.Adversary.id) view.Adversary.corrupted in
        let before = List.filter (fun (_, rc, _) -> rc < r) !corruptions in
        let running = List.filter_map (fun (id, _, f) -> if f then None else Some id) before in
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d, round %d: running coalition, ascending" s r)
          (List.sort compare running) ids;
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d, round %d: coalition inboxes, ascending" s r)
          (List.sort compare (List.map (fun (id, _, _) -> id) before))
          (List.map fst view.Adversary.inbox);
        if List.exists (fun (_, _, f) -> f) before then seen_finished := true;
        if running <> ids then seen_reordered := true)
      !views
  done;
  Alcotest.(check bool) "some victim had finished before its corruption" true !seen_finished;
  Alcotest.(check bool) "some coalition was corrupted in descending id order" true
    !seen_reordered

let () =
  Alcotest.run "fair_exec"
    [ ( "wire",
        [ prop_frame_roundtrip;
          Alcotest.test_case "escaping" `Quick test_frame_escaping;
          Alcotest.test_case "empty field list rejected" `Quick test_frame_empty_rejected;
          Alcotest.test_case "malformed rejected" `Quick test_unframe_rejects;
          Alcotest.test_case "a tag read that misses allocates nothing" `Quick
            test_tagged_miss_allocates_nothing ] );
      ( "machine",
        [ Alcotest.test_case "persistence and probing" `Quick test_machine_persistent ] );
      ( "engine",
        [ Alcotest.test_case "point-to-point delivery" `Quick test_engine_delivery;
          Alcotest.test_case "broadcast" `Quick test_engine_broadcast;
          Alcotest.test_case "rushing visibility" `Quick test_engine_rushing_visibility;
          Alcotest.test_case "corrupted excluded from results" `Quick
            test_engine_corrupted_excluded;
          Alcotest.test_case "adaptive corruption" `Quick test_engine_adaptive_corruption;
          Alcotest.test_case "adversary impersonates corrupted" `Quick test_engine_adversary_sends;
          Alcotest.test_case "unauthorized send rejected" `Quick
            test_engine_rejects_unauthorized_send;
          Alcotest.test_case "max_rounds stop" `Quick test_engine_max_rounds;
          Alcotest.test_case "message guard" `Quick test_engine_message_guard;
          Alcotest.test_case "claims recorded" `Quick test_engine_claims_recorded;
          Alcotest.test_case "deterministic under fixed seed" `Quick test_engine_deterministic;
          Alcotest.test_case "trace records messages" `Quick test_trace_records_messages;
          Alcotest.test_case "input arity checked" `Quick test_engine_input_arity;
          Alcotest.test_case "machine raise contained" `Quick test_engine_contains_machine_raise;
          prop_delivery_exact ] );
      ( "prelude",
        [ Alcotest.test_case "every play draws a fresh run's coins" `Quick test_plays_redraw_coins;
          Alcotest.test_case "adaptive views list the running coalition" `Quick
            test_adaptive_view_lists_running_coalition ] ) ]
