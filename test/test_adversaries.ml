(* Direct unit coverage of the adversary-strategy zoo's semantics, using
   small transparent protocols so every behaviour is observable in the
   trace. *)

module Wire = Fair_exec.Wire
module Machine = Fair_exec.Machine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Engine = Fair_exec.Engine
module Trace = Fair_exec.Trace
module Rng = Fair_crypto.Rng
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries

let rng () = Rng.create ~seed:"adv-test"

(* A chatty 2-party protocol: each party sends "tick<r>" to the peer every
   round and outputs the peer's input at round 4 (learned at round 2 via an
   exchange in round 1). *)
let chatty =
  Protocol.make ~name:"chatty" ~parties:2 ~max_rounds:6
    (fun ~rng:_ ~id ~n:_ ~input ~setup:_ ->
      Machine.make None (fun peer_input ~round ~inbox ->
          let peer_input =
            match
              List.find_map
                (fun (src, p) ->
                  if src = 3 - id then
                    match Wire.unframe p with
                    | [ "input"; x ] -> Some x
                    | _ | (exception Invalid_argument _) -> None
                  else None)
                inbox
            with
            | Some x -> Some x
            | None -> peer_input
          in
          let sends =
            if round = 1 then
              [ Machine.Send (Wire.To (3 - id), Wire.frame [ "input"; input ]) ]
            else [ Machine.Send (Wire.To (3 - id), Wire.frame [ "tick"; string_of_int round ]) ]
          in
          if round = 4 then
            match peer_input with
            | Some x -> (peer_input, [ Machine.Output x ])
            | None -> (peer_input, [ Machine.Abort_self ])
          else (peer_input, sends)))

let messages_from outcome ~src =
  List.filter_map
    (fun ev ->
      match ev with
      | Trace.Sent (r, env) when env.Wire.src = src -> Some (r, env.Wire.payload)
      | _ -> None)
    (Trace.events outcome.Engine.trace)

let run adv = Engine.run ~protocol:chatty ~adversary:adv ~inputs:[| "A"; "B" |] ~rng:(rng ())

(* --------------------------- choose ---------------------------------- *)

let test_choose_specs () =
  let g = rng () in
  Alcotest.(check (list int)) "nobody" [] (Adv.choose Adv.Nobody g ~n:5);
  Alcotest.(check (list int)) "fixed" [ 2; 4 ] (Adv.choose (Adv.Fixed [ 2; 4 ]) g ~n:5);
  Alcotest.(check (list int)) "all-but" [ 1; 2; 4; 5 ] (Adv.choose (Adv.All_but 3) g ~n:5);
  Alcotest.(check (list int)) "everyone" [ 1; 2; 3; 4; 5 ] (Adv.choose Adv.Everyone g ~n:5);
  Alcotest.(check int) "random subset size" 3
    (List.length (Adv.choose (Adv.Random_subset 3) g ~n:5));
  let p = Adv.choose Adv.Random_party g ~n:5 in
  Alcotest.(check int) "random party is one" 1 (List.length p);
  Alcotest.(check bool) "in range" true (List.for_all (fun i -> i >= 1 && i <= 5) p);
  Alcotest.check_raises "oversized subset"
    (Invalid_argument "Adversaries.choose: subset too large") (fun () ->
      ignore (Adv.choose (Adv.Random_subset 6) g ~n:5))

(* -------------------------- semi_honest ------------------------------ *)

let test_semi_honest_transparent () =
  (* Corrupted p2 behaves exactly like an honest p2: p1 still outputs B. *)
  let o = run (Adv.semi_honest (Adv.Fixed [ 2 ])) in
  Alcotest.(check (list (pair int (option string))))
    "p1 unaffected"
    [ (1, Some "B") ]
    (Engine.honest_outputs o);
  (* and the machine's own output is claimed *)
  Alcotest.(check bool) "claims what it saw" true (Engine.claimed o ~truth:"A")

(* ---------------------------- silent --------------------------------- *)

let test_silent_never_sends () =
  let o = run (Adv.silent (Adv.Fixed [ 2 ])) in
  Alcotest.(check int) "no messages from p2" 0 (List.length (messages_from o ~src:2));
  match List.assoc 1 o.Engine.results with
  | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "p1 should abort"

(* --------------------------- abort_at -------------------------------- *)

let test_abort_at_cutoff () =
  let o = run (Adv.abort_at ~round:3 (Adv.Fixed [ 2 ])) in
  let sent = messages_from o ~src:2 in
  Alcotest.(check bool) "sends in rounds 1-2" true
    (List.exists (fun (r, _) -> r = 1) sent && List.exists (fun (r, _) -> r = 2) sent);
  Alcotest.(check bool) "silent from round 3" true
    (List.for_all (fun (r, _) -> r < 3) sent);
  (* it exchanged inputs in round 1, so its retained machine still knows A *)
  Alcotest.(check bool) "claims the peer input" true (Engine.claimed o ~truth:"A")

let test_abort_at_1_learns_nothing () =
  let o = run (Adv.abort_at ~round:1 (Adv.Fixed [ 2 ])) in
  Alcotest.(check int) "never spoke" 0 (List.length (messages_from o ~src:2));
  Alcotest.(check bool) "still receives the rushed input and claims it" true
    (Engine.claimed o ~truth:"A")

(* ------------------------ substitute_input ---------------------------- *)

let test_substitute_input () =
  let o =
    Engine.run ~protocol:chatty
      ~adversary:(Adv.substitute_input ~input:"EVIL" (Adv.Fixed [ 2 ]))
      ~inputs:[| "A"; "B" |] ~rng:(rng ())
  in
  Alcotest.(check (list (pair int (option string))))
    "p1 sees the substituted input"
    [ (1, Some "EVIL") ]
    (Engine.honest_outputs o)

(* ------------------------- adaptive_hunter ---------------------------- *)

let test_adaptive_hunter_budget () =
  let func = Func.concat ~n:5 in
  let proto = Fair_protocols.Optn.hybrid func in
  let o =
    Engine.run ~protocol:proto
      ~adversary:(Adv.adaptive_hunter ~func ~budget:3 ())
      ~inputs:[| "a"; "b"; "c"; "d"; "e" |]
      ~rng:(rng ())
  in
  let corrupted =
    List.filter (fun (_, r) -> r = Engine.Was_corrupted) o.Engine.results
  in
  Alcotest.(check bool)
    (Printf.sprintf "corrupts (%d) within budget" (List.length corrupted))
    true
    (List.length corrupted >= 1 && List.length corrupted <= 3);
  (* corruption timestamps must be strictly increasing: one per round *)
  let rounds =
    List.filter_map
      (function Trace.Corrupted (r, _) -> Some r | _ -> None)
      (Trace.events o.Engine.trace)
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "incremental corruption" true (increasing rounds)

(* ---------------------------- greedy --------------------------------- *)

let test_greedy_aborts_before_reveal () =
  (* Against chatty, the corrupted machine learns the peer input at round 2
     via its inbox — but the probe already sees the rushed round-1 message,
     so greedy aborts at round 1 and never sends the corrupted input. *)
  let o = run (Adv.greedy (Adv.Fixed [ 2 ])) in
  Alcotest.(check int) "never sends" 0 (List.length (messages_from o ~src:2));
  Alcotest.(check bool) "claims the peer input" true (Engine.claimed o ~truth:"A");
  match List.assoc 1 o.Engine.results with
  | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "p1 starved of the exchange"

let test_greedy_boring_filter () =
  (* With ~func, a probe output equal to f(x_corr, default) is discounted:
     against opt2 the corrupted p_i never false-aborts during phase 1. *)
  let swap = Func.swap in
  let proto = Fair_protocols.Opt2.hybrid swap in
  let o =
    Engine.run ~protocol:proto
      ~adversary:(Adv.greedy ~func:swap (Adv.Fixed [ 1 ]))
      ~inputs:[| "x1"; "x2" |] ~rng:(Rng.create ~seed:"boring")
  in
  (* whatever happened, the honest party must have terminated with either
     the true output or a default evaluation — never ⊥ before phase 2 *)
  match List.assoc 2 o.Engine.results with
  | Engine.Honest_output _ | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "honest party left hanging"

(* ------------------------ coalition probe ----------------------------- *)

(* A 3-party relay whose outputs spell out the inboxes they were computed
   from.  Round 1: parties 2 and 3 broadcast "hi<id>".  Round 2: party 1
   sends party 2 its inbox's payloads joined by "+", and party 2
   broadcasts "bye".  Round 3: every party outputs its inbox's payloads
   joined by "+", or aborts on an empty inbox. *)
let relay =
  Protocol.make ~name:"relay" ~parties:3 ~max_rounds:4 (fun ~rng:_ ~id ~n:_ ~input:_ ~setup:_ ->
      let joined inbox = String.concat "+" (List.map snd inbox) in
      Machine.make () (fun () ~round ~inbox ->
          match (round, id) with
          | 1, (2 | 3) -> ((), [ Machine.Send (Wire.Broadcast, "hi" ^ string_of_int id) ])
          | 2, 1 -> ((), [ Machine.Send (Wire.To 2, joined inbox) ])
          | 2, 2 -> ((), [ Machine.Send (Wire.Broadcast, "bye") ])
          | 3, _ -> ((), [ (if inbox = [] then Machine.Abort_self else Machine.Output (joined inbox)) ])
          | _ -> ((), [])))

let test_greedy_coalition_probe_routing () =
  (* Greedy holds {1, 2} and probes in round 1, before releasing party 2's
     "hi2".  The probe's round-2 inboxes hold the rushed "hi3" ahead of
     the coalition's own "hi2"; in round 2 party 2 (stepped first: the
     driver holds the coalition in reverse adoption order) broadcasts
     "bye" to both members, itself included, and party 1 forwards
     "hi3+hi2" to party 2; in round 3 party 2's inbox is in arrival
     order, not sender order.  Any other order or routing spells a
     different claim. *)
  let o =
    Engine.run ~protocol:relay ~adversary:(Adv.greedy (Adv.Fixed [ 1; 2 ]))
      ~inputs:[| "a"; "b"; "c" |] ~rng:(rng ())
  in
  Alcotest.(check (list (pair int string))) "claimed in round 1" [ (1, "bye+hi3+hi2") ]
    o.Engine.claims;
  Alcotest.(check int) "party 2 never released hi2" 0 (List.length (messages_from o ~src:2));
  match List.assoc 3 o.Engine.results with
  | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "party 3 should be starved"

(* ------------------------- grab_and_abort ----------------------------- *)

let test_grab_and_abort_uses_interface () =
  let proto = Fair_mpc.Ideal.dummy_protocol_abort Func.swap in
  let o =
    Engine.run ~protocol:proto
      ~adversary:(Adv.grab_and_abort (Adv.Fixed [ 1 ]))
      ~inputs:[| "a"; "b" |] ~rng:(rng ())
  in
  Alcotest.(check bool) "learned the output" true (Engine.claimed o ~truth:"b,a");
  (match List.assoc 2 o.Engine.results with
  | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "honest party should end with ⊥");
  (* the get-output request must appear in the trace *)
  let asked =
    List.exists
      (fun (_, p) -> p = Fair_mpc.Ideal.msg_get_output)
      (messages_from o ~src:1)
  in
  Alcotest.(check bool) "sent get-output to F" true asked

let () =
  Alcotest.run "fair_adversaries"
    [ ( "choose",
        [ Alcotest.test_case "corruption specs" `Quick test_choose_specs ] );
      ( "strategies",
        [ Alcotest.test_case "semi-honest is transparent" `Quick test_semi_honest_transparent;
          Alcotest.test_case "silent never sends" `Quick test_silent_never_sends;
          Alcotest.test_case "abort_at cuts off at the round" `Quick test_abort_at_cutoff;
          Alcotest.test_case "abort_at round 1 still listens" `Quick
            test_abort_at_1_learns_nothing;
          Alcotest.test_case "substitute_input lies" `Quick test_substitute_input;
          Alcotest.test_case "adaptive hunter: budget and pacing" `Quick
            test_adaptive_hunter_budget;
          Alcotest.test_case "greedy aborts before revealing" `Quick
            test_greedy_aborts_before_reveal;
          Alcotest.test_case "greedy default-output filter" `Quick test_greedy_boring_filter;
          Alcotest.test_case "greedy probe routes coalition traffic in arrival order" `Quick
            test_greedy_coalition_probe_routing;
          Alcotest.test_case "grab-and-abort drives the hybrid interface" `Quick
            test_grab_and_abort_uses_interface ] ) ]
