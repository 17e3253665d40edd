(* Tests for the deterministic fault-injection layer: the spec parser and
   its canonical round-trip, per-kind channel semantics against a tiny
   observable protocol, crash-stop containment, schedule determinism, and
   the Monte-Carlo integration (faults-off bit-identity, jobs-invariance
   under faults, trial-level isolation and the fault budget). *)

open Fairness
module Faults = Fair_faults.Faults
module Engine = Fair_exec.Engine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Rng = Fair_crypto.Rng
module Func = Fair_mpc.Func

let rng seed = Rng.create ~seed

(* ----------------------------- parser -------------------------------- *)

let test_parse_empty () =
  Alcotest.(check bool) "empty spec" true (Faults.is_empty (Faults.of_spec ""));
  Alcotest.(check bool) "whitespace spec" true (Faults.is_empty (Faults.of_spec "  "))

let test_parse_fields () =
  let p = Faults.of_spec "flip@2-5:1->2%0.25" in
  match Faults.rules p with
  | [ r ] ->
      Alcotest.(check bool) "kind" true (r.Faults.kind = Faults.Bitflip);
      Alcotest.(check int) "lo" 2 r.Faults.r_lo;
      Alcotest.(check int) "hi" 5 r.Faults.r_hi;
      Alcotest.(check (option int)) "src" (Some 1) r.Faults.src;
      Alcotest.(check (option int)) "dst" (Some 2) r.Faults.dst;
      Alcotest.(check (float 1e-9)) "prob" 0.25 r.Faults.prob
  | _ -> Alcotest.fail "expected one rule"

let test_parse_crash () =
  let p = Faults.of_spec "crash@3:p2%0.5" in
  Alcotest.(check int) "no channel rules" 0 (List.length (Faults.rules p));
  match Faults.crashes p with
  | [ c ] ->
      Alcotest.(check int) "party" 2 c.Faults.party;
      Alcotest.(check int) "lo" 3 c.Faults.c_lo;
      Alcotest.(check int) "hi" 3 c.Faults.c_hi;
      Alcotest.(check (float 1e-9)) "prob" 0.5 c.Faults.c_prob
  | _ -> Alcotest.fail "expected one crash rule"

let test_parse_roundtrip () =
  let specs =
    [ "drop@3";
      "dup@*";
      "delay+2@2-*";
      "flip@2-5:1->2%0.25";
      "trunc@*%0.75";
      "drop@*%0.1;flip@*%0.1;delay+1@*%0.2;crash@1:p2" ]
  in
  List.iter
    (fun s ->
      let p = Faults.of_spec s in
      let q = Faults.of_spec (Faults.to_string p) in
      Alcotest.(check string)
        (Printf.sprintf "canonical fixpoint of %S" s)
        (Faults.to_string p) (Faults.to_string q))
    specs

let test_parse_errors () =
  let bad =
    [ "explode@3"; "drop@0"; "drop@5-2"; "drop%1.5"; "drop%x"; "crash@1"; "crash@1:2";
      "crash@1:p0"; "delay+@2"; "delay+0@2"; "flip@2:1->" ]
  in
  List.iter
    (fun s ->
      match Faults.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S should not parse" s)
    bad

(* ------------------------- channel semantics -------------------------- *)

(* p1 sends its input to p2 in round 1; p2 logs every delivery as
   "<round>:<src>:<payload>" and outputs the ;-joined log at the last
   round — so drops, duplicates and delays are all visible in the output. *)
let collector =
  Protocol.make ~name:"collector" ~parties:2 ~max_rounds:5
    (fun ~rng:_ ~id ~n:_ ~input ~setup:_ ->
      Machine.make [] (fun acc ~round ~inbox ->
          match id with
          | 1 -> if round = 1 then (acc, [ Machine.Send (Wire.To 2, input) ]) else (acc, [])
          | _ ->
              let acc =
                acc @ List.map (fun (src, p) -> Printf.sprintf "%d:%d:%s" round src p) inbox
              in
              if round = 5 then (acc, [ Machine.Output (String.concat ";" acc) ])
              else (acc, [])))

let run_spec ?(input = "hello") ?(seed = "faults-test") spec =
  let plan = Faults.of_spec spec in
  let inst = Faults.instantiate plan ~rng:(rng (seed ^ ":faults")) in
  Engine.run_prepared ~faults:inst.Faults.injector ~adversary:Adversary.passive
    (Engine.prepare ~protocol:collector ~inputs:[| input; "" |] ~rng:(rng seed))

let p2_output o =
  match List.assoc 2 o.Engine.results with
  | Engine.Honest_output s -> s
  | _ -> Alcotest.fail "p2 should have output"

let test_drop () =
  Alcotest.(check string) "message lost" "" (p2_output (run_spec "drop@1"))

let test_drop_scoped_to_round () =
  (* The only send happens in round 1, so a round-3 rule is a no-op. *)
  Alcotest.(check string) "round 3 rule misses" "2:1:hello" (p2_output (run_spec "drop@3"))

let test_dup () =
  Alcotest.(check string) "delivered twice, same round" "2:1:hello;2:1:hello"
    (p2_output (run_spec "dup@*"))

let test_delay () =
  Alcotest.(check string) "two extra rounds" "4:1:hello" (p2_output (run_spec "delay+2@*"))

let test_flip () =
  let out = p2_output (run_spec "flip@*") in
  (* "2:1:" prefix, then the tampered payload. *)
  let payload = String.sub out 4 (String.length out - 4) in
  Alcotest.(check int) "same length" 5 (String.length payload);
  Alcotest.(check bool) "payload tampered" true (payload <> "hello");
  let diff = ref 0 in
  String.iteri
    (fun i c -> if c <> "hello".[i] then incr diff)
    payload;
  Alcotest.(check int) "exactly one byte differs" 1 !diff

let test_trunc () =
  let out = p2_output (run_spec "trunc@*") in
  let payload = String.sub out 4 (String.length out - 4) in
  Alcotest.(check bool) "strict prefix" true (String.length payload < 5);
  Alcotest.(check string) "prefix of the original" payload
    (String.sub "hello" 0 (String.length payload))

let test_edge_filter () =
  (* 2->1 never happens in this protocol; the 1->2 edge must still work. *)
  Alcotest.(check string) "wrong edge is a no-op" "2:1:hello" (p2_output (run_spec "drop@*:2->1"));
  Alcotest.(check string) "right edge drops" "" (p2_output (run_spec "drop@*:1->2"))

let test_rule_order () =
  (* drop;dup = nothing to duplicate; dup;drop = both copies dropped —
     either way empty, but dup;drop@%.. would differ.  Check the composed
     pipeline at least applies left to right on the copy list. *)
  Alcotest.(check string) "drop then dup" "" (p2_output (run_spec "drop@*;dup@*"));
  Alcotest.(check string) "dup then delay" "3:1:hello;3:1:hello"
    (p2_output (run_spec "dup@*;delay+1@*"))

let test_crash () =
  let o = run_spec "crash@1:p2" in
  (match List.assoc 2 o.Engine.results with
  | Engine.Honest_abort -> ()
  | _ -> Alcotest.fail "crashed party should read as Honest_abort");
  match o.Engine.failures with
  | [ Engine.Party_crash { round = 1; party = 2 } ] -> ()
  | _ -> Alcotest.fail "expected Party_crash{round=1;party=2} on the outcome"

let test_empty_plan_is_identity () =
  let faulted = run_spec "" in
  let plain =
    Engine.run ~protocol:collector ~adversary:Adversary.passive ~inputs:[| "hello"; "" |]
      ~rng:(rng "faults-test")
  in
  Alcotest.(check string) "bit-identical output" (p2_output plain) (p2_output faulted)

(* ----------------------- schedule determinism ------------------------- *)

let applied_strings =
  List.map (fun a -> Printf.sprintf "%d/%s" a.Faults.at_round a.Faults.action)

let test_schedule_deterministic () =
  let run () =
    let inst = Faults.instantiate (Faults.of_spec "drop@*%0.5;flip@*%0.5") ~rng:(rng "sched") in
    ignore
      (Engine.run_prepared ~faults:inst.Faults.injector ~adversary:Adversary.passive
         (Engine.prepare ~protocol:collector ~inputs:[| "hello"; "" |] ~rng:(rng "exec")));
    applied_strings (inst.Faults.applied ())
  in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "same spec+seed, same schedule" a b

let test_schedule_seed_sensitivity () =
  (* Not a hard guarantee per seed pair, but with 40 independent coin
     flips two distinct streams agreeing everywhere would be a 2^-40
     event — and this test is deterministic, so it either always passes
     or flags a real seeding bug (e.g. the plan ignoring its rng). *)
  let sched seed =
    let inst = Faults.instantiate (Faults.of_spec "drop@*%0.5") ~rng:(rng seed) in
    List.init 40 (fun i ->
        ignore
          (Engine.run_prepared ~faults:inst.Faults.injector ~adversary:Adversary.passive
             (Engine.prepare ~protocol:collector
                ~inputs:[| string_of_int i; "" |]
                ~rng:(rng (Printf.sprintf "exec:%d" i))));
        ())
    |> ignore;
    applied_strings (inst.Faults.applied ())
  in
  Alcotest.(check bool) "different seeds, different schedules" true
    (sched "stream-a" <> sched "stream-b")

(* --------------------- Monte-Carlo integration ------------------------ *)

let pi1 = Fair_protocols.Contract.pi1
let cfunc = Fair_protocols.Contract.func
let greedy = List.nth Fair_protocols.Contract.zoo 1
let env2 = Montecarlo.uniform_field_inputs ~n:2
let inject_of spec = fun r -> (Faults.instantiate (Faults.of_spec spec) ~rng:r).Faults.injector

let est ?inject ?fault_budget ?(jobs = 1) ?(adversary = greedy) () =
  Montecarlo.estimate ?inject ?fault_budget ~jobs ~protocol:pi1 ~adversary ~func:cfunc
    ~gamma:Payoff.default ~env:env2 ~trials:60 ~seed:2024 ()

let test_mc_faults_off_identity () =
  let plain = est () in
  let injected = est ~inject:(inject_of "") () in
  Alcotest.(check (float 0.0)) "utility bit-identical" plain.Montecarlo.utility
    injected.Montecarlo.utility;
  Alcotest.(check (float 0.0)) "std_err bit-identical" plain.Montecarlo.std_err
    injected.Montecarlo.std_err;
  Alcotest.(check int) "no trial faulted" 0 injected.Montecarlo.trial_faults

let test_mc_jobs_invariant_under_faults () =
  let a = est ~inject:(inject_of "drop@*%0.5;flip@*%0.25") ~jobs:1 () in
  let b = est ~inject:(inject_of "drop@*%0.5;flip@*%0.25") ~jobs:4 () in
  Alcotest.(check (float 0.0)) "utility j1 = j4" a.Montecarlo.utility b.Montecarlo.utility;
  Alcotest.(check (float 0.0)) "std_err j1 = j4" a.Montecarlo.std_err b.Montecarlo.std_err;
  Alcotest.(check int) "faults j1 = j4" a.Montecarlo.trial_faults b.Montecarlo.trial_faults

(* An adversary whose constructor flips a coin and raises: roughly half
   the trials fault, deterministically in (seed, i). *)
let coin_crasher =
  Adversary.make ~name:"coin-crasher" (fun r ~protocol:_ ->
      if Rng.int r 2 = 0 then failwith "adversary crashed";
      { Adversary.initial = []; step = (fun _ -> Adversary.silent_decision) })

let test_mc_isolation () =
  let e = est ~adversary:coin_crasher ~fault_budget:1.0 () in
  Alcotest.(check bool) "some trials faulted" true (e.Montecarlo.trial_faults > 0);
  Alcotest.(check bool) "some trials survived" true (e.Montecarlo.trials > 0);
  Alcotest.(check bool) "mean still finite" true (Float.is_finite e.Montecarlo.utility);
  (* Isolation must not break jobs-invariance: which trials fault is a
     function of (seed, i) only. *)
  let e4 = est ~adversary:coin_crasher ~fault_budget:1.0 ~jobs:4 () in
  Alcotest.(check int) "faults j1 = j4" e.Montecarlo.trial_faults e4.Montecarlo.trial_faults;
  Alcotest.(check (float 0.0)) "utility j1 = j4" e.Montecarlo.utility e4.Montecarlo.utility

let test_mc_fault_budget () =
  match est ~adversary:coin_crasher ~fault_budget:0.05 () with
  | _ -> Alcotest.fail "a ~50% fault rate must blow a 5% budget"
  | exception Montecarlo.Fault_budget_exceeded { faulted; attempted; budget } ->
      Alcotest.(check bool) "faulted counted" true (faulted > 0);
      Alcotest.(check bool) "attempted >= faulted" true (attempted >= faulted);
      Alcotest.(check (float 1e-9)) "budget echoed" 0.05 budget

(* An adversary whose *step* raises: hardening degrades it to silence
   instead of faulting the trial. *)
let step_crasher =
  Adversary.make ~name:"step-crasher" (fun _ ~protocol:_ ->
      { Adversary.initial = [ 1 ]; step = (fun _ -> failwith "step crashed") })

let test_harden_adversary () =
  let e = est ~adversary:(Faults.harden_adversary step_crasher) () in
  Alcotest.(check int) "no trial faulted" 0 e.Montecarlo.trial_faults;
  (* Unhardened, every trial faults — and a mean over zero completed
     trials must be refused even at budget 1.0. *)
  match est ~adversary:step_crasher ~fault_budget:1.0 () with
  | _ -> Alcotest.fail "all-faulted estimate should be refused"
  | exception Montecarlo.Fault_budget_exceeded { faulted; attempted; _ } ->
      Alcotest.(check int) "every trial faulted" attempted faulted

let () =
  Alcotest.run "fair_faults"
    [ ( "parser",
        [ Alcotest.test_case "empty" `Quick test_parse_empty;
          Alcotest.test_case "all fields" `Quick test_parse_fields;
          Alcotest.test_case "crash rule" `Quick test_parse_crash;
          Alcotest.test_case "canonical round-trip" `Quick test_parse_roundtrip;
          Alcotest.test_case "malformed specs rejected" `Quick test_parse_errors ] );
      ( "channel-semantics",
        [ Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "round scoping" `Quick test_drop_scoped_to_round;
          Alcotest.test_case "duplicate" `Quick test_dup;
          Alcotest.test_case "delay" `Quick test_delay;
          Alcotest.test_case "bit flip" `Quick test_flip;
          Alcotest.test_case "truncate" `Quick test_trunc;
          Alcotest.test_case "edge filter" `Quick test_edge_filter;
          Alcotest.test_case "rule order" `Quick test_rule_order;
          Alcotest.test_case "crash-stop" `Quick test_crash;
          Alcotest.test_case "empty plan is identity" `Quick test_empty_plan_is_identity ] );
      ( "determinism",
        [ Alcotest.test_case "same seed, same schedule" `Quick test_schedule_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_schedule_seed_sensitivity ] );
      ( "montecarlo",
        [ Alcotest.test_case "faults-off bit-identity" `Quick test_mc_faults_off_identity;
          Alcotest.test_case "jobs-invariant under faults" `Quick
            test_mc_jobs_invariant_under_faults;
          Alcotest.test_case "trial isolation" `Quick test_mc_isolation;
          Alcotest.test_case "fault budget" `Quick test_mc_fault_budget;
          Alcotest.test_case "hardened adversary" `Quick test_harden_adversary ] ) ]
