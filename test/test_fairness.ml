(* Tests for the fairness core: payoff vectors, event classification,
   utilities, closed-form bounds, the fairness relation, the RPD game
   solver, cost machinery, the verdict rule, and the Monte-Carlo
   estimator. *)

open Fairness
module Engine = Fair_exec.Engine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Machine = Fair_exec.Machine
module Wire = Fair_exec.Wire
module Func = Fair_mpc.Func
module Rng = Fair_crypto.Rng

let qtest name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* ---------------------------- payoff -------------------------------- *)

let test_gamma_fair_membership () =
  Alcotest.(check bool) "default in Gamma+" true (Payoff.in_gamma_fair_plus Payoff.default);
  Alcotest.(check bool) "zero_one in Gamma+" true (Payoff.in_gamma_fair_plus Payoff.zero_one);
  List.iter
    (fun g -> Alcotest.(check bool) (Payoff.to_string g) true (Payoff.in_gamma_fair_plus g))
    Payoff.sweep;
  (* g01 must be the minimum and zero *)
  Alcotest.(check bool) "g01 > 0 rejected" false
    (Payoff.in_gamma_fair (Payoff.v (0.2, 0.1, 1.0, 0.5)));
  (* g10 must strictly dominate *)
  Alcotest.(check bool) "g10 = g11 rejected" false
    (Payoff.in_gamma_fair (Payoff.v (0.0, 0.0, 1.0, 1.0)));
  (* Gamma_fair but not Gamma+ : g00 > g11 *)
  let g = Payoff.v (0.6, 0.0, 1.0, 0.7) in
  Alcotest.(check bool) "in Gamma_fair" true (Payoff.in_gamma_fair g);
  let g' = Payoff.v (0.8, 0.0, 1.0, 0.7) in
  Alcotest.(check bool) "g00 > g11 not in Gamma+" false (Payoff.in_gamma_fair_plus g')

let test_gamma_normalize () =
  let g = Payoff.normalize (Payoff.v (0.5, 0.3, 1.3, 0.8)) in
  Alcotest.(check (float 1e-9)) "g01 zeroed" 0.0 g.Payoff.g01;
  Alcotest.(check (float 1e-9)) "g10 shifted" 1.0 g.Payoff.g10

let test_gamma_check_raises () =
  Alcotest.check_raises "check_fair" (Invalid_argument "Payoff.check_fair: vector outside Gamma_fair")
    (fun () -> ignore (Payoff.check_fair (Payoff.v (0.0, 0.5, 1.0, 0.0))))

(* ---------------------------- events -------------------------------- *)

(* Build a synthetic outcome by running a tiny scripted protocol. *)
let scripted ~p1 ~p2 ~claims : Events.trial =
  let proto =
    Protocol.make ~name:"scripted" ~parties:2 ~max_rounds:2
      (fun ~rng:_ ~id ~n:_ ~input:_ ~setup:_ ->
        Machine.make () (fun () ~round:_ ~inbox:_ ->
            let act = if id = 1 then p1 else p2 in
            ((), [ act ])))
  in
  let adv =
    Adversary.make ~name:"scripted-adv" (fun _rng ~protocol:_ ->
        let pending = ref claims in
        { Adversary.initial = [];
          step =
            (fun _ ->
              match !pending with
              | [] -> Adversary.silent_decision
              | c :: rest ->
                  pending := rest;
                  { Adversary.silent_decision with Adversary.claim_learned = Some c }) })
  in
  let outcome =
    Engine.run ~protocol:proto ~adversary:adv ~inputs:[| "a"; "b" |]
      ~rng:(Rng.create ~seed:"ev")
  in
  { Events.outcome; inputs = [| "a"; "b" |]; func = Func.swap }

let event = Alcotest.testable Events.pp_event ( = )

let classify trial = (Events.classify trial).Events.event

let test_classify_e11 () =
  Alcotest.check event "both learned" Events.E11
    (classify (scripted ~p1:(Machine.Output "b,a") ~p2:(Machine.Output "b,a") ~claims:[ "b,a" ]))

let test_classify_e01 () =
  Alcotest.check event "honest only" Events.E01
    (classify (scripted ~p1:(Machine.Output "b,a") ~p2:(Machine.Output "b,a") ~claims:[]))

let test_classify_e10 () =
  Alcotest.check event "adversary only" Events.E10
    (classify (scripted ~p1:Machine.Abort_self ~p2:Machine.Abort_self ~claims:[ "b,a" ]))

let test_classify_e00 () =
  Alcotest.check event "nobody" Events.E00
    (classify (scripted ~p1:Machine.Abort_self ~p2:Machine.Abort_self ~claims:[]))

let test_classify_wrong_claim_rejected () =
  Alcotest.check event "guessing does not pay" Events.E00
    (classify (scripted ~p1:Machine.Abort_self ~p2:Machine.Abort_self ~claims:[ "nonsense" ]))

let test_classify_disagreeing_honest () =
  (* Parties outputting different values cannot count as honest-got. *)
  Alcotest.check event "disagreement" Events.E00
    (classify (scripted ~p1:(Machine.Output "b,a") ~p2:Machine.Abort_self ~claims:[]))

let test_classify_breach () =
  let c = Events.classify (scripted ~p1:(Machine.Output "garbage") ~p2:(Machine.Output "garbage") ~claims:[]) in
  Alcotest.(check bool) "breach flagged" true c.Events.correctness_breach

let test_classify_default_substitution () =
  (* With p1 corrupted, f(default, x2) is a legitimate output. *)
  let proto =
    Protocol.make ~name:"s2" ~parties:2 ~max_rounds:2 (fun ~rng:_ ~id ~n:_ ~input:_ ~setup:_ ->
        Machine.make () (fun () ~round:_ ~inbox:_ ->
            ((), [ (if id = 2 then Machine.Output "b,_" else Machine.Abort_self) ])))
  in
  let adv =
    Adversary.make ~name:"c1" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 1 ]; step = (fun _ -> Adversary.silent_decision) })
  in
  let outcome =
    Engine.run ~protocol:proto ~adversary:adv ~inputs:[| "a"; "b" |] ~rng:(Rng.create ~seed:"d")
  in
  let trial = { Events.outcome; inputs = [| "a"; "b" |]; func = Func.swap } in
  Alcotest.check event "default-substituted output is honest-got" Events.E01 (classify trial);
  Alcotest.(check (list string)) "legitimate set" [ "b,a"; "b,_" ] (Events.legitimate_outputs trial)

(* Corrupted parties 1 and 3 of 3, read in place around the honest party
   2, and an f whose substitutions give "c", "A", "_", "A" for masks 0-3:
   the set keeps the order of first appearance, not of last ("c", "_",
   "A"). *)
let test_legitimate_order () =
  let proto =
    Protocol.make ~name:"s3" ~parties:3 ~max_rounds:2 (fun ~rng:_ ~id:_ ~n:_ ~input:_ ~setup:_ ->
        Machine.make () (fun () ~round:_ ~inbox:_ -> ((), [ Machine.Abort_self ])))
  in
  let adv =
    Adversary.make ~name:"c13" (fun _rng ~protocol:_ ->
        { Adversary.initial = [ 1; 3 ]; step = (fun _ -> Adversary.silent_decision) })
  in
  let inputs = [| "a"; "m"; "c" |] in
  let func =
    { Func.name = "first-or-third";
      arity = 3;
      eval = (fun xs -> if xs.(0) = "_" then "A" else xs.(2));
      default_input = "_" }
  in
  let outcome = Engine.run ~protocol:proto ~adversary:adv ~inputs ~rng:(Rng.create ~seed:"o") in
  Alcotest.(check (list string)) "first appearance" [ "c"; "A"; "_" ]
    (Events.legitimate_outputs { Events.outcome; inputs; func });
  Alcotest.(check (array string)) "inputs untouched" [| "a"; "m"; "c" |] inputs

(* --------------------------- utility -------------------------------- *)

let test_utility_expected () =
  let d = { Utility.p00 = 0.1; p01 = 0.2; p10 = 0.3; p11 = 0.4 } in
  let g = Payoff.v (1.0, 2.0, 3.0, 4.0) in
  Alcotest.(check (float 1e-9)) "weighted sum" (0.1 +. 0.4 +. 0.9 +. 1.6) (Utility.expected g d)

let test_utility_of_counts () =
  let d = Utility.of_counts [ (Events.E10, 3); (Events.E11, 1) ] in
  Alcotest.(check (float 1e-9)) "p10" 0.75 d.Utility.p10;
  Alcotest.(check (float 1e-9)) "p11" 0.25 d.Utility.p11;
  Alcotest.(check (float 1e-9)) "p00" 0.0 d.Utility.p00

let test_utility_with_cost () =
  let d = { Utility.p00 = 0.0; p01 = 0.0; p10 = 1.0; p11 = 0.0 } in
  let g = Payoff.zero_one in
  let u = Utility.expected_with_cost g d ~cost:(fun t -> 0.25 *. float_of_int t) ~corrupted:[ (2, 1.0) ] in
  Alcotest.(check (float 1e-9)) "1 - 0.5" 0.5 u

(* ---------------------------- bounds -------------------------------- *)

let test_bounds_formulas () =
  let g = Payoff.default in
  Alcotest.(check (float 1e-9)) "opt2" 0.75 (Bounds.opt2 g);
  Alcotest.(check (float 1e-9)) "optn n=4 t=1" ((1.0 +. 1.5) /. 4.0) (Bounds.optn g ~n:4 ~t:1);
  Alcotest.(check (float 1e-9)) "optn best n=4" ((3.0 +. 0.5) /. 4.0) (Bounds.optn_best g ~n:4);
  Alcotest.(check (float 1e-9)) "balanced n=5" (4.0 *. 1.5 /. 2.0) (Bounds.balanced_sum g ~n:5);
  Alcotest.(check (float 1e-9)) "gmw t<thr" 0.5 (Bounds.gmw_half g ~n:4 ~t:1);
  Alcotest.(check (float 1e-9)) "gmw t>=thr" 1.0 (Bounds.gmw_half g ~n:4 ~t:2);
  Alcotest.(check (float 1e-9)) "gmw odd threshold" 0.5 (Bounds.gmw_half g ~n:5 ~t:2);
  Alcotest.(check (float 1e-9)) "gmw sum n=4 exceeds balanced"
    (Bounds.balanced_sum g ~n:4 +. (g.Payoff.g10 -. g.Payoff.g11) /. 2.0)
    (Bounds.gmw_half_sum g ~n:4);
  Alcotest.(check (float 1e-9)) "gmw sum n=5 meets balanced" (Bounds.balanced_sum g ~n:5)
    (Bounds.gmw_half_sum g ~n:5);
  Alcotest.(check (float 1e-9)) "artificial sum n=3" ((8.0 +. 2.0) /. 6.0)
    (Bounds.artificial_sum g ~n:3);
  Alcotest.(check (float 1e-9)) "artificial single n=3" ((1.0 /. 3.0) +. (2.0 /. 3.0 *. 0.75))
    (Bounds.artificial_single g ~n:3);
  Alcotest.(check (float 1e-9)) "ideal t=0" 0.0 (Bounds.ideal_utility g ~t:0);
  Alcotest.(check (float 1e-9)) "ideal t>=1" 0.5 (Bounds.ideal_utility g ~t:2);
  Alcotest.(check (float 1e-9)) "gk p=4" 0.25 (Bounds.gk_upper ~p:4)

let prop_artificial_sum_consistency =
  (* artificial_single(t=1) + optn_best(t=n-1) = artificial_sum, as in the
     proof of Lemma 18. *)
  qtest "Lemma 18 arithmetic" 50
    QCheck.(int_range 2 20)
    (fun n ->
      let g = Payoff.default in
      let sum = Bounds.artificial_single g ~n +. Bounds.optn_best g ~n in
      abs_float (sum -. Bounds.artificial_sum g ~n) < 1e-9)

let prop_balanced_equals_optn_sum =
  (* Lemma 14: the optn per-t bounds sum to the balanced bound. *)
  qtest "Lemma 14 arithmetic" 50
    QCheck.(int_range 2 20)
    (fun n ->
      let g = Payoff.default in
      let sum = ref 0.0 in
      for t = 1 to n - 1 do
        sum := !sum +. Bounds.optn g ~n ~t
      done;
      abs_float (!sum -. Bounds.balanced_sum g ~n) < 1e-9)

(* ------------------------------ rpd --------------------------------- *)

let test_rpd_minimax () =
  let t =
    Rpd.make ~designer:[| "a"; "b"; "c" |] ~attacker:[| "x"; "y" |]
      ~utility:[| [| 1.0; 0.9 |]; [| 0.5; 0.75 |]; [| 0.6; 0.8 |] |]
  in
  let row, v = Rpd.minimax t in
  Alcotest.(check int) "row b" 1 row;
  Alcotest.(check (float 1e-9)) "value" 0.75 v;
  let col, mv = Rpd.maximin t in
  Alcotest.(check int) "col y" 1 col;
  Alcotest.(check (float 1e-9)) "maximin value" 0.75 mv;
  Alcotest.(check bool) "saddle" true (Rpd.is_equilibrium t ~row:1 ~col:1);
  Alcotest.(check (option (pair int int))) "found" (Some (1, 1)) (Rpd.has_pure_equilibrium t)

let test_rpd_validation () =
  Alcotest.check_raises "ragged" (Invalid_argument "Rpd.make: cols") (fun () ->
      ignore (Rpd.make ~designer:[| "a" |] ~attacker:[| "x"; "y" |] ~utility:[| [| 1.0 |] |]))

(* -------------------------- cost/balance ----------------------------- *)

let test_cost_dominance () =
  let c t = float_of_int t and c' t = 0.5 *. float_of_int t in
  Alcotest.(check bool) "dominates" true (Cost.dominates ~c ~c':c' ~n:5);
  Alcotest.(check bool) "strictly" true (Cost.strictly_dominates ~c ~c':c' ~n:5);
  Alcotest.(check bool) "not reverse" false (Cost.dominates ~c:c' ~c':c ~n:5)

let test_cost_theorem6_values () =
  let g = Payoff.default in
  let c = Cost.theorem6 g ~n:4 in
  Alcotest.(check (float 1e-9)) "c(0)" 0.0 (c 0);
  Alcotest.(check (float 1e-9)) "c(1) = optn(1) - g11" (Bounds.optn g ~n:4 ~t:1 -. 0.5) (c 1);
  (* phi/cost correspondence of Lemma 22 *)
  let phi t = Bounds.optn g ~n:4 ~t in
  let c' = Cost.phi_cost_correspondence ~phi ~gamma:g in
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) (Printf.sprintf "t=%d" t) (c t) (c' t))
    [ 1; 2; 3 ]

(* --------------------------- montecarlo ------------------------------ *)

let test_montecarlo_deterministic () =
  let proto = Fair_mpc.Ideal.dummy_protocol_fair Func.swap in
  let run () =
    Montecarlo.estimate ~protocol:proto ~adversary:Adversary.passive ~func:Func.swap
      ~gamma:Payoff.default ~env:(Montecarlo.uniform_field_inputs ~n:2) ~trials:50 ~seed:7 ()
  in
  let a = run () and b = run () in
  Alcotest.(check (float 0.0)) "same utility" a.Montecarlo.utility b.Montecarlo.utility;
  Alcotest.(check int) "trials recorded" 50 a.Montecarlo.trials

let test_montecarlo_passive_is_e01 () =
  let proto = Fair_mpc.Ideal.dummy_protocol_fair Func.swap in
  let e =
    Montecarlo.estimate ~protocol:proto ~adversary:Adversary.passive ~func:Func.swap
      ~gamma:Payoff.default ~env:(Montecarlo.uniform_field_inputs ~n:2) ~trials:50 ~seed:3 ()
  in
  Alcotest.(check (float 1e-9)) "passive earns g01 = 0" 0.0 e.Montecarlo.utility;
  Alcotest.(check (float 1e-9)) "all mass on E01" 1.0 e.Montecarlo.distribution.Utility.p01;
  Alcotest.(check int) "no breaches" 0 e.Montecarlo.breaches

let test_montecarlo_bound_helpers () =
  let proto = Fair_mpc.Ideal.dummy_protocol_fair Func.swap in
  let e =
    Montecarlo.estimate ~protocol:proto ~adversary:Adversary.passive ~func:Func.swap
      ~gamma:Payoff.default ~env:(Montecarlo.uniform_field_inputs ~n:2) ~trials:20 ~seed:5 ()
  in
  Alcotest.(check bool) "within 0" true (Check.within_bound e ~bound:0.0);
  Alcotest.(check bool) "attains 0" true (Check.attains_bound e ~bound:0.0);
  Alcotest.(check bool) "not attains 1" false (Check.attains_bound e ~bound:1.0)

(* An estimate that carries only a utility and a standard error. *)
let estimate_of_pair utility std_err =
  { Montecarlo.utility;
    std_err;
    distribution = { Utility.p00 = 0.; p01 = 1.; p10 = 0.; p11 = 0. };
    counts = [];
    corrupted_counts = [];
    breaches = 0;
    trials = 100;
    trial_faults = 0 }

let test_relation_verdicts () =
  let mk u = estimate_of_pair u 0.001 in
  let v = Relation.compare_sup ~pi:(mk 0.5) ~pi':(mk 0.9) in
  Alcotest.(check string) "strictly fairer" "strictly fairer"
    (Format.asprintf "%a" Relation.pp_verdict v);
  let v = Relation.compare_sup ~pi:(mk 0.9) ~pi':(mk 0.5) in
  Alcotest.(check string) "less fair" "less fair" (Format.asprintf "%a" Relation.pp_verdict v);
  let v = Relation.compare_sup ~pi:(mk 0.7) ~pi':(mk 0.7005) in
  Alcotest.(check string) "equal within noise" "equally fair"
    (Format.asprintf "%a" Relation.pp_verdict v)

(* ----------------------------- check -------------------------------- *)

(* Each evidence form reproduces, bit for bit, the expression the registry,
   the certificate and the relation wrote inline before it existed. *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let std_err = QCheck.float_bound_inclusive 0.5
let std_errs = QCheck.(list_of_size Gen.(1 -- 6) std_err)

let prop_estimate_form =
  qtest "Estimate: 3.0 *. se" 500 std_err (fun se ->
      same_bits (Check.tolerance (Estimate se)) (3.0 *. se))

let prop_ratio_form =
  qtest "Ratio: Float.max floor (3.0 *. se)" 500 std_err (fun se ->
      List.for_all
        (fun floor ->
          same_bits
            (Check.tolerance (Ratio { std_err = se; floor }))
            (Float.max floor (3.0 *. se)))
        [ 0.06; 0.15 ])

let prop_sum_form =
  qtest "Sum: 3.0 *. (a +. b)" 500 (QCheck.pair std_err std_err) (fun (a, b) ->
      same_bits (Check.tolerance (Sum [ a; b ])) (3.0 *. (a +. b)))

let prop_sum_quadrature_form =
  qtest "Sum_quadrature: 3.0 *. sqrt (sum of squares)" 500 std_errs (fun ses ->
      let sq = sqrt (List.fold_left (fun acc s -> acc +. (s *. s)) 0.0 ses) in
      same_bits (Check.tolerance (Sum_quadrature ses)) (3.0 *. sq))

let prop_proportion_form =
  qtest "Proportion: 3.0 *. 0.5 /. sqrt n" 500 QCheck.(int_range 1 100_000) (fun n ->
      same_bits (Check.tolerance (Proportion n)) (3.0 *. 0.5 /. sqrt (float_of_int n)))

let prop_stated_and_exact =
  qtest "Stated and Exact" 200 std_err (fun s ->
      same_bits (Check.tolerance (Stated s)) s && same_bits (Check.tolerance Exact) 0.0)

(* E12's (3·0.5)/√n and E13's 3·(0.5/√n) are different floats at tier-1's
   n = 400, so merging them would move printed bytes. *)
let test_worst_case_forms_differ () =
  let g = Printf.sprintf "%.17g" in
  Alcotest.(check string) "E12's form" "0.074999999999999997"
    (g (Check.tolerance (Proportion 400)));
  Alcotest.(check string) "E13's form" "0.075000000000000011"
    (g (Check.tolerance (Estimate (0.5 /. sqrt 400.0))));
  Alcotest.(check string) "E12's recorded tolerance" (g ((3.0 *. 0.5 /. sqrt 400.0) +. 1e-9))
    (g (Check.make ~label:"" ~measured:0.25 ~expected:0.25 `Equals (Proportion 400)).tolerance)

(* The verdicts and the certificate helpers, against the inline
   comparisons they replaced, on random inputs. *)
let prop_verdicts_unchanged =
  qtest "verdicts and bound helpers" 1000
    QCheck.(quad (float_bound_inclusive 1.0) (float_bound_inclusive 1.0) std_err std_errs)
    (fun (measured, expected, se, ses) ->
      let tol = (3.0 *. se) +. 1e-9 in
      let c kind = Check.make ~label:"" ~measured ~expected kind (Estimate se) in
      let e = estimate_of_pair measured se in
      let q = 3.0 *. sqrt (List.fold_left (fun acc s -> acc +. (s *. s)) 0.0 ses) in
      same_bits (c `Equals).tolerance tol
      && (c `Equals).ok = (abs_float (measured -. expected) <= tol)
      && (c `At_most).ok = (measured <= expected +. tol)
      && (c `At_least).ok = (measured >= expected -. tol)
      && Check.holds `At_most (Estimate se) ~measured ~expected = (c `At_most).ok
      && Check.within_bound e ~bound:expected = (measured <= expected +. (3.0 *. se) +. 1e-9)
      && Check.attains_bound e ~bound:expected = (measured >= expected -. (3.0 *. se) -. 1e-9)
      && (not (Check.within (Sum_quadrature ses) ~measured ~bound:expected))
         = (measured > expected +. q +. 1e-9))

(* The 1e-9 slack: a value on the edge passes, the next float past it
   fails, for each kind and on both sides of [`Equals].  At bound 0.5 the
   registry's b + (3σ̂ + 1e-9) and the certificate's (b + 3σ̂) + 1e-9 are
   different floats for σ̂ = 0.021 (and their lower twins for σ̂ = 0.01), so
   there each edge also pins its order of additions. *)
let test_slack_edges () =
  let ok kind measured ~expected ev =
    (Check.make ~label:"" ~measured ~expected kind ev).ok
  in
  List.iter
    (fun (name, ev, expected) ->
      let tol = Check.tolerance ev +. 1e-9 in
      let hi = expected +. tol and lo = expected -. tol in
      let case what want got = Alcotest.(check bool) (name ^ ": " ^ what) want got in
      case "at most, on the edge" true (ok `At_most hi ~expected ev);
      case "at most, past it" false (ok `At_most (Float.succ hi) ~expected ev);
      case "at least, on the edge" true (ok `At_least lo ~expected ev);
      case "at least, past it" false (ok `At_least (Float.pred lo) ~expected ev);
      if expected = 0.0 then begin
        case "equals, upper edge" true (ok `Equals tol ~expected ev);
        case "equals, past it" false (ok `Equals (Float.succ tol) ~expected ev);
        case "equals, lower edge" true (ok `Equals (-.tol) ~expected ev);
        case "equals, past it below" false (ok `Equals (Float.pred (-.tol)) ~expected ev)
      end)
    [ ("exact", Check.Exact, 0.0);
      ("exact at 0.75", Check.Exact, 0.75);
      ("estimate", Check.Estimate 0.01, 0.0);
      ("estimate at 0.5, upper order", Check.Estimate 0.021, 0.5);
      ("estimate at 0.5, lower order", Check.Estimate 0.01, 0.5);
      ("stated", Check.Stated 1e-6, 0.0) ];
  let bound = 0.5 in
  let registry_hi = bound +. ((3.0 *. 0.021) +. 1e-9) in
  let edge = bound +. (3.0 *. 0.021) +. 1e-9 in
  Alcotest.(check bool) "the two upper orders differ" true (edge <> registry_hi);
  let e = estimate_of_pair 0.0 0.021 in
  Alcotest.(check bool) "within_bound on the edge" true
    (Check.within_bound { e with Montecarlo.utility = edge } ~bound);
  Alcotest.(check bool) "within_bound past it" false
    (Check.within_bound { e with Montecarlo.utility = Float.succ edge } ~bound);
  let registry_lo = bound -. ((3.0 *. 0.01) +. 1e-9) in
  let edge = bound -. (3.0 *. 0.01) -. 1e-9 in
  Alcotest.(check bool) "the two lower orders differ" true (edge <> registry_lo);
  let e = estimate_of_pair 0.0 0.01 in
  Alcotest.(check bool) "attains_bound on the edge" true
    (Check.attains_bound { e with Montecarlo.utility = edge } ~bound);
  Alcotest.(check bool) "attains_bound past it" false
    (Check.attains_bound { e with Montecarlo.utility = Float.pred edge } ~bound)

(* --------------------------- statdist ------------------------------- *)

let test_statdist_identical () =
  let sample i = string_of_int (i mod 4) in
  let tv = Statdist.sample_distance ~a:sample ~b:sample ~trials:400 () in
  Alcotest.(check (float 1e-9)) "identical samplers" 0.0 tv

let test_statdist_disjoint () =
  let tv =
    Statdist.sample_distance ~a:(fun _ -> "x") ~b:(fun _ -> "y") ~trials:100 ()
  in
  Alcotest.(check (float 1e-9)) "disjoint supports" 1.0 tv

let test_statdist_half () =
  (* a: uniform on {0,1}; b: always 0 -> TV = 1/2 *)
  let tv =
    Statdist.sample_distance
      ~a:(fun i -> string_of_int (i mod 2))
      ~b:(fun _ -> "0")
      ~trials:1000 ()
  in
  if abs_float (tv -. 0.5) > 0.01 then Alcotest.failf "TV %.3f, expected 0.5" tv

let test_statdist_bias_bound () =
  Alcotest.(check (float 1e-9)) "sqrt(support/trials)" 0.2
    (Statdist.bias_bound ~support:4 ~trials:100)

let () =
  Alcotest.run "fairness"
    [ ( "payoff",
        [ Alcotest.test_case "Gamma_fair membership" `Quick test_gamma_fair_membership;
          Alcotest.test_case "normalization" `Quick test_gamma_normalize;
          Alcotest.test_case "check raises" `Quick test_gamma_check_raises ] );
      ( "events",
        [ Alcotest.test_case "E11" `Quick test_classify_e11;
          Alcotest.test_case "E01" `Quick test_classify_e01;
          Alcotest.test_case "E10" `Quick test_classify_e10;
          Alcotest.test_case "E00" `Quick test_classify_e00;
          Alcotest.test_case "wrong claim rejected" `Quick test_classify_wrong_claim_rejected;
          Alcotest.test_case "disagreeing honest outputs" `Quick test_classify_disagreeing_honest;
          Alcotest.test_case "correctness breach flagged" `Quick test_classify_breach;
          Alcotest.test_case "default substitution legitimate" `Quick
            test_classify_default_substitution;
          Alcotest.test_case "legitimate set in order of first appearance" `Quick
            test_legitimate_order ] );
      ( "utility",
        [ Alcotest.test_case "expected payoff" `Quick test_utility_expected;
          Alcotest.test_case "empirical distribution" `Quick test_utility_of_counts;
          Alcotest.test_case "corruption costs" `Quick test_utility_with_cost ] );
      ( "bounds",
        [ Alcotest.test_case "closed forms" `Quick test_bounds_formulas;
          prop_artificial_sum_consistency;
          prop_balanced_equals_optn_sum ] );
      ( "rpd",
        [ Alcotest.test_case "minimax/maximin/saddle" `Quick test_rpd_minimax;
          Alcotest.test_case "validation" `Quick test_rpd_validation ] );
      ( "cost",
        [ Alcotest.test_case "dominance" `Quick test_cost_dominance;
          Alcotest.test_case "Theorem 6 cost and Lemma 22" `Quick test_cost_theorem6_values ] );
      ( "check",
        [ prop_estimate_form;
          prop_ratio_form;
          prop_sum_form;
          prop_sum_quadrature_form;
          prop_proportion_form;
          prop_stated_and_exact;
          Alcotest.test_case "E12's and E13's worst-case forms differ" `Quick
            test_worst_case_forms_differ;
          prop_verdicts_unchanged;
          Alcotest.test_case "slack edges" `Quick test_slack_edges ] );
      ( "statdist",
        [ Alcotest.test_case "identical samplers" `Quick test_statdist_identical;
          Alcotest.test_case "disjoint supports" `Quick test_statdist_disjoint;
          Alcotest.test_case "half-mass shift" `Quick test_statdist_half;
          Alcotest.test_case "bias bound" `Quick test_statdist_bias_bound ] );
      ( "montecarlo",
        [ Alcotest.test_case "deterministic under seed" `Quick test_montecarlo_deterministic;
          Alcotest.test_case "passive baseline" `Quick test_montecarlo_passive_is_e01;
          Alcotest.test_case "bound helpers" `Quick test_montecarlo_bound_helpers;
          Alcotest.test_case "relation verdicts" `Quick test_relation_verdicts ] ) ]
