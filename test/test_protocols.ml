(* End-to-end tests of every protocol in the zoo: honest-execution
   correctness, and the paper's utility bounds at small Monte-Carlo sizes
   (loose 5-sigma-ish tolerances keep these fast and non-flaky; the full-
   precision reproduction lives in the experiment suite / benches). *)

open Fairness
module Engine = Fair_exec.Engine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Rng = Fair_crypto.Rng
module Field = Fair_field.Field
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries
module Mc = Montecarlo

let gamma = Payoff.default
let trials = 250

let honest_outputs_of proto inputs =
  let o =
    Engine.run ~protocol:proto ~adversary:Adversary.passive ~inputs ~rng:(Rng.create ~seed:"h")
  in
  Engine.honest_outputs o

let check_all_output proto inputs expected =
  List.iter
    (fun (id, v) ->
      Alcotest.(check (option string)) (Printf.sprintf "party %d" id) (Some expected) v)
    (honest_outputs_of proto inputs)

let estimate ?overrides ~proto ~adv ~func ~env ?(gamma = gamma) ~seed () =
  Mc.estimate ?overrides ~protocol:proto ~adversary:adv ~func ~gamma ~env ~trials ~seed ()

let close ?(tol = 0.1) name measured expected =
  if abs_float (measured -. expected) > tol then
    Alcotest.failf "%s: measured %.4f, expected %.4f" name measured expected

let at_most ?(tol = 0.05) name measured bound =
  if measured > bound +. tol then Alcotest.failf "%s: measured %.4f > bound %.4f" name measured bound

let env2 = Mc.uniform_field_inputs ~n:2

(* --------------------------- contract -------------------------------- *)

let test_contract_honest () =
  let module C = Fair_protocols.Contract in
  check_all_output C.pi1 [| "sigA"; "sigB" |] "signed<sigA;sigB>";
  check_all_output C.pi2 [| "sigA"; "sigB" |] "signed<sigA;sigB>"

let test_contract_utilities () =
  let module C = Fair_protocols.Contract in
  let e1 = estimate ~proto:C.pi1 ~adv:(Adv.greedy ~func:C.func (Adv.Fixed [ 2 ])) ~func:C.func ~env:env2 ~seed:1 () in
  close "pi1 vs greedy p2" e1.Mc.utility 1.0;
  let e2 = estimate ~proto:C.pi2 ~adv:(Adv.greedy ~func:C.func Adv.Random_party) ~func:C.func ~env:env2 ~seed:2 () in
  close "pi2 vs greedy" e2.Mc.utility 0.75;
  (* corrupted p1 cannot win against pi1: it opens first *)
  let e3 = estimate ~proto:C.pi1 ~adv:(Adv.greedy ~func:C.func (Adv.Fixed [ 1 ])) ~func:C.func ~env:env2 ~seed:3 () in
  close "pi1 vs greedy p1 stuck at g11" e3.Mc.utility 0.5

(* ----------------------------- opt2 ---------------------------------- *)

let test_opt2_honest () =
  let proto = Fair_protocols.Opt2.hybrid Func.swap in
  check_all_output proto [| "left"; "right" |] "right,left"

let test_opt2_utility () =
  let proto = Fair_protocols.Opt2.hybrid Func.swap in
  let e = estimate ~proto ~adv:(Adv.greedy ~func:Func.swap Adv.Random_party) ~func:Func.swap ~env:env2 ~seed:4 () in
  close "greedy attains opt2 bound" e.Mc.utility 0.75;
  (* no strategy escapes the bound *)
  let _, best =
    Mc.best_response ~protocol:proto
      ~adversaries:(Adv.standard_zoo ~func:Func.swap ~n:2 ~max_round:7 ())
      ~func:Func.swap ~gamma ~env:env2 ~trials:120 ~seed:5 ()
  in
  at_most ~tol:0.08 "zoo bounded" best.Mc.utility 0.75

let test_opt2_biased_q () =
  (* q = 1: p1 always reconstructs first, so corrupting p1 always wins. *)
  let proto = Fair_protocols.Opt2.hybrid_biased ~q:1.0 Func.swap in
  let e = estimate ~proto ~adv:(Adv.greedy ~func:Func.swap (Adv.Fixed [ 1 ])) ~func:Func.swap ~env:env2 ~seed:6 () in
  close ~tol:0.02 "q=1 corrupt p1" e.Mc.utility 1.0;
  let e = estimate ~proto ~adv:(Adv.greedy ~func:Func.swap (Adv.Fixed [ 2 ])) ~func:Func.swap ~env:env2 ~seed:7 () in
  close ~tol:0.02 "q=1 corrupt p2" e.Mc.utility 0.5

let test_opt2_one_round_unfair () =
  let proto = Fair_protocols.Opt2.one_round_variant Func.swap in
  check_all_output proto [| "a"; "b" |] "b,a";
  let e = estimate ~proto ~adv:(Adv.greedy ~func:Func.swap Adv.Random_party) ~func:Func.swap ~env:env2 ~seed:8 () in
  close ~tol:0.02 "rushing wins outright" e.Mc.utility 1.0

let test_opt2_abort_phase1_is_fair () =
  let proto = Fair_protocols.Opt2.hybrid Func.swap in
  let e =
    estimate ~proto ~adv:(Adv.abort_via_functionality ~round:2 (Adv.Fixed [ 1 ]))
      ~func:Func.swap ~env:env2 ~seed:9 ()
  in
  close ~tol:0.02 "phase-1 abort earns g01 = 0" e.Mc.utility 0.0;
  Alcotest.(check (float 0.011)) "all mass on E01" 1.0 e.Mc.distribution.Utility.p01

let test_opt2_spdz_composition () =
  let proto =
    Fair_protocols.Opt2.spdz ~name:"opt2-spdz-test" ~circuit:Fair_mpc.Circuit.identity2
      ~func:Func.swap
      ~encode_input:(fun ~id:_ s -> [ Field.of_int (int_of_string s) ])
      ~decode_output:(fun ys ->
        Printf.sprintf "%d,%d" (Field.to_int ys.(1)) (Field.to_int ys.(0)))
  in
  let env rng =
    [| string_of_int (Rng.int rng 1000); string_of_int (Rng.int rng 1000) |]
  in
  (* honest run *)
  let o =
    Engine.run ~protocol:proto ~adversary:Adversary.passive ~inputs:[| "3"; "4" |]
      ~rng:(Rng.create ~seed:"comp")
  in
  List.iter
    (fun (id, v) -> Alcotest.(check (option string)) (Printf.sprintf "p%d" id) (Some "4,3") v)
    (Engine.honest_outputs o);
  (* the composed instantiation meets the same bound as the hybrid *)
  let e = estimate ~proto ~adv:(Adv.greedy ~func:Func.swap Adv.Random_party) ~func:Func.swap ~env ~seed:10 () in
  close ~tol:0.1 "composition preserves optimality" e.Mc.utility 0.75

(* ----------------------------- optn ---------------------------------- *)

let test_optn_honest () =
  let func = Func.concat ~n:4 in
  check_all_output (Fair_protocols.Optn.hybrid func) [| "a"; "b"; "c"; "d" |] "a,b,c,d"

let test_optn_per_t () =
  let n = 3 in
  let func = Func.concat ~n in
  let proto = Fair_protocols.Optn.hybrid func in
  let env = Mc.uniform_field_inputs ~n in
  List.iteri
    (fun i adv ->
      let t = i + 1 in
      let e = estimate ~proto ~adv ~func ~env ~seed:(11 + i) () in
      close (Printf.sprintf "optn t=%d" t) e.Mc.utility (Bounds.optn gamma ~n ~t))
    (Adv.greedy_per_t ~func ~n ())

(* Golden regression: the exact trial stream captured before the trial
   fast paths landed.  Every change to the trial path since has been a
   pure refactor of the same computation, so every one of these numbers
   must stay bitwise — a drift here means per-trial randomness or message
   scheduling changed, which silently invalidates every recorded
   experiment table. *)
let test_optn_golden_stream () =
  let func = Func.concat ~n:3 in
  let e =
    Mc.estimate ~jobs:1
      ~protocol:(Fair_protocols.Optn.hybrid func)
      ~adversary:(Adv.greedy ~func (Adv.Random_subset 2))
      ~func ~gamma ~env:(Mc.uniform_field_inputs ~n:3) ~trials:120 ~seed:42 ()
  in
  Alcotest.(check (float 0.0)) "utility" 0.81666666666666665 e.Mc.utility;
  Alcotest.(check (float 0.0)) "std_err" 0.022087594060721583 e.Mc.std_err;
  Alcotest.(check int) "trials" 120 e.Mc.trials;
  Alcotest.(check bool) "event counts" true (e.Mc.counts = [ (Events.E10, 76); (Events.E11, 44) ]);
  Alcotest.(check bool) "corrupted counts" true (e.Mc.corrupted_counts = [ (2, 120) ])

(* --------------------------- gmw-half -------------------------------- *)

let test_gmw_half_honest () =
  let func = Func.concat ~n:5 in
  check_all_output (Fair_protocols.Gmw_half.hybrid func) [| "v"; "w"; "x"; "y"; "z" |] "v,w,x,y,z"

let test_gmw_half_profile () =
  let n = 4 in
  let func = Func.concat ~n in
  let proto = Fair_protocols.Gmw_half.hybrid func in
  let env = Mc.uniform_field_inputs ~n in
  List.iteri
    (fun i adv ->
      let t = i + 1 in
      let e = estimate ~proto ~adv ~func ~env ~seed:(21 + i) () in
      close ~tol:0.02 (Printf.sprintf "gmw t=%d" t) e.Mc.utility (Bounds.gmw_half gamma ~n ~t))
    (Adv.greedy_per_t ~func ~n ())

let test_gmw_threshold () =
  Alcotest.(check int) "n=4" 3 (Fair_protocols.Gmw_half.reconstruction_threshold ~n:4);
  Alcotest.(check int) "n=5" 3 (Fair_protocols.Gmw_half.reconstruction_threshold ~n:5)

(* --------------------------- artificial ------------------------------ *)

let test_artificial_honest () =
  let func = Func.concat ~n:3 in
  check_all_output (Fair_protocols.Artificial.hybrid func) [| "a"; "b"; "c" |] "a,b,c"

let test_artificial_separation () =
  let n = 3 in
  let func = Func.concat ~n in
  let proto = Fair_protocols.Artificial.hybrid func in
  let env = Mc.uniform_field_inputs ~n in
  let e1 = estimate ~proto ~adv:Fair_protocols.Artificial.lemma18_t1 ~func ~env ~seed:31 () in
  close "lemma18 special t=1" e1.Mc.utility (Bounds.artificial_single gamma ~n);
  let e2 = estimate ~proto ~adv:(Adv.greedy ~func (Adv.Random_subset 2)) ~func ~env ~seed:32 () in
  close "lemma18 t=n-1 optimal" e2.Mc.utility (Bounds.optn_best gamma ~n)

(* -------------------------- gordon-katz ------------------------------ *)

let test_gk_honest () =
  let module GK = Fair_protocols.Gordon_katz in
  let func = Func.and_ in
  let variant = GK.poly_domain ~func ~p:2 ~domain1:[ "0"; "1" ] ~domain2:[ "0"; "1" ] in
  let proto = GK.protocol ~func ~variant in
  List.iter
    (fun (x1, x2, y) -> check_all_output proto [| x1; x2 |] y)
    [ ("0", "0", "0"); ("0", "1", "0"); ("1", "0", "0"); ("1", "1", "1") ]

let test_gk_bound () =
  let module GK = Fair_protocols.Gordon_katz in
  let func = Func.and_ in
  let variant = GK.poly_domain ~func ~p:2 ~domain1:[ "0"; "1" ] ~domain2:[ "0"; "1" ] in
  let proto = GK.protocol ~func ~variant in
  let env = Mc.uniform_bit_inputs ~n:2 in
  (* fixed-round aborts by the receiving party stay at or below 1/p *)
  List.iter
    (fun gk_round ->
      let e =
        estimate
          ~overrides:(GK.overrides ~offset:0)
          ~proto
          ~adv:(GK.abort_at_exchange ~target:2 ~gk_round)
          ~func ~env ~gamma:Payoff.zero_one ~seed:(40 + gk_round) ()
      in
      at_most ~tol:0.09 (Printf.sprintf "gk abort@%d" gk_round) e.Mc.utility 0.5)
    [ 1; 2; 5; 8 ];
  (* the sender-side corruption never provokes E10 *)
  let e =
    estimate
      ~overrides:(GK.overrides ~offset:0)
      ~proto
      ~adv:(GK.abort_at_exchange ~target:1 ~gk_round:3)
      ~func ~env ~gamma:Payoff.zero_one ~seed:49 ()
  in
  close ~tol:0.001 "sender abort earns nothing" e.Mc.utility 0.0

let test_gk_range_variant_runs () =
  let module GK = Fair_protocols.Gordon_katz in
  let func = Func.and_ in
  let variant = GK.poly_range ~func ~p:2 ~range:[ "0"; "1" ] in
  let proto = GK.protocol ~func ~variant in
  check_all_output proto [| "1"; "1" |] "1"

(* --------------------------- leaky-and ------------------------------- *)

let test_leaky_and_honest () =
  let module L = Fair_protocols.Leaky_and in
  List.iter
    (fun (x1, x2, y) -> check_all_output L.protocol [| x1; x2 |] y)
    [ ("0", "0", "0"); ("1", "1", "1") ]

let test_leaky_and_leak_rate () =
  let module L = Fair_protocols.Leaky_and in
  let n = 600 in
  let z1 = ref 0 and z2 = ref 0 in
  for i = 0 to n - 1 do
    let r = L.run_z_environments ~seed:i in
    if r.L.z1_accepts then incr z1;
    if r.L.z2_accepts then incr z2
  done;
  close ~tol:0.06 "Pr[Z1]" (float_of_int !z1 /. float_of_int n) 0.25;
  close ~tol:0.06 "Pr[Z2]" (float_of_int !z2 /. float_of_int n) 0.25

(* ---------------------------- coin toss ------------------------------ *)

let test_coin_toss_honest () =
  let module CT = Fair_protocols.Coin_toss in
  (* honest tosses are (empirically) unbiased and agree across parties *)
  let stats = CT.measure_bias ~adversary:Adversary.passive ~trials:600 ~seed:1 in
  Alcotest.(check int) "no aborts" 0 stats.CT.honest_abort;
  (* both parties output, so counts are doubled *)
  Alcotest.(check int) "all accounted" (2 * stats.CT.trials)
    (stats.CT.honest_zero + stats.CT.honest_one);
  let p1 = float_of_int stats.CT.honest_one /. float_of_int (2 * stats.CT.trials) in
  close ~tol:0.07 "unbiased" p1 0.5

let test_coin_toss_cleve_veto () =
  (* Cleve's residual power: the veto adversary cannot flip the coin, but
     conditioned on the honest party outputting at all, the result is
     always the adversary's preference. *)
  let module CT = Fair_protocols.Coin_toss in
  let stats =
    CT.measure_bias ~adversary:(CT.veto_adversary ~target:2 ~want:"0") ~trials:600 ~seed:2
  in
  Alcotest.(check int) "never outputs 1" 0 stats.CT.honest_one;
  let p_abort = float_of_int stats.CT.honest_abort /. float_of_int stats.CT.trials in
  close ~tol:0.07 "vetoes half the tosses" p_abort 0.5;
  close ~tol:0.07 "keeps the other half"
    (float_of_int stats.CT.honest_zero /. float_of_int stats.CT.trials)
    0.5

(* ------------------------- reconstruction ---------------------------- *)

let test_reconstruction_rounds () =
  let proto = Fair_protocols.Opt2.hybrid Func.swap in
  let phase1_end = Fair_mpc.Ideal.release_round in
  let abort_family ~round =
    if round <= phase1_end then
      [ Adv.abort_via_functionality ~round:(min round (phase1_end - 1)) (Adv.Fixed [ 1 ]);
        Adv.abort_via_functionality ~round:(min round (phase1_end - 1)) (Adv.Fixed [ 2 ]) ]
    else [ Adv.abort_at ~round (Adv.Fixed [ 1 ]); Adv.abort_at ~round (Adv.Fixed [ 2 ]) ]
  in
  let profile =
    Reconstruction.analyze ~protocol:proto ~abort_family ~func:Func.swap ~gamma ~env:env2
      ~total_rounds:(Fair_protocols.Opt2.hybrid_rounds - 1) ~trials:150 ~seed:77 ()
  in
  Alcotest.(check int) "two reconstruction rounds" 2 profile.Reconstruction.reconstruction_rounds

(* ----------------------- dummy ideal protocols ------------------------ *)

let test_dummy_fair_is_ideally_fair () =
  let proto = Fair_mpc.Ideal.dummy_protocol_fair Func.swap in
  let _, best =
    Mc.best_response ~protocol:proto
      ~adversaries:(Adv.standard_zoo ~func:Func.swap ~n:2 ~max_round:7 ())
      ~func:Func.swap ~gamma ~env:env2 ~trials:120 ~seed:55 ()
  in
  at_most ~tol:0.02 "fair dummy capped at g11" best.Mc.utility 0.5

let test_dummy_abort_is_unfair () =
  let proto = Fair_mpc.Ideal.dummy_protocol_abort Func.swap in
  (* the functionality-interface attack wins outright... *)
  let e =
    estimate ~proto ~adv:(Adv.grab_and_abort Adv.Random_party) ~func:Func.swap ~env:env2
      ~seed:56 ()
  in
  close ~tol:0.02 "grab-and-abort wins outright" e.Mc.utility 1.0;
  (* ...while protocol-level greediness is capped at completing (g11) *)
  let e =
    estimate ~proto ~adv:(Adv.greedy ~func:Func.swap Adv.Random_party) ~func:Func.swap ~env:env2
      ~seed:57 ()
  in
  close ~tol:0.02 "greedy without the interface completes" e.Mc.utility 0.5

let () =
  Alcotest.run "fair_protocols"
    [ ( "contract",
        [ Alcotest.test_case "honest executions" `Quick test_contract_honest;
          Alcotest.test_case "utilities (pi1 vs pi2)" `Slow test_contract_utilities ] );
      ( "opt2",
        [ Alcotest.test_case "honest execution" `Quick test_opt2_honest;
          Alcotest.test_case "optimal bound attained and respected" `Slow test_opt2_utility;
          Alcotest.test_case "biased index variants" `Slow test_opt2_biased_q;
          Alcotest.test_case "one-round variant is unfair" `Slow test_opt2_one_round_unfair;
          Alcotest.test_case "phase-1 abort stays fair" `Slow test_opt2_abort_phase1_is_fair;
          Alcotest.test_case "SPDZ composition" `Slow test_opt2_spdz_composition ] );
      ( "optn",
        [ Alcotest.test_case "honest execution" `Quick test_optn_honest;
          Alcotest.test_case "per-coalition bounds" `Slow test_optn_per_t;
          Alcotest.test_case "golden trial stream unchanged" `Quick test_optn_golden_stream ] );
      ( "gmw_half",
        [ Alcotest.test_case "honest execution" `Quick test_gmw_half_honest;
          Alcotest.test_case "Lemma 17 profile" `Slow test_gmw_half_profile;
          Alcotest.test_case "reconstruction threshold" `Quick test_gmw_threshold ] );
      ( "artificial",
        [ Alcotest.test_case "honest execution" `Quick test_artificial_honest;
          Alcotest.test_case "Lemma 18 separation" `Slow test_artificial_separation ] );
      ( "gordon_katz",
        [ Alcotest.test_case "honest executions (AND table)" `Quick test_gk_honest;
          Alcotest.test_case "1/p bound" `Slow test_gk_bound;
          Alcotest.test_case "poly-range variant" `Quick test_gk_range_variant_runs ] );
      ( "leaky_and",
        [ Alcotest.test_case "honest executions" `Quick test_leaky_and_honest;
          Alcotest.test_case "leak rate 1/4" `Slow test_leaky_and_leak_rate ] );
      ( "coin_toss",
        [ Alcotest.test_case "honest toss unbiased" `Quick test_coin_toss_honest;
          Alcotest.test_case "Cleve veto bias" `Quick test_coin_toss_cleve_veto ] );
      ( "measures",
        [ Alcotest.test_case "reconstruction rounds = 2" `Slow test_reconstruction_rounds;
          Alcotest.test_case "ideal dummy protocols" `Slow test_dummy_fair_is_ideally_fair;
          Alcotest.test_case "unfair dummy protocol" `Slow test_dummy_abort_is_unfair ] ) ]
