(* Tests for the Monte-Carlo engine: the determinism guarantee of the
   domain-parallel path (same seed => bit-identical numbers at any job
   count) and the Bessel-corrected standard error. *)

open Fairness
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries
module Mc = Montecarlo

let swap = Func.swap
let proto = Fair_protocols.Opt2.hybrid swap
let greedy = Adv.greedy ~func:swap Adv.Random_party

let estimate ?jobs ~trials ~seed () =
  Mc.estimate ?jobs ~protocol:proto ~adversary:greedy ~func:swap
    ~gamma:Payoff.default ~env:(Mc.uniform_field_inputs ~n:2) ~trials ~seed ()

let check_identical label (a : Mc.estimate) (b : Mc.estimate) =
  (* Float equality is deliberate: the guarantee is bit-identity, not
     approximate agreement. *)
  Alcotest.(check (float 0.0)) (label ^ ": utility") a.Mc.utility b.Mc.utility;
  Alcotest.(check (float 0.0)) (label ^ ": std_err") a.Mc.std_err b.Mc.std_err;
  Alcotest.(check int) (label ^ ": trials") a.Mc.trials b.Mc.trials;
  Alcotest.(check int) (label ^ ": breaches") a.Mc.breaches b.Mc.breaches;
  Alcotest.(check bool) (label ^ ": counts") true (a.Mc.counts = b.Mc.counts);
  Alcotest.(check bool) (label ^ ": corrupted_counts") true
    (a.Mc.corrupted_counts = b.Mc.corrupted_counts)

(* (a) the job count never changes the numbers — including a trial count
   that is not a multiple of the internal chunk size. *)
let test_jobs_invariance () =
  let trials = 300 in
  let e1 = estimate ~jobs:1 ~trials ~seed:7 () in
  let e4 = estimate ~jobs:4 ~trials ~seed:7 () in
  let e9 = estimate ~jobs:9 ~trials ~seed:7 () in
  check_identical "jobs 1 vs 4" e1 e4;
  check_identical "jobs 1 vs 9" e1 e9

(* (b) the reported std_err is the Bessel-corrected sample standard error.
   Payoffs are a function of the event, so the hand computation can be done
   from the reported event counts. *)
let recomputed_std_err (e : Mc.estimate) (gamma : Payoff.t) =
  let payoff = function
    | Events.E00 -> gamma.Payoff.g00
    | Events.E01 -> gamma.Payoff.g01
    | Events.E10 -> gamma.Payoff.g10
    | Events.E11 -> gamma.Payoff.g11
  in
  let n = float_of_int e.Mc.trials in
  let sum = List.fold_left (fun a (ev, c) -> a +. (payoff ev *. float_of_int c)) 0.0 e.Mc.counts in
  let mean = sum /. n in
  let m2 =
    List.fold_left
      (fun a (ev, c) ->
        let d = payoff ev -. mean in
        a +. (float_of_int c *. d *. d))
      0.0 e.Mc.counts
  in
  sqrt (m2 /. (n -. 1.0) /. n)

let test_bessel_corrected_std_err () =
  (* Tiny sample, where /n vs /(n-1) differs by several percent. *)
  let e = estimate ~jobs:1 ~trials:12 ~seed:19 () in
  let expected = recomputed_std_err e Payoff.default in
  Alcotest.(check bool) "sample has both event kinds" true (List.length e.Mc.counts >= 2);
  Alcotest.(check (float 1e-12)) "std_err = sqrt(M2/(n-1)/n)" expected e.Mc.std_err;
  (* and the same at a larger, chunk-crossing size on the parallel path *)
  let e = estimate ~jobs:3 ~trials:200 ~seed:19 () in
  Alcotest.(check (float 1e-12)) "parallel std_err matches hand computation"
    (recomputed_std_err e Payoff.default) e.Mc.std_err

let test_counts_sorted () =
  let e = estimate ~jobs:4 ~trials:200 ~seed:23 () in
  let sorted l = List.sort compare l = l in
  Alcotest.(check bool) "event counts sorted" true (sorted (List.map fst e.Mc.counts));
  Alcotest.(check bool) "corrupted counts sorted" true
    (sorted (List.map fst e.Mc.corrupted_counts));
  Alcotest.(check int) "counts total = trials" e.Mc.trials
    (List.fold_left (fun a (_, c) -> a + c) 0 e.Mc.counts)

let test_single_trial_std_err () =
  let e = estimate ~jobs:1 ~trials:1 ~seed:2 () in
  Alcotest.(check (float 0.0)) "n=1 has no sample variance" 0.0 e.Mc.std_err

let test_best_response_jobs_invariance () =
  let zoo = [ Adv.greedy ~func:swap (Adv.Fixed [ 1 ]); Adv.greedy ~func:swap (Adv.Fixed [ 2 ]) ] in
  let run jobs =
    Mc.best_response ~jobs ~protocol:proto ~adversaries:zoo ~func:swap ~gamma:Payoff.default
      ~env:(Mc.uniform_field_inputs ~n:2) ~trials:150 ~seed:31 ()
  in
  let a1, e1 = run 1 and a4, e4 = run 4 in
  Alcotest.(check string) "same winning strategy" a1.Adversary.name a4.Adversary.name;
  check_identical "best_response jobs 1 vs 4" e1 e4

(* The zoo plays on one prelude per trial, yet every member's estimate is
   its own: the progress points (one per member, in zoo order) carry each
   member's solo utility, and the winner's estimate is its solo estimate
   bit for bit.  [greedy] (a random party) shares its plays with the fixed
   coalition it draws. *)
let test_best_response_members_are_solo () =
  let fixed c = Adv.greedy ~func:swap (Adv.Fixed [ c ]) in
  let zoo = [ fixed 1; greedy; fixed 2 ] in
  let env = Mc.uniform_field_inputs ~n:2 in
  let solo adversary =
    Mc.estimate ~jobs:2 ~protocol:proto ~adversary ~func:swap ~gamma:Payoff.default ~env
      ~trials:150 ~seed:31 ()
  in
  let points = ref [] in
  let scope = Fair_obs.Scope.create ~args:[] ~sink:(fun p -> points := p :: !points) in
  let best, e =
    Fair_obs.Scope.within (Some scope) (fun () ->
        Mc.best_response ~jobs:2 ~protocol:proto ~adversaries:zoo ~func:swap
          ~gamma:Payoff.default ~env ~trials:150 ~seed:31 ())
  in
  check_identical "winner = its solo estimate" (solo best) e;
  Alcotest.(check (list (float 0.0))) "one progress point per member, in zoo order"
    (List.map (fun a -> (solo a).Mc.utility) zoo)
    (List.rev_map (fun p -> p.Fair_obs.Scope.running_mean) !points)

let test_parallel_map_range () =
  let squares = Parallel.map_range ~jobs:3 ~chunk_size:4 ~lo:0 ~hi:10 (fun ~lo ~hi ->
      List.init (hi - lo) (fun i -> (lo + i) * (lo + i)))
  in
  Alcotest.(check (list int)) "chunk-ordered results" (List.init 10 (fun i -> i * i))
    (List.concat squares);
  Alcotest.(check bool) "empty range" true (Parallel.map_range ~jobs:2 ~chunk_size:8 ~lo:5 ~hi:5 (fun ~lo:_ ~hi:_ -> ()) = []);
  Alcotest.(check (list int)) "one-element chunks in order" [ 2; 4; 6 ]
    (Parallel.map_range ~jobs:2 ~chunk_size:1 ~lo:1 ~hi:4 (fun ~lo ~hi:_ -> 2 * lo))

let test_parallel_exception () =
  match
    Parallel.map_range ~jobs:2 ~chunk_size:1 ~lo:0 ~hi:4 (fun ~lo ~hi:_ ->
        if lo = 2 then failwith "boom" else lo)
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure m -> Alcotest.(check string) "exception propagates" "boom" m

let () =
  Alcotest.run "montecarlo"
    [ ( "parallel",
        [ Alcotest.test_case "map_range splits and orders" `Quick test_parallel_map_range;
          Alcotest.test_case "worker exceptions propagate" `Quick test_parallel_exception ] );
      ( "determinism",
        [ Alcotest.test_case "estimate is jobs-invariant" `Slow test_jobs_invariance;
          Alcotest.test_case "best_response is jobs-invariant" `Slow
            test_best_response_jobs_invariance;
          Alcotest.test_case "best_response members are solo estimates" `Quick
            test_best_response_members_are_solo;
          Alcotest.test_case "count lists are sorted" `Quick test_counts_sorted ] );
      ( "variance",
        [ Alcotest.test_case "Bessel-corrected std_err" `Quick test_bessel_corrected_std_err;
          Alcotest.test_case "n=1 std_err is 0" `Quick test_single_trial_std_err ] ) ]
