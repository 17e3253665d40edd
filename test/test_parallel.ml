(* Tests for the persistent domain pool behind Fairness.Parallel: worker
   reuse across calls, ordering and exception semantics, nesting safety,
   and the determinism contract that Monte-Carlo estimates are bit-identical
   at any job count. *)

module Parallel = Fairness.Parallel
module Mc = Fairness.Montecarlo
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries

(* ------------------------- basic semantics -------------------------- *)

(* One pool task per element: [map_range] with chunks of one. *)
let map_tasks ~jobs f xs =
  let arr = Array.of_list xs in
  Parallel.map_range ~jobs ~chunk_size:1 ~lo:0 ~hi:(Array.length arr) (fun ~lo ~hi:_ ->
      f arr.(lo))

let test_map_range_order () =
  let chunks = Parallel.map_range ~jobs:4 ~chunk_size:10 ~lo:3 ~hi:47 (fun ~lo ~hi -> (lo, hi)) in
  Alcotest.(check (list (pair int int)))
    "chunk boundaries depend only on the range"
    [ (3, 13); (13, 23); (23, 33); (33, 43); (43, 47) ]
    chunks;
  Alcotest.(check (list (pair int int))) "empty range" [] (Parallel.map_range ~jobs:4 ~chunk_size:10 ~lo:5 ~hi:5 (fun ~lo ~hi -> (lo, hi)));
  Alcotest.check_raises "chunk_size < 1"
    (Invalid_argument "Parallel.map_range: chunk_size < 1") (fun () ->
      ignore (Parallel.map_range ~jobs:2 ~chunk_size:0 ~lo:0 ~hi:1 (fun ~lo:_ ~hi:_ -> ())))

let test_task_order () =
  let xs = List.init 100 (fun i -> i) in
  Alcotest.(check (list int)) "input order at jobs=4"
    (List.map (fun i -> i * i) xs)
    (map_tasks ~jobs:4 (fun i -> i * i) xs);
  Alcotest.(check (list int)) "zero tasks" [] (map_tasks ~jobs:4 (fun i -> i) [])

let test_jobs_agree () =
  let f i = (i * 7919) mod 101 in
  let xs = List.init 257 (fun i -> i) in
  let seq = map_tasks ~jobs:1 f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        seq
        (map_tasks ~jobs f xs))
    [ 2; 4; 16 ]

(* ------------------------- pool lifecycle --------------------------- *)

let test_pool_reuse () =
  (* Force a parallel call so workers exist, then check repeated calls do
     not spawn more: domains are pooled, not per-call. *)
  ignore (map_tasks ~jobs:4 (fun i -> i) (List.init 32 (fun i -> i)));
  let after_first = (Parallel.pool_stats ()).Parallel.spawned in
  (* Earlier tests may already have grown the pool (spawns are cumulative
     and monotone), so only a lower bound is meaningful here. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least one worker spawned (%d)" after_first)
    true (after_first >= 1);
  for _ = 1 to 50 do
    ignore (map_tasks ~jobs:4 (fun i -> i + 1) (List.init 32 (fun i -> i)))
  done;
  Alcotest.(check int) "50 more calls spawn nothing" after_first
    (Parallel.pool_stats ()).Parallel.spawned

exception Boom of int

let test_exception_propagates () =
  (* The first failing task in task order wins, and the pool survives to
     serve later calls. *)
  (try
     ignore
       (map_tasks ~jobs:4
          (fun i -> if i mod 3 = 1 then raise (Boom i) else i)
          (List.init 64 (fun i -> i)));
     Alcotest.fail "expected Boom"
   with Boom i -> Alcotest.(check int) "first failing task" 1 i);
  Alcotest.(check (list int)) "pool usable after failure"
    [ 0; 2; 4 ]
    (map_tasks ~jobs:4 (fun i -> 2 * i) [ 0; 1; 2 ])

let test_failing_task_runs_once () =
  (* Tasks are deterministic, so a raising task is never re-run: the batch
     raises, and every task, the failing one included, ran exactly once. *)
  let n = 8 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  (match
     map_tasks ~jobs:4
       (fun i ->
         Atomic.incr runs.(i);
         if i = 3 then raise (Boom i) else i)
       (List.init n (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "the failing task's exception" 3 i);
  Alcotest.(check (list int)) "every task ran once" (List.init n (fun _ -> 1))
    (Array.to_list (Array.map Atomic.get runs))

let test_nested_no_deadlock () =
  (* A task that itself calls [map_range] must not wait on the pool it is
     running inside — the inner call degrades to the calling domain. *)
  let r =
    map_tasks ~jobs:4
      (fun i ->
        List.fold_left ( + ) 0 (map_tasks ~jobs:4 (fun j -> (i * 10) + j) [ 0; 1; 2 ]))
      (List.init 16 (fun i -> i))
  in
  Alcotest.(check (list int)) "nested results"
    (List.init 16 (fun i -> (3 * 10 * i) + 3))
    r

(* --------------------- Monte-Carlo determinism ---------------------- *)

let estimate ~jobs () =
  let func = Func.concat ~n:3 in
  Mc.estimate ~jobs ~protocol:(Fair_protocols.Optn.hybrid func)
    ~adversary:(Adv.greedy ~func (Adv.Random_subset 2))
    ~func ~gamma:Fairness.Payoff.default
    ~env:(Mc.uniform_field_inputs ~n:3) ~trials:200 ~seed:11 ()

let check_estimates_equal name a b =
  Alcotest.(check (float 0.0)) (name ^ ": utility") a.Mc.utility b.Mc.utility;
  Alcotest.(check (float 0.0)) (name ^ ": std_err") a.Mc.std_err b.Mc.std_err;
  Alcotest.(check int) (name ^ ": trials") a.Mc.trials b.Mc.trials;
  Alcotest.(check bool) (name ^ ": counts") true (a.Mc.counts = b.Mc.counts);
  Alcotest.(check bool)
    (name ^ ": corrupted_counts")
    true
    (a.Mc.corrupted_counts = b.Mc.corrupted_counts)

let test_estimate_jobs_invariant () =
  let e1 = estimate ~jobs:1 () in
  check_estimates_equal "jobs=4" e1 (estimate ~jobs:4 ());
  check_estimates_equal "jobs=16" e1 (estimate ~jobs:16 ())

(* Golden estimate, captured from the pre-pool, pre-unboxed-SHA engine:
   locks the whole pipeline (seed derivation, PRG streams, chunk merge)
   across the rewrite, at every job count. *)
let test_estimate_golden () =
  List.iter
    (fun jobs ->
      let e =
        Mc.estimate ~jobs ~protocol:(Fair_protocols.Opt2.hybrid Func.swap)
          ~adversary:(Adv.greedy ~func:Func.swap Adv.Random_party)
          ~func:Func.swap ~gamma:Fairness.Payoff.default
          ~env:(Mc.uniform_field_inputs ~n:2) ~trials:200 ~seed:7 ()
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "utility at jobs=%d" jobs)
        0.73499999999999999 e.Mc.utility;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "std_err at jobs=%d" jobs)
        0.017690101709500212 e.Mc.std_err)
    [ 1; 4 ]

let () =
  Alcotest.run "fair_parallel"
    [ ( "semantics",
        [ Alcotest.test_case "map_range chunking + order" `Quick test_map_range_order;
          Alcotest.test_case "single-task chunks keep task order" `Quick test_task_order;
          Alcotest.test_case "all job counts agree" `Quick test_jobs_agree ] );
      ( "pool",
        [ Alcotest.test_case "workers reused across calls" `Quick test_pool_reuse;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "a failing task runs once" `Quick test_failing_task_runs_once;
          Alcotest.test_case "nested calls do not deadlock" `Quick test_nested_no_deadlock ] );
      ( "determinism",
        [ Alcotest.test_case "estimate bit-identical across jobs" `Quick
            test_estimate_jobs_invariant;
          Alcotest.test_case "golden estimate (pre-pool value)" `Quick test_estimate_golden ] ) ]
