(* `dune build @bench-smoke` — a seconds-scale slice of bench/main.ml's
   sequential-vs-parallel comparison, wired into @repro so every smoke run
   re-proves four contracts:

   1. Determinism: the pooled estimate must be bit-for-bit the sequential
      one (utility, std_err, event tables).
   2. Allocation: the per-trial minor-heap footprint of the opt2 and optn
      kernels must stay under a budget set ~1.5x above the measured
      steady state, so a regression that reintroduces per-envelope or
      per-trial-setup allocation fails loudly here rather than showing up
      as a silent slowdown.  The E1 race of contract 4 must allocate at
      most 2 000 minor words per engine execution (~1 378 measured, run
      after an untimed warm-up; the figure repeats exactly): a play that
      builds per-round hash tables or closures, or re-splits its
      generators, again costs ~2 250.
   3. Pool health: the parallel leg must actually fan out through the pool
      (a batch that silently runs inline would time the sequential path
      and call it "parallel"), and on a multi-core host it must not be
      slower than the sequential leg.  Both legs are timed warm: each runs
      once untimed first, so neither pays the key pool, the worker
      domain's start or its domain-local caches and scratch state.  On a
      single-core host the speedup is noise, the line says so, and only
      the fan-out half is enforced.
   4. Shared work: an E1 race (budget 2000, seed 42, -j 1) must hash at
      most 4 SHA-256 blocks per engine execution.  The racer builds each
      trial's inputs, setup, honest machines and per-play generator
      splits once for all the arms it plays, and a machine value
      remembers every step taken from it, so arms and probes that repeat
      a step reuse its result (~3.6 blocks per execution).  Splitting the
      adversary's generator afresh for every play costs ~4.5, stepping
      every machine afresh ~10.7, and rebuilding the prelude for every
      arm ~30, so a change that silently stops any of them fails here.
      The line before it names the SHA-256 kernel that ran: the block
      count is the same on every kernel, the time per block is not. *)

module Mc = Fairness.Montecarlo
module Parallel = Fairness.Parallel
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries

let failures = ref 0

let check name ok detail =
  Printf.printf "bench-smoke: %s %s (%s)\n" (if ok then "ok  " else "FAIL") name detail;
  if not ok then incr failures

(* Per-trial minor words of a sequential estimate, warmed so one-time setup
   (the Lamport key pool, the domain-local verifier caches) is excluded —
   the budget is about the steady-state trial loop. *)
let minor_words_per_trial ~protocol ~adversary ~func ~env ~trials =
  let run seed =
    ignore
      (Mc.estimate ~jobs:1 ~protocol ~adversary ~func ~gamma:Fairness.Payoff.default ~env
         ~trials ~seed ())
  in
  run 7;
  let w0 = Gc.minor_words () in
  run 8;
  (Gc.minor_words () -. w0) /. float_of_int trials

let () =
  let swap = Func.concat ~n:5 in
  let protocol = Fair_protocols.Optn.hybrid swap in
  let adversary = Adv.greedy ~func:swap (Adv.Random_subset 4) in
  let trials = 300 in
  let estimate ~jobs =
    Mc.estimate ~jobs ~protocol ~adversary ~func:swap ~gamma:Fairness.Payoff.default
      ~env:(Mc.uniform_field_inputs ~n:5) ~trials ~seed:42 ()
  in
  let wall f =
    let t0 = Fair_obs.Clock.now_ns () in
    let r = f () in
    (r, Fair_obs.Clock.elapsed_s ~since_ns:t0)
  in
  let avail = Parallel.default_jobs in
  let degraded = avail < 2 in
  let jobs = max 2 avail in
  ignore (estimate ~jobs:1);
  ignore (estimate ~jobs);
  let e_seq, t_seq = wall (fun () -> estimate ~jobs:1) in
  let s_par0 = Parallel.pool_stats () in
  let e_par, t_par = wall (fun () -> estimate ~jobs) in
  let s_par1 = Parallel.pool_stats () in
  let bit_identical =
    e_seq.Mc.utility = e_par.Mc.utility
    && e_seq.Mc.std_err = e_par.Mc.std_err
    && e_seq.Mc.counts = e_par.Mc.counts
    && e_seq.Mc.corrupted_counts = e_par.Mc.corrupted_counts
  in
  Printf.printf
    "bench-smoke: %d trials, seq %.3fs vs pool(jobs=%d) %.3fs, speedup %.2fx%s, workers spawned %d\n"
    trials t_seq jobs t_par (t_seq /. t_par)
    (if degraded then " (degraded: 1 core, speedup is noise)" else "")
    s_par1.Parallel.spawned;
  check "pooled run bit-identical to sequential" bit_identical
    (Printf.sprintf "u %.17g vs %.17g" e_seq.Mc.utility e_par.Mc.utility);
  check "parallel leg fanned out through the pool"
    (s_par1.Parallel.pooled_batches > s_par0.Parallel.pooled_batches)
    (Printf.sprintf "pooled batches +%d, inline +%d"
       (s_par1.Parallel.pooled_batches - s_par0.Parallel.pooled_batches)
       (s_par1.Parallel.inline_batches - s_par0.Parallel.inline_batches));
  if degraded then
    print_endline "bench-smoke: skip pooled-throughput guard (single-core host)"
  else
    check "pooled leg not slower than sequential" (t_par <= t_seq)
      (Printf.sprintf "seq %.3fs, pool %.3fs" t_seq t_par);
  (* Allocation budgets: measured (see DESIGN.md §10) at ~12.2k words/trial
     for optn-n5/t4 and ~5.6k for opt2; ~1.5x headroom tolerates
     compiler/stdlib drift but not a reintroduced per-envelope allocation
     path (which costs several multiples). *)
  let optn_words =
    minor_words_per_trial ~protocol ~adversary ~func:swap
      ~env:(Mc.uniform_field_inputs ~n:5) ~trials:200
  in
  check "optn-n5 minor words per trial within budget" (optn_words <= 20_000.0)
    (Printf.sprintf "%.0f <= 20000" optn_words);
  let opt2_words =
    minor_words_per_trial ~protocol:(Fair_protocols.Opt2.hybrid Func.swap)
      ~adversary:(Adv.greedy ~func:Func.swap Adv.Random_party) ~func:Func.swap
      ~env:(Mc.uniform_field_inputs ~n:2) ~trials:200
  in
  check "opt2 minor words per trial within budget" (opt2_words <= 9_500.0)
    (Printf.sprintf "%.0f <= 9500" opt2_words);
  Printf.printf "bench-smoke: sha256 kernel %s\n" Fair_crypto.Sha256.kernel;
  let e1 = Option.get (Fair_analysis.Experiments.find "E1") in
  let race () = ignore (Fair_analysis.Experiments.searched ~budget:2000 ~seed:42 ~jobs:1 e1) in
  let counter name snap = List.assoc name snap.Fair_obs.Metrics.counters in
  race ();
  Fair_obs.Metrics.reset ();
  Fair_obs.Metrics.enable ();
  let w0 = Gc.minor_words () in
  race ();
  let words = Gc.minor_words () -. w0 in
  let snap = Fair_obs.Metrics.snapshot () in
  Fair_obs.Metrics.disable ();
  let blocks = counter "sha256.blocks" snap and execs = counter "engine.executions" snap in
  let per_exec x = x /. float_of_int (max 1 execs) in
  check "E1 race minor words per execution within budget" (per_exec words <= 2000.0)
    (Printf.sprintf "%.0f words / %d executions = %.0f <= 2000" words execs (per_exec words));
  check "E1 race SHA-256 blocks per execution within budget"
    (per_exec (float_of_int blocks) <= 4.0)
    (Printf.sprintf "%d blocks / %d executions = %.2f <= 4" blocks execs
       (per_exec (float_of_int blocks)));
  if !failures > 0 then begin
    Printf.eprintf "bench-smoke: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "bench-smoke: OK"
