(* `dune build @bench-smoke` — a seconds-scale slice of bench/main.ml's
   sequential-vs-parallel comparison, wired into @repro so every smoke run
   re-proves seven contracts:

   1. Determinism: the pooled estimate must be bit-for-bit the sequential
      one (utility, std_err, event tables).
   2. Allocation: the per-trial minor-heap footprint of the opt2 and optn
      kernels must stay under a budget set ~1.5x above the measured
      steady state, so a regression that reintroduces per-envelope or
      per-trial-setup allocation fails loudly here rather than showing up
      as a silent slowdown.  The E1 race of contract 4 must allocate at
      most 1 200 minor words per play (`mc.trials`; ~882 measured, run
      after an untimed warm-up; the figure repeats exactly).  Playing
      every arm's execution again, as before plays were remembered, costs
      ~1 251; stepping every machine afresh ~1 422.
   3. Pool health: the parallel leg must actually fan out through the pool
      (a batch that silently runs inline would time the sequential path
      and call it "parallel"), and on a multi-core host it must not be
      slower than the sequential leg.  Both legs are timed warm: each runs
      once untimed first, so neither pays the key pool, the worker
      domain's start or its domain-local caches and scratch state.  On a
      single-core host the speedup is noise, the line says so, and only
      the fan-out half is enforced.
   4. Shared work: an E1 race (budget 2000, seed 42, -j 1) must hash at
      most 4 SHA-256 blocks per play and run at most 1 400 engine
      executions for its 1 998 plays.  The racer builds each trial's
      inputs, setup, honest machines and per-play generator splits once
      for all the arms it plays, a machine value remembers every step
      taken from it, so arms and probes that repeat a step reuse its
      result, and arms that play the same keyed strategy on the same
      coalition share one execution (~3.50 blocks per play, 1 290
      executions).  Splitting the adversary's generator afresh for every
      play costs ~4.8 blocks per play, stepping every machine afresh ~6.9,
      and rebuilding the prelude for every arm ~28.6 (and 1 998
      executions), so a change that silently stops any of them fails
      here; ignoring the play keys runs 1 998 executions.  The line
      before it names the SHA-256 kernel that ran: the block count is the
      same on every kernel, the time per block is not.
   5. Signature hashing: an E5 race (budget 2000, seed 42), warmed once so
      the Lamport key pool is built, must hash the same SHA-256 blocks at
      -j 1 and at -j 2, and at most 26 per play (~16.8 measured).  The
      verifier's verdicts live for one prelude, so the count cannot depend
      on which domain played which chunk before; verifying every
      announcement afresh costs ~96 per execution, and rebuilding the
      prelude for every arm ~169 per play.
   6. Registry sharing: E2's registry run (trials 150, seed 42, -j 1),
      whose suprema play every zoo member on one prelude per trial, must
      hash at most 4 SHA-256 blocks per play (~2.76 measured); building
      the prelude once per zoo member again, as each member's own
      estimate did, costs ~9.56.
   7. Cache hits: the reader's whole path for a hit (`Server.hit`: decode,
      resolve, key, probe and the frame it writes), on a perfbench-shaped
      E1 query whose certificate the executor's own `Server.remember`
      stored, must allocate at most 700 minor words per hit (~505
      measured: ~280 decode, 75 key, 24 probe, 82 the stored frame's
      copy; the figure repeats exactly).  Storing the bare body and
      encoding the result on every hit, as before, reads ~1 549. *)

module Mc = Fairness.Montecarlo
module Parallel = Fairness.Parallel
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries

let failures = ref 0

let check name ok detail =
  Printf.printf "bench-smoke: %s %s (%s)\n" (if ok then "ok  " else "FAIL") name detail;
  if not ok then incr failures

(* Per-trial minor words of a sequential estimate, warmed so one-time setup
   (the Lamport key pool, the verifier's domain-local parsed keys) is excluded —
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
  let e1 = Option.get (Fair_analysis.Experiments.find "E1")
  and e5 = Option.get (Fair_analysis.Experiments.find "E5") in
  let race spec ~jobs =
    ignore (Fair_analysis.Experiments.searched ~budget:2000 ~seed:42 ~jobs spec)
  in
  (* Minor words, SHA-256 blocks, plays and executions of one run. *)
  let work run ~jobs =
    Fair_obs.Metrics.reset ();
    Fair_obs.Metrics.enable ();
    let w0 = Gc.minor_words () in
    run ~jobs;
    let words = Gc.minor_words () -. w0 in
    let snap = Fair_obs.Metrics.snapshot () in
    Fair_obs.Metrics.disable ();
    let counter name = List.assoc name snap.Fair_obs.Metrics.counters in
    (words, counter "sha256.blocks", counter "mc.trials", counter "engine.executions")
  in
  race e1 ~jobs:1;
  let words, blocks, plays, execs = work (race e1) ~jobs:1 in
  let per_play x = x /. float_of_int (max 1 plays) in
  check "E1 race minor words per play within budget" (per_play words <= 1200.0)
    (Printf.sprintf "%.0f words / %d plays = %.0f <= 1200" words plays (per_play words));
  check "E1 race SHA-256 blocks per play within budget"
    (per_play (float_of_int blocks) <= 4.0)
    (Printf.sprintf "%d blocks / %d plays = %.2f <= 4" blocks plays
       (per_play (float_of_int blocks)));
  check "E1 race engine executions within budget" (execs <= 1400)
    (Printf.sprintf "%d executions for %d plays <= 1400" execs plays);
  race e5 ~jobs:1;
  let _, blocks1, plays, _ = work (race e5) ~jobs:1 in
  let _, blocks2, _, _ = work (race e5) ~jobs:2 in
  let per_play = float_of_int blocks1 /. float_of_int (max 1 plays) in
  check "E5 race SHA-256 blocks the same at -j 1 and -j 2" (blocks1 = blocks2)
    (Printf.sprintf "%d vs %d blocks" blocks1 blocks2);
  check "E5 race SHA-256 blocks per play within budget" (per_play <= 26.0)
    (Printf.sprintf "%d blocks / %d plays = %.2f <= 26" blocks1 plays per_play);
  let e2 = Option.get (Fair_analysis.Experiments.find "E2") in
  let _, blocks, plays, _ =
    work (fun ~jobs -> ignore (Fair_analysis.Experiments.run e2 ~trials:150 ~seed:42 ~jobs))
      ~jobs:1
  in
  let per_play = float_of_int blocks /. float_of_int (max 1 plays) in
  check "E2 registry SHA-256 blocks per play within budget" (per_play <= 4.0)
    (Printf.sprintf "%d blocks / %d plays = %.2f <= 4" blocks plays per_play);
  let module Proto = Fair_service.Proto in
  let q =
    { Proto.q_kind = Proto.Search; q_experiment = "E1"; q_budget = 2000; q_seed = 123456789;
      q_zoo = false; q_fresh = false; q_trace_id = ""; q_span_id = ""; q_deadline = 0.;
      q_attempt = 0 }
  in
  let key = Proto.cache_key q and cache = Fair_service.Cache.create () in
  (match Fair_service.Handlers.answer ~jobs:1 q with
  | Ok answer -> Fair_service.Server.remember cache ~key answer
  | Error f -> check "E1 certificate for the cache" false (Fair_service.Failure.to_string f));
  let payload = Proto.encode_request (Proto.Query q) in
  let hit () = Fair_service.Server.hit cache payload in
  let served = hit () <> None in
  for _ = 1 to 100 do ignore (hit ()) done;
  let hits = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to hits do ignore (Sys.opaque_identity (hit ())) done;
  let per_hit = (Gc.minor_words () -. w0) /. float_of_int hits in
  check "cache hit minor words within budget" (served && per_hit <= 700.0)
    (Printf.sprintf "%.0f words per hit <= 700%s" per_hit
       (if served then "" else ", but the query missed"));
  if !failures > 0 then begin
    Printf.eprintf "bench-smoke: %d check(s) FAILED\n" !failures;
    exit 1
  end;
  print_endline "bench-smoke: OK"
