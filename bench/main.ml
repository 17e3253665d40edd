(* The benchmark harness.

   Part 1 races the sequential Monte-Carlo path against the pooled one on
   the same seed, and Part 2 times one budgeted E2 search.  Part 3 times
   the building blocks and one execution kernel per experiment with
   Bechamel, so performance regressions in the substrate (field ops,
   hashing, sharing, the engine, SPDZ rounds) are visible.  The paper
   tables are [fairness all]'s job and the service is perfbench's, so
   neither runs here.

     dune exec bench/main.exe -- [-o PATH] *)

open Bechamel
open Toolkit
module E = Fair_analysis.Experiments
module Engine = Fair_exec.Engine
module Adversary = Fair_exec.Adversary
module Rng = Fair_crypto.Rng
module Field = Fair_field.Field
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries

(* ------------------------------------------------------------------ *)
(* Part 1: sequential vs parallel Monte-Carlo throughput               *)
(* ------------------------------------------------------------------ *)

(* The domain-parallel estimate kernel, head to head with the sequential
   path on the same seed: the utilities must agree bit-for-bit (the
   determinism guarantee of Fairness.Montecarlo) while the wall clock
   shrinks with the core count. *)
type mc_comparison = {
  mc_jobs : int;
  mc_trials : int;
  seq_seconds : float;
  par_seconds : float;
  seq_trials_per_s : float;
  par_trials_per_s : float;
  speedup : float;
  bit_identical : bool;
  degraded : bool;
      (* the host exposes a single core, so the "parallel" leg cannot
         demonstrate a real speedup; consumers should not gate on it *)
  par_pooled_batches : int;
      (* pool batches the parallel leg actually fanned out — 0 means the
         "parallel" timing never left the calling domain *)
  par_inline_batches : int;  (* parallel-leg batches that degraded inline *)
}

module Pl = Fairness.Parallel

let run_parallel_comparison () =
  let module Mc = Fairness.Montecarlo in
  let swap = Func.concat ~n:5 in
  let protocol = Fair_protocols.Optn.hybrid swap in
  let adversary = Adv.greedy ~func:swap (Adv.Random_subset 4) in
  let trials = 1500 in
  let estimate ~jobs =
    Mc.estimate ~jobs ~protocol ~adversary ~func:swap ~gamma:Fairness.Payoff.default
      ~env:(Mc.uniform_field_inputs ~n:5) ~trials ~seed:42 ()
  in
  (* Monotonic clock (Fair_obs.Clock): wall-clock (gettimeofday) is subject
     to NTP steps, which can corrupt a seconds-scale interval. *)
  let wall f =
    let t0 = Fair_obs.Clock.now_ns () in
    let r = f () in
    (r, Fair_obs.Clock.elapsed_s ~since_ns:t0)
  in
  (* On a single-core host the old [jobs = default_jobs] comparison timed
     the sequential path against itself and reported its own noise as a
     "speedup".  Force the parallel leg to at least two domains — the
     pooled path with its real coordination cost — and flag the run as
     degraded so downstream consumers know the speedup number carries no
     signal here. *)
  let avail = Fairness.Parallel.default_jobs in
  let degraded = avail < 2 in
  let jobs = max 2 avail in
  Printf.printf
    "=== Monte-Carlo engine: sequential vs parallel (%d domain%s available%s) ===\n\n"
    avail
    (if avail = 1 then "" else "s")
    (if degraded then "; DEGRADED: single core, speedup not meaningful" else "");
  (* Warm both legs untimed: the sequential one pays the Lamport key pool
     and the allocator, the pooled one the worker domain's start and its
     domain-local caches. *)
  ignore (estimate ~jobs:1);
  ignore (estimate ~jobs);
  let e_seq, t_seq = wall (fun () -> estimate ~jobs:1) in
  let s0 = Pl.pool_stats () in
  let e_par, t_par = wall (fun () -> estimate ~jobs) in
  let s1 = Pl.pool_stats () in
  let pooled = s1.Pl.pooled_batches - s0.Pl.pooled_batches
  and inline = s1.Pl.inline_batches - s0.Pl.inline_batches in
  let throughput t = float_of_int trials /. t in
  let bit_identical =
    e_seq.Mc.utility = e_par.Mc.utility
    && e_seq.Mc.std_err = e_par.Mc.std_err
    && e_seq.Mc.counts = e_par.Mc.counts
    && e_seq.Mc.corrupted_counts = e_par.Mc.corrupted_counts
  in
  Printf.printf "  jobs=1   %7.2f s   %8.0f trials/s   u = %.6f\n" t_seq (throughput t_seq)
    e_seq.Mc.utility;
  Printf.printf "  jobs=%-2d  %7.2f s   %8.0f trials/s   u = %.6f\n" jobs t_par
    (throughput t_par) e_par.Mc.utility;
  Printf.printf "  speedup: %.2fx   bit-identical: %b%s\n" (t_seq /. t_par) bit_identical
    (if degraded then "   (degraded: 1 core)" else "");
  Printf.printf "  parallel leg: %d pooled batch(es), %d inline\n" pooled inline;
  if pooled = 0 then
    print_endline "  WARNING: parallel leg never reached the pool — timing is sequential";
  if (not degraded) && inline > 0 then
    print_endline "  WARNING: parallel-leg batches degraded inline on a multi-core host";
  print_newline ();
  { mc_jobs = jobs;
    mc_trials = trials;
    seq_seconds = t_seq;
    par_seconds = t_par;
    seq_trials_per_s = throughput t_seq;
    par_trials_per_s = throughput t_par;
    speedup = t_seq /. t_par;
    bit_identical;
    degraded;
    par_pooled_batches = pooled;
    par_inline_batches = inline }

(* ------------------------------------------------------------------ *)
(* Part 2: best-response search                                        *)
(* ------------------------------------------------------------------ *)

(* The search kernel the service actually serves: a budgeted E2 race with
   the zoo aboard, on the paired racer.  Its comparison is the committed
   snapshot: spend, winner and utility are deterministic in (budget, seed),
   so any drift against BENCH_mc.json is a change in the racer.  Run inside
   the metrics window so the race.* counters appear in BENCH_mc.json with
   real traffic behind them.  Returns the certificate and its wall time. *)
let run_search_bench () =
  let module C = Fair_search.Certificate in
  print_endline "=== Best-response search: paired racer (E2) ===\n";
  let spec = match E.find "E2" with Some s -> s | None -> assert false in
  let jobs = Fairness.Parallel.default_jobs in
  let t0 = Fair_obs.Clock.now_ns () in
  let c =
    match E.searched ~budget:3000 ~zoo:true ~seed:42 ~jobs spec with
    | Some c -> c
    | None -> assert false
  in
  let seconds = Fair_obs.Clock.elapsed_s ~since_ns:t0 in
  Printf.printf "  budget %5d  spent %5d  %6.2f s  best %-22s u = %.4f ±%.4f\n\n" c.C.budget
    c.C.spent seconds c.C.best_arm c.C.utility c.C.std_err;
  (c, seconds)

(* ------------------------------------------------------------------ *)
(* Part 3: timing kernels                                              *)
(* ------------------------------------------------------------------ *)

let counter = ref 0

let fresh_rng () =
  incr counter;
  Rng.of_int_seed !counter

(* --- substrate micro-benchmarks --- *)

let bench_field_mul =
  Test.make ~name:"field/mul"
    (Staged.stage (fun () -> ignore (Field.mul (Field.of_int 123456789) (Field.of_int 987654321))))

let bench_field_inv =
  Test.make ~name:"field/inv" (Staged.stage (fun () -> ignore (Field.inv (Field.of_int 123456789))))

let bench_sha256 =
  let msg = String.make 256 'x' in
  Test.make ~name:"crypto/sha256-256B"
    (Staged.stage (fun () -> ignore (Fair_crypto.Sha256.digest msg)))

(* --- observability overhead: the disabled-hook fast path --- *)

(* The same 256-byte digest as crypto/sha256-256B, but routed through a
   disabled span / a disabled counter.  Comparing these rows against the
   bare kernel quantifies what observability costs when it is off — the
   acceptance bar is <2% on this kernel class, cheap enough to leave the
   hooks in the hottest paths unconditionally. *)
let bench_sha256_span_disabled =
  let msg = String.make 256 'x' in
  Test.make ~name:"obs/sha256-256B-span-disabled"
    (Staged.stage (fun () ->
         Fair_obs.Trace.with_span ~cat:"bench" "obs.overhead" (fun () ->
             ignore (Fair_crypto.Sha256.digest msg))))

let obs_overhead_counter = Fair_obs.Metrics.counter "bench.obs_overhead"

let bench_sha256_counter_disabled =
  let msg = String.make 256 'x' in
  Test.make ~name:"obs/sha256-256B-counter-disabled"
    (Staged.stage (fun () ->
         Fair_obs.Metrics.incr obs_overhead_counter;
         ignore (Fair_crypto.Sha256.digest msg)))

let bench_hmac =
  Test.make ~name:"crypto/hmac"
    (Staged.stage (fun () -> ignore (Fair_crypto.Hmac.mac ~key:"key" "message")))

let bench_lamport_sign =
  let sk, _ = Fair_crypto.Signature.Lamport.keygen (Rng.of_int_seed 7) in
  Test.make ~name:"crypto/lamport-sign"
    (Staged.stage (fun () -> ignore (Fair_crypto.Signature.Lamport.sign sk "y")))

let bench_lamport_verify =
  let sk, pk = Fair_crypto.Signature.Lamport.keygen (Rng.of_int_seed 8) in
  let s = Fair_crypto.Signature.Lamport.sign sk "y" in
  Test.make ~name:"crypto/lamport-verify"
    (Staged.stage (fun () -> ignore (Fair_crypto.Signature.Lamport.verify pk "y" s)))

let bench_shamir =
  Test.make ~name:"sharing/shamir-deal+reconstruct-3of5"
    (Staged.stage (fun () ->
         let g = fresh_rng () in
         let shares = Fair_sharing.Shamir.share g ~threshold:3 ~n:5 (Field.of_int 4242) in
         ignore (Fair_sharing.Shamir.reconstruct [ shares.(0); shares.(2); shares.(4) ])))

let bench_auth_share =
  let secret = Field.encode_string "a-sixteen-byte-s" in
  Test.make ~name:"sharing/auth-2of2-deal+reconstruct"
    (Staged.stage (fun () ->
         let g = fresh_rng () in
         let s1, s2 = Fair_sharing.Auth_share.share g secret in
         ignore (Fair_sharing.Auth_share.reconstruct_shares s1 s2)))

(* --- one execution kernel per experiment --- *)

let one_run protocol adversary inputs =
  Staged.stage (fun () ->
      ignore (Engine.run ~protocol ~adversary ~inputs ~rng:(fresh_rng ())))

let bench_e1_pi1 =
  Test.make ~name:"E1/pi1-vs-greedy"
    (one_run Fair_protocols.Contract.pi1
       (Adv.greedy ~func:Func.contract (Adv.Fixed [ 2 ]))
       [| "sigA"; "sigB" |])

let bench_e1_pi2 =
  Test.make ~name:"E1/pi2-vs-greedy"
    (one_run Fair_protocols.Contract.pi2
       (Adv.greedy ~func:Func.contract Adv.Random_party)
       [| "sigA"; "sigB" |])

let bench_e2_opt2 =
  Test.make ~name:"E2-E3/opt2-vs-Agen"
    (one_run (Fair_protocols.Opt2.hybrid Func.swap)
       (Adv.greedy ~func:Func.swap Adv.Random_party)
       [| "x1"; "x2" |])

let bench_e4_one_round =
  Test.make ~name:"E4/opt2-one-round-vs-greedy"
    (one_run (Fair_protocols.Opt2.one_round_variant Func.swap)
       (Adv.greedy ~func:Func.swap Adv.Random_party)
       [| "x1"; "x2" |])

let bench_e5_optn =
  let func = Func.concat ~n:5 in
  Test.make ~name:"E5-E7/optn-n5-vs-greedy-t4"
    (one_run (Fair_protocols.Optn.hybrid func)
       (Adv.greedy ~func (Adv.Random_subset 4))
       [| "a"; "b"; "c"; "d"; "e" |])

let bench_e8_gmw =
  let func = Func.concat ~n:4 in
  Test.make ~name:"E8/gmw-half-n4-vs-greedy-t2"
    (one_run (Fair_protocols.Gmw_half.hybrid func)
       (Adv.greedy ~func (Adv.Random_subset 2))
       [| "a"; "b"; "c"; "d" |])

let bench_e9_artificial =
  let func = Func.concat ~n:3 in
  Test.make ~name:"E9/artificial-n3-vs-lemma18-t1"
    (one_run (Fair_protocols.Artificial.hybrid func) Fair_protocols.Artificial.lemma18_t1
       [| "a"; "b"; "c" |])

let bench_e11_gk =
  let module GK = Fair_protocols.Gordon_katz in
  let func = Func.and_ in
  let variant = GK.poly_domain ~func ~p:4 ~domain1:[ "0"; "1" ] ~domain2:[ "0"; "1" ] in
  Test.make ~name:"E11/gk-p4-vs-abort"
    (one_run (GK.protocol ~func ~variant)
       (GK.abort_at_exchange ~target:2 ~gk_round:4)
       [| "1"; "1" |])

let bench_e12_leaky =
  Test.make ~name:"E12/leaky-and-vs-leak-adversary"
    (one_run Fair_protocols.Leaky_and.protocol Fair_protocols.Leaky_and.leak_adversary
       [| "1"; "0" |])

let bench_e13_biased =
  Test.make ~name:"E13/opt2-q0.25-vs-greedy"
    (one_run
       (Fair_protocols.Opt2.hybrid_biased ~q:0.25 Func.swap)
       (Adv.greedy ~func:Func.swap (Adv.Fixed [ 1 ]))
       [| "x1"; "x2" |])

let bench_spdz =
  let module F = Fair_field.Field in
  let proto =
    Fair_mpc.Spdz.sfe ~name:"bench" ~circuit:(Fair_mpc.Circuit.inner_product ~n:2) ~n:2
      ~encode_input:(fun ~id:_ s ->
        match String.split_on_char ':' s with
        | [ a; b ] -> [ F.of_int (int_of_string a); F.of_int (int_of_string b) ]
        | _ -> invalid_arg "input")
      ~decode_output:(fun ys -> string_of_int (F.to_int ys.(0)))
  in
  Test.make ~name:"substrate/spdz-inner-product-honest"
    (one_run proto Adversary.passive [| "2:5"; "3:7" |])

let bench_gmw_millionaires =
  let bits = 8 in
  let proto =
    Fair_mpc.Gmw.protocol ~name:"mill"
      ~circuit:(Fair_mpc.Boolcirc.millionaires ~bits)
      ~encode_input:(fun ~id:_ s -> Fair_mpc.Boolcirc.encode_int_input ~bits (int_of_string s))
      ~decode_output:(fun o -> if o.(0) then "1" else "0")
  in
  Test.make ~name:"substrate/gmw-millionaires-8bit-honest"
    (one_run proto Adversary.passive [| "200"; "199" |])

let bench_coin_toss =
  Test.make ~name:"substrate/blum-coin-toss-vs-veto"
    (one_run Fair_protocols.Coin_toss.protocol
       (Fair_protocols.Coin_toss.veto_adversary ~target:2 ~want:"0")
       [| ""; "" |])

let bench_e14_adaptive =
  let func = Func.concat ~n:5 in
  Test.make ~name:"E14/optn-n5-vs-adaptive-hunter"
    (one_run (Fair_protocols.Optn.hybrid func)
       (Adv.adaptive_hunter ~func ~budget:3 ())
       [| "a"; "b"; "c"; "d"; "e" |])

let bench_opt2_spdz =
  let module F = Fair_field.Field in
  let proto =
    Fair_protocols.Opt2.spdz ~name:"bench-comp" ~circuit:Fair_mpc.Circuit.identity2
      ~func:Func.swap
      ~encode_input:(fun ~id:_ s -> [ F.of_int (int_of_string s) ])
      ~decode_output:(fun ys -> Printf.sprintf "%d,%d" (F.to_int ys.(1)) (F.to_int ys.(0)))
  in
  Test.make ~name:"substrate/opt2-spdz-composed-vs-greedy"
    (one_run proto (Adv.greedy ~func:Func.swap Adv.Random_party) [| "3"; "4" |])

let tests =
  Test.make_grouped ~name:"fair-protocol"
    [ bench_field_mul;
      bench_field_inv;
      bench_sha256;
      bench_sha256_span_disabled;
      bench_sha256_counter_disabled;
      bench_hmac;
      bench_lamport_sign;
      bench_lamport_verify;
      bench_shamir;
      bench_auth_share;
      bench_spdz;
      bench_opt2_spdz;
      bench_gmw_millionaires;
      bench_coin_toss;
      bench_e14_adaptive;
      bench_e1_pi1;
      bench_e1_pi2;
      bench_e2_opt2;
      bench_e4_one_round;
      bench_e5_optn;
      bench_e8_gmw;
      bench_e9_artificial;
      bench_e11_gk;
      bench_e12_leaky;
      bench_e13_biased ]

let run_timings () =
  print_endline "=== Timing kernels (Bechamel, ns per execution) ===";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
          Printf.printf "%-50s %14.0f ns/run\n" name est;
          Some (name, est)
      | _ ->
          Printf.printf "%-50s %14s\n" name "n/a";
          None)
    rows

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

(* BENCH_mc.json: the numbers above in a stable, diffable shape, so perf
   regressions can be tracked across commits without scraping stdout.
   Besides the three parts it holds the metrics-registry snapshot of
   Parts 1 and 2, the pool's per-worker utilization over Part 1, and the
   disabled-hook overhead derived from the obs/* kernels.  Schema 7 drops
   the in-process service section (perfbench times the service from
   outside), [montecarlo.trials_spent] (always the requested count) and
   the pool's retry count (the pool runs each task once). *)

let kernel_ns kernels suffix =
  List.find_map
    (fun (name, ns) ->
      if String.length name >= String.length suffix
         && String.sub name (String.length name - String.length suffix) (String.length suffix)
            = suffix
      then Some ns
      else None)
    kernels

let write_json ~path mc ~sb:((sb : Fair_search.Certificate.t), sb_seconds) ~obs_metrics
    ~obs_pool kernels =
  let module J = Fairness.Json in
  let module C = Fair_search.Certificate in
  let overhead =
    match (kernel_ns kernels "crypto/sha256-256B", kernel_ns kernels "obs/sha256-256B-span-disabled") with
    | Some base, Some span when base > 0.0 ->
        [ ("span_disabled_overhead_frac", J.Num ((span -. base) /. base)) ]
    | _ -> []
  in
  let json =
    J.Obj
      [ ("schema", J.Str "fairness-bench/7");
        ( "montecarlo",
          J.Obj
            [ ("kernel", J.Str "optn-n5-vs-greedy-t4");
              ("trials_requested", J.num_int mc.mc_trials);
              ("jobs", J.num_int mc.mc_jobs);
              ("seq_seconds", J.Num mc.seq_seconds);
              ("par_seconds", J.Num mc.par_seconds);
              ("seq_trials_per_sec", J.Num mc.seq_trials_per_s);
              ("par_trials_per_sec", J.Num mc.par_trials_per_s);
              (* A single-core "speedup" is the sequential path racing
                 itself: pure noise.  Null it so snapshot diffing can never
                 mistake it for a regression signal. *)
              ("speedup", if mc.degraded then J.Null else J.Num mc.speedup);
              ("bit_identical", J.Bool mc.bit_identical);
              ("degraded", J.Bool mc.degraded);
              ("par_pooled_batches", J.num_int mc.par_pooled_batches);
              ("par_inline_batches", J.num_int mc.par_inline_batches) ] );
        ( "search",
          J.Obj
            [ ("kernel", J.Str (sb.C.experiment ^ "-best-response"));
              ( "paired",
                J.Obj
                  [ ("budget", J.num_int sb.C.budget);
                    ("spent", J.num_int sb.C.spent);
                    ("seconds", J.Num sb_seconds);
                    ("best_arm", J.Str sb.C.best_arm);
                    ("utility", J.Num sb.C.utility);
                    ("std_err", J.Num sb.C.std_err) ] ) ] );
        ("metrics", obs_metrics);
        ("pool", obs_pool);
        ( "kernels",
          J.List
            (List.map
               (fun (name, ns) ->
                 J.Obj [ ("name", J.Str name); ("ns_per_op", J.Num ns) ])
               kernels) );
        ("obs", J.Obj overhead) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d kernels)\n" path (List.length kernels)

let usage = "usage: main.exe [-o PATH]"

let () =
  let out = ref "BENCH_mc.json" in
  let rec parse = function
    | [] -> ()
    | "-o" :: path :: rest ->
        out := path;
        parse rest
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %S\n%s\n" arg usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Metrics cover Parts 1 and 2; they are switched off again before the
     Bechamel kernels so the obs/* rows measure the disabled fast path,
     which is what ships by default. *)
  Fair_obs.Metrics.enable ();
  let mc = run_parallel_comparison () in
  (* Part 1 is the process's first pool user, so the cumulative stats are
     its own. *)
  let obs_pool = Fairness.Obs_json.pool (Pl.pool_stats ()) in
  (* Inside the metrics window so the race.* counters carry real traffic. *)
  let sb = run_search_bench () in
  let obs_metrics = Fairness.Obs_json.metrics (Fair_obs.Metrics.snapshot ()) in
  Fair_obs.Metrics.disable ();
  let kernels = run_timings () in
  write_json ~path:!out mc ~sb ~obs_metrics ~obs_pool kernels
