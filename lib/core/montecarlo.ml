module Rng = Fair_crypto.Rng
module Engine = Fair_exec.Engine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func

type environment = Rng.t -> string array

let fixed_inputs xs _rng = Array.copy xs

let uniform_field_inputs ~n rng =
  Array.init n (fun _ -> string_of_int (Fair_field.Field.to_int (Rng.field rng)))

let uniform_bit_inputs ~n rng = Array.init n (fun _ -> if Rng.bool rng then "1" else "0")

let uniform_mod_inputs ~m ~n rng = Array.init n (fun _ -> string_of_int (Rng.int rng m))

type convergence_point = Fair_obs.Scope.progress = {
  after : int;
  batch : int;
  running_mean : float;
  running_std_err : float;
}

type estimate = {
  utility : float;
  std_err : float;
  distribution : Utility.distribution;
  counts : (Events.event * int) list;
  corrupted_counts : (int * int) list;
  breaches : int;
  trials : int;
  trial_faults : int;
  trajectory : convergence_point list;
}

exception Fault_budget_exceeded of { faulted : int; attempted : int; budget : float }

let () =
  Printexc.register_printer (function
    | Fault_budget_exceeded { faulted; attempted; budget } ->
        Some
          (Printf.sprintf
             "Montecarlo.Fault_budget_exceeded: %d of %d trials faulted (budget %.3f)"
             faulted attempted budget)
    | _ -> None)

(* Observability: batch/chunk accounting and spans.  Everything here is
   derived from the deterministic accumulator state — no RNG is consulted
   and no scheduling decision depends on it, so estimates are bit-identical
   with the registry/tracer enabled or disabled (test_obs locks this). *)
module Metrics = Fair_obs.Metrics
module Otrace = Fair_obs.Trace

let c_trials = Metrics.counter "mc.trials"
let c_trial_faults = Metrics.counter "mc.trial_faults"
let c_chunks = Metrics.counter "mc.chunks"
let c_ranges = Metrics.counter "mc.ranges"
let c_adaptive_rounds = Metrics.counter "mc.adaptive_rounds"

let h_range_trials =
  Metrics.histogram "mc.range_trials"
    ~buckets:[| 64.; 256.; 1024.; 4096.; 16384.; 65536. |]

(* ------------------------------------------------------------------ *)
(* Streaming accumulator: Welford within a chunk, Chan et al. between
   chunks.  Both the per-trial update and the pairwise merge are exact
   recurrences for (count, mean, M2 = Σ(x - mean)²), so the Bessel-corrected
   sample variance M2/(n-1) falls out without a catastrophic
   sum-of-squares subtraction. *)

type acc = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable breaches : int;
  mutable faulted : int;  (** trials that raised and were excluded from the mean *)
  event_counts : (Events.event, int) Hashtbl.t;
  corrupted_counts_tbl : (int, int) Hashtbl.t;
}

let acc_create () =
  { count = 0;
    mean = 0.0;
    m2 = 0.0;
    breaches = 0;
    faulted = 0;
    event_counts = Hashtbl.create 4;
    corrupted_counts_tbl = Hashtbl.create 4 }

let bump tbl key = Hashtbl.replace tbl key (1 + try Hashtbl.find tbl key with Not_found -> 0)
let bump_by tbl key d = Hashtbl.replace tbl key (d + try Hashtbl.find tbl key with Not_found -> 0)

let acc_observe a ~payoff ~event ~n_corrupted ~breach =
  a.count <- a.count + 1;
  let delta = payoff -. a.mean in
  a.mean <- a.mean +. (delta /. float_of_int a.count);
  a.m2 <- a.m2 +. (delta *. (payoff -. a.mean));
  if breach then a.breaches <- a.breaches + 1;
  bump a.event_counts event;
  bump a.corrupted_counts_tbl n_corrupted

(* Merge [b] into [a] (the left operand of the chunk-order fold). *)
let acc_merge a b =
  a.faulted <- a.faulted + b.faulted;
  if b.count > 0 then begin
    let na = float_of_int a.count and nb = float_of_int b.count in
    let n = na +. nb in
    let delta = b.mean -. a.mean in
    a.mean <- a.mean +. (delta *. nb /. n);
    a.m2 <- a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n);
    a.count <- a.count + b.count;
    a.breaches <- a.breaches + b.breaches;
    Hashtbl.iter (fun k v -> bump_by a.event_counts k v) b.event_counts;
    Hashtbl.iter (fun k v -> bump_by a.corrupted_counts_tbl k v) b.corrupted_counts_tbl
  end;
  a

(* Bessel-corrected standard error of the mean: sqrt(M2/(n-1)/n). *)
let acc_std_err a =
  if a.count < 2 then 0.0
  else
    let n = float_of_int a.count in
    sqrt (max 0.0 a.m2 /. (n -. 1.0) /. n)

(* Hash-bucket layout must not leak into reported tables: sort both count
   lists by key so output is stable across runs and merge strategies. *)
let sorted_bindings tbl =
  List.sort (fun (k, _) (k', _) -> compare k k') (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [])

let acc_finalize ?(trajectory = []) a =
  let counts = sorted_bindings a.event_counts in
  let trajectory =
    if trajectory <> [] || a.count = 0 then trajectory
    else
      [ { after = a.count;
          batch = a.count;
          running_mean = a.mean;
          running_std_err = acc_std_err a } ]
  in
  { utility = a.mean;
    std_err = acc_std_err a;
    distribution = Utility.of_counts counts;
    counts;
    corrupted_counts = sorted_bindings a.corrupted_counts_tbl;
    breaches = a.breaches;
    trials = a.count;
    trial_faults = a.faulted;
    trajectory }

(* ------------------------------------------------------------------ *)

(* Per-trial seeding: trial [i] depends only on (seed, i), so trials are
   embarrassingly parallel and a range [lo, hi) can run on any domain.
   The seed string is ["mc:" ^ seed ^ ":" ^ i] — built from a per-range
   hoisted prefix and [string_of_int] rather than [Printf.sprintf] (format
   interpretation is measurable at millions of trials), byte-identical to
   the historical [sprintf "mc:%d:%d"] encoding so every recorded stream,
   table and certificate is preserved. *)
let trial_seed_prefix seed = "mc:" ^ string_of_int seed ^ ":"

(* Progress goes to the current scope's sink, after a batch has been
   accumulated: the sink never touches an RNG or influences chunking or
   stopping, so estimates are bit-identical with or without one.  A
   raising sink is contained (fatal exceptions still propagate) so
   telemetry can never kill an estimate. *)
let fire_progress p = try Fair_obs.Scope.progress p with e when not (Engine.fatal e) -> ()

(* One classified trial, decoupled from any accumulator so paired designs
   ({!Crn}) can observe the same (seed, i) stream under several
   configurations.  Returns [None] when the trial raised (trial-level
   isolation): a raising trial (engine violation, machine bug surfacing
   through classification, fault-plan fallout) is excluded from the mean
   instead of aborting the whole estimate; callers count it and
   {!estimate} enforces the fault budget on the total.  The classification
   is deterministic per (seed, i), so which trials fault — and hence the
   estimate — is still jobs-invariant.  Every trial (estimate, CRN pair
   leg, racer pull) passes through here, so this is where [mc.trials]
   counts them. *)
type trial_obs = {
  t_payoff : float;
  t_event : Events.event;
  t_corrupted : int;
  t_breach : bool;
}

let observe_trial ~overrides ~inject ~protocol ~adversary ~func ~gamma ~env ~prefix i =
  Metrics.incr c_trials;
  let master = Rng.create ~seed:(prefix ^ string_of_int i) in
  match
    let inputs = env (Rng.split master ~label:"env") in
    let outcome =
      match inject with
      | None -> Engine.run ~protocol ~adversary ~inputs ~rng:(Rng.split master ~label:"exec")
      | Some mk ->
          (* The injector draws only from its own "faults" split —
             [Rng.split] never advances [master] — so the env and exec
             streams are bit-identical to the inject-free path. *)
          let faults = mk (Rng.split master ~label:"faults") in
          Engine.run_with ~faults ~protocol ~adversary ~inputs
            ~rng:(Rng.split master ~label:"exec") ()
    in
    let trial = { Events.outcome; inputs; func } in
    (Events.classify ~overrides trial, trial)
  with
  | cl, trial ->
      let payoff =
        match cl.Events.event with
        | Events.E00 -> gamma.Payoff.g00
        | Events.E01 -> gamma.Payoff.g01
        | Events.E10 -> gamma.Payoff.g10
        | Events.E11 -> gamma.Payoff.g11
      in
      Some
        { t_payoff = payoff;
          t_event = cl.Events.event;
          t_corrupted = List.length (Events.corrupted_parties trial);
          t_breach = cl.Events.correctness_breach }
  | exception e when not (Engine.fatal e) ->
      Metrics.incr c_trial_faults;
      None

let run_trial ~overrides ~inject ~protocol ~adversary ~func ~gamma ~env ~prefix a i =
  match observe_trial ~overrides ~inject ~protocol ~adversary ~func ~gamma ~env ~prefix i with
  | Some o ->
      acc_observe a ~payoff:o.t_payoff ~event:o.t_event ~n_corrupted:o.t_corrupted
        ~breach:o.t_breach
  | None -> a.faulted <- a.faulted + 1

(* Chunk size is a fixed constant (never derived from the job count): chunk
   boundaries, and hence the merge tree, depend only on the trial range, so
   the final numbers are bit-identical for any [jobs]. *)
let chunk_size = 64

let run_range ~overrides ~inject ~protocol ~adversary ~func ~gamma ~env ~seed ~jobs ~lo ~hi
    acc =
  Metrics.incr c_ranges;
  Metrics.observe h_range_trials (float_of_int (hi - lo));
  Otrace.with_span ~cat:"mc"
    ~args:[ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
    "mc.range"
    (fun () ->
      let prefix = trial_seed_prefix seed in
      let chunks =
        Parallel.map_range ~jobs ~chunk_size ~lo ~hi (fun ~lo ~hi ->
            Otrace.with_span ~cat:"mc" "mc.chunk" (fun () ->
                Metrics.incr c_chunks;
                let a = acc_create () in
                for i = lo to hi - 1 do
                  run_trial ~overrides ~inject ~protocol ~adversary ~func ~gamma ~env ~prefix
                    a i
                done;
                a))
      in
      List.fold_left acc_merge acc chunks)

(* The fault budget is a loudness guard, not smoothing: excluding trials
   conditions the estimator on "the trial completed", which is sound only
   while faults are rare.  Past [budget] (a fraction of attempted trials)
   the estimate is refused outright. *)
let check_budget ~fault_budget a =
  if a.faulted > 0 then begin
    let attempted = a.count + a.faulted in
    (* Zero completed trials means there is no mean to report, so even a
       budget of 1.0 cannot save the estimate. *)
    if
      a.count = 0
      || float_of_int a.faulted > fault_budget *. float_of_int attempted
    then raise (Fault_budget_exceeded { faulted = a.faulted; attempted; budget = fault_budget })
  end

let estimate ?(overrides = Events.no_overrides) ?(jobs = Parallel.default_jobs)
    ?target_std_err ?max_trials ?inject ?(fault_budget = 0.1) ~protocol ~adversary ~func
    ~gamma ~env ~trials ~seed () =
  if trials < 1 then invalid_arg "Montecarlo.estimate: trials < 1";
  if fault_budget < 0.0 || fault_budget > 1.0 then
    invalid_arg "Montecarlo.estimate: fault_budget outside [0,1]";
  let run = run_range ~overrides ~inject ~protocol ~adversary ~func ~gamma ~env ~seed ~jobs in
  match target_std_err with
  | None ->
      let a = run ~lo:0 ~hi:trials (acc_create ()) in
      check_budget ~fault_budget a;
      fire_progress
        { after = a.count;
          batch = a.count;
          running_mean = a.mean;
          running_std_err = acc_std_err a };
      acc_finalize a
  | Some target ->
      if target <= 0.0 then invalid_arg "Montecarlo.estimate: target_std_err <= 0";
      let cap = match max_trials with Some c -> max c trials | None -> 20 * trials in
      (* Batches double the total trial count until the (deterministically
         merged, hence jobs-independent) standard error meets the target or
         the cap is exhausted.  Each batch appends a convergence point, so
         the stopping decision is auditable from the estimate itself.
         Trial ranges are indexed by *attempted* trials (count + faulted):
         a faulted trial consumes its index, so batches never re-run a
         trial id and the schedule stays aligned with the fault-free one. *)
      let rec go acc total points =
        Metrics.incr c_adaptive_rounds;
        let before_observed = acc.count in
        let before = acc.count + acc.faulted in
        let acc = run ~lo:before ~hi:total acc in
        let point =
          { after = acc.count;
            batch = acc.count - before_observed;
            running_mean = acc.mean;
            running_std_err = acc_std_err acc }
        in
        fire_progress point;
        let points = point :: points in
        if acc_std_err acc <= target || total >= cap then begin
          check_budget ~fault_budget acc;
          acc_finalize ~trajectory:(List.rev points) acc
        end
        else go acc (min cap (2 * total)) points
      in
      go (acc_create ()) (min cap trials) []

(* ------------------------------------------------------------------ *)
(* Public incremental accumulation: the racer (Fair_search) grows per-arm
   accumulators trial by trial through [Trial.observe]. *)

module Acc = struct
  type t = acc

  let create = acc_create
  let count a = a.count
  let mean a = a.mean
  let std_err = acc_std_err
  let finalize a = acc_finalize a

  (* Same bookkeeping [estimate]'s inner loop applies to a faulted trial:
     callers that drive trials themselves (the paired racer) use this so
     their finalized estimates carry honest [trial_faults]. *)
  let record_fault a = a.faulted <- a.faulted + 1
end

(* Public face of the trial hook, used by {!Crn} to drive paired designs
   through the exact per-trial stream [estimate] uses. *)
module Trial = struct
  type obs = trial_obs = {
    t_payoff : float;
    t_event : Events.event;
    t_corrupted : int;
    t_breach : bool;
  }

  let seed_prefix = trial_seed_prefix

  let run ?(overrides = Events.no_overrides) ?inject ~protocol ~adversary ~func ~gamma ~env
      ~prefix i =
    observe_trial ~overrides ~inject ~protocol ~adversary ~func ~gamma ~env ~prefix i

  (* Fold one observation into an accumulator with the full event
     bookkeeping [estimate]'s inner loop applies — so an accumulator grown
     trial-by-trial finalizes to the same estimate a batched run yields. *)
  let observe a (o : obs) =
    acc_observe a ~payoff:o.t_payoff ~event:o.t_event ~n_corrupted:o.t_corrupted
      ~breach:o.t_breach
end

let estimate_with_cost e ~cost =
  let penalty =
    List.fold_left
      (fun acc (t, c) -> acc +. (cost t *. float_of_int c /. float_of_int e.trials))
      0.0 e.corrupted_counts
  in
  e.utility -. penalty

let best_response ?(overrides = Events.no_overrides) ?(jobs = Parallel.default_jobs)
    ?target_std_err ?max_trials ?inject ?fault_budget ~protocol ~adversaries ~func ~gamma
    ~env ~trials ~seed () =
  match adversaries with
  | [] -> invalid_arg "Montecarlo.best_response: empty zoo"
  | _ ->
      (* Zoo members race on worker slots: each estimate is itself
         jobs-invariant, so scoring them through the pool returns the same
         numbers as the sequential scan (inner estimates degrade to the
         caller's domain while the pool is busy with the zoo). *)
      let scored =
        Parallel.map_list ~jobs
          (fun adversary ->
            ( adversary,
              estimate ~overrides ~jobs ?target_std_err ?max_trials ?inject ?fault_budget
                ~protocol ~adversary ~func ~gamma ~env ~trials ~seed () ))
          adversaries
      in
      List.fold_left
        (fun (ba, be) (a, e) -> if e.utility > be.utility then (a, e) else (ba, be))
        (List.hd scored) (List.tl scored)

let within_bound e ~bound = e.utility <= bound +. (3.0 *. e.std_err) +. 1e-9
let attains_bound e ~bound = e.utility >= bound -. (3.0 *. e.std_err) -. 1e-9
