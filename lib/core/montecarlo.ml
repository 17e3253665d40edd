module Rng = Fair_crypto.Rng
module Engine = Fair_exec.Engine
module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func

type environment = Rng.t -> string array

let uniform_field_inputs ~n rng =
  Array.init n (fun _ -> string_of_int (Fair_field.Field.to_int (Rng.field rng)))

let uniform_bit_inputs ~n rng = Array.init n (fun _ -> if Rng.bool rng then "1" else "0")

type estimate = {
  utility : float;
  std_err : float;
  distribution : Utility.distribution;
  counts : (Events.event * int) list;
  corrupted_counts : (int * int) list;
  breaches : int;
  trials : int;
  trial_faults : int;
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

(* Observability: trial counts and one span per pool task.  Nothing here
   consults an RNG or decides any scheduling, so estimates are
   bit-identical with the registry/tracer enabled or disabled (test_obs
   locks this). *)
module Metrics = Fair_obs.Metrics
module Otrace = Fair_obs.Trace

let c_trials = Metrics.counter "mc.trials"
let c_trial_faults = Metrics.counter "mc.trial_faults"

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

let acc_finalize a =
  let counts = sorted_bindings a.event_counts in
  { utility = a.mean;
    std_err = acc_std_err a;
    distribution = Utility.of_counts counts;
    counts;
    corrupted_counts = sorted_bindings a.corrupted_counts_tbl;
    breaches = a.breaches;
    trials = a.count;
    trial_faults = a.faulted }

(* ------------------------------------------------------------------ *)

(* Per-trial seeding: trial [i] depends only on (seed, i), so trials are
   embarrassingly parallel and any trial can run on any domain.  The seed
   string is ["mc:" ^ seed ^ ":" ^ i] — built from a per-call hoisted
   prefix and [string_of_int] rather than [Printf.sprintf] (format
   interpretation is measurable at millions of trials), byte-identical to
   the historical [sprintf "mc:%d:%d"] encoding so every recorded stream,
   table and certificate is preserved. *)
let trial_seed_prefix seed = "mc:" ^ string_of_int seed ^ ":"

(* One classified trial, split in two: [trial_prepare] builds the
   adversary-independent prelude (env inputs, dealer setup, honest
   machines) and [trial_play] plays one adversary against it and
   classifies the outcome, so the trial loop below plays every arm of a
   call on one prelude.  A play returns [None] when its trial raised
   (trial-level isolation): a raising trial (engine violation, machine bug
   surfacing through classification, fault-plan fallout) is excluded from
   the mean instead of aborting the whole estimate; the folds count it and
   enforce the fault budget on the total.  A prelude that raised faults
   every play of it.  The classification is deterministic per (seed, i),
   so which trials fault — and hence the estimate — is still
   jobs-invariant.  Every play (estimate arm, CRN leg, racer arm) passes
   through [trial_play], so this is where [mc.trials] counts them. *)
type trial_obs = {
  t_payoff : float;
  t_event : Events.event;
  t_corrupted : int;
  t_breach : bool;
}

type ready = {
  master : Rng.t;  (* only split from: the "faults" split of every play *)
  inputs : string array;
  prepared : Engine.prepared;
  (* Every outcome classified so far, with its observation ([None]:
     classifying it raised).  A remembered play returns the very outcome an
     earlier play of the prelude classified ([Engine.run_prepared]), so the
     lookup is by physical identity. *)
  mutable classified : (Engine.outcome * trial_obs option) list;
  (* The legitimate outputs of every corrupted set classified so far, keyed
     by its ids in [results] order: they depend only on the inputs, [func]
     and that set, and a prelude serves one [func]. *)
  mutable legitimate : (int list * string list) list;
}

type prelude = Ready of ready | Faulted

let trial_prepare ~protocol ~env ~prefix i =
  let master = Rng.create ~seed:(prefix ^ string_of_int i) in
  match
    let inputs = env (Rng.split master ~label:"env") in
    (inputs, Engine.prepare ~protocol ~inputs ~rng:(Rng.split master ~label:"exec"))
  with
  | inputs, prepared -> Ready { master; inputs; prepared; classified = []; legitimate = [] }
  | exception e when not (Engine.fatal e) -> Faulted

(* [ids] are exactly the parties [results] marks corrupted, in order. *)
let rec same_corrupted ids = function
  | [] -> ids = []
  | (id, Engine.Was_corrupted) :: rest -> (
      match ids with i :: ids -> i = id && same_corrupted ids rest | [] -> false)
  | _ :: rest -> same_corrupted ids rest

let rec stored results = function
  | [] -> None
  | (ids, l) :: rest -> if same_corrupted ids results then Some l else stored results rest

(* The legitimate outputs of [trial]'s corrupted set, evaluated on the
   first outcome of [r] that has it.  A raise stores nothing. *)
let legitimate r (trial : Events.trial) =
  match stored trial.Events.outcome.Engine.results r.legitimate with
  | Some l -> l
  | None ->
      let l = Events.legitimate_outputs trial in
      r.legitimate <- (Events.corrupted_parties trial, l) :: r.legitimate;
      l

let classify ~overrides ~func ~gamma r outcome =
  let trial = { Events.outcome; inputs = r.inputs; func } in
  match Events.classify ~overrides ~legitimate:(legitimate r trial) trial with
  | cl ->
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
          t_corrupted = Events.corrupted_count trial;
          t_breach = cl.Events.correctness_breach }
  | exception e when not (Engine.fatal e) -> None

let trial_play ~overrides ~inject ~adversary ~func ~gamma prelude =
  Metrics.incr c_trials;
  let fault () =
    Metrics.incr c_trial_faults;
    None
  in
  match prelude with
  | Faulted -> fault ()
  | Ready r -> (
      match
        (* The injector draws only from its own "faults" split —
           [Rng.split] never advances [master] — so the env and exec
           streams are bit-identical to the inject-free path. *)
        let faults =
          match inject with
          | None -> None
          | Some mk -> Some (mk (Rng.split r.master ~label:"faults"))
        in
        Engine.run_prepared ?faults ~adversary r.prepared
      with
      | outcome -> (
          let obs =
            match List.assq_opt outcome r.classified with
            | Some obs -> obs
            | None ->
                let obs = classify ~overrides ~func ~gamma r outcome in
                r.classified <- (outcome, obs) :: r.classified;
                obs
          in
          match obs with Some _ -> obs | None -> fault ())
      | exception e when not (Engine.fatal e) -> fault ())

(* ------------------------------------------------------------------ *)
(* The trial loop: every estimate, zoo supremum, CRN leg and racing round
   plays its arms here.  Pool tasks per call: at budget 2000 the n-party
   targets race ~200 arms on a round of 10 trials and then one of 1, so
   chunks of trials alone would give those rounds 10 uneven tasks and then
   1; chunks of (trial, arm) cells give every call about this many. *)
let tasks_per_call = 16

(* Cell [c] is arm [c mod k] on trial [lo + c / k]; a chunk holding at
   least one trial is cut at whole trials, so each prelude is built once.
   A chunk builds each of its trials' prelude when it reaches it and plays
   its arms on it, so only the preludes of chunks in flight are alive.
   Each observation depends on (arm, trial) alone and lands in its own
   cell, and the chunks depend only on the call's shape, so the result is
   the same at any [jobs], and so are the executions, the messages and the
   machine steps a chunk's arms share. *)
let plays ?inject ?(jobs = Parallel.default_jobs) ~overrides ~protocol ~func ~gamma ~env ~seed
    arms ~lo ~hi =
  let prefix = trial_seed_prefix seed in
  let k = Array.length arms and b = hi - lo in
  let chunk = max 1 (b * k / tasks_per_call) in
  let chunk = if chunk >= k then chunk / k * k else chunk in
  let out = Array.make_matrix k b None in
  let trial c = lo + (c / k) in
  ignore
    (Parallel.map_range ~jobs ~chunk_size:chunk ~lo:0 ~hi:(b * k) (fun ~lo:c0 ~hi:c1 ->
         Otrace.with_span ~cat:"mc"
           ~args:[ ("lo", string_of_int (trial c0)); ("hi", string_of_int (trial (c1 - 1) + 1));
                   ("plays", string_of_int (c1 - c0)) ]
           "mc.plays"
           (fun () ->
             let prelude = ref (trial_prepare ~protocol ~env ~prefix (trial c0)) in
             for c = c0 to c1 - 1 do
               if c > c0 && c mod k = 0 then
                 prelude := trial_prepare ~protocol ~env ~prefix (trial c);
               out.(c mod k).(c / k) <-
                 trial_play ~overrides ~inject ~adversary:arms.(c mod k) ~func ~gamma !prelude
             done)));
  out

(* Chunk size is a fixed constant, never derived from the job count or
   from where the loop cut its tasks: chunk boundaries, and hence the
   merge tree, depend only on the number of observations, so the final
   numbers are bit-identical for any [jobs]. *)
let chunk_size = 64

let fold_chunks ~create ~merge n add =
  let rec go acc lo =
    if lo >= n then acc
    else begin
      let c = create () in
      for i = lo to min n (lo + chunk_size) - 1 do
        add c i
      done;
      go (merge acc c) (lo + chunk_size)
    end
  in
  go (create ()) 0

(* The fault budget is a loudness guard, not smoothing: excluding trials
   conditions the estimator on "the trial completed", which is sound only
   while faults are rare.  Past [budget] (a fraction of attempted trials)
   the estimate is refused outright. *)
let check_fault_budget ~fault_budget ~completed ~faulted =
  if faulted > 0 then begin
    let attempted = completed + faulted in
    (* Zero completed trials means there is no mean to report, so even a
       budget of 1.0 cannot save the estimate. *)
    if completed = 0 || float_of_int faulted > fault_budget *. float_of_int attempted then
      raise (Fault_budget_exceeded { faulted; attempted; budget = fault_budget })
  end

let observe a o =
  acc_observe a ~payoff:o.t_payoff ~event:o.t_event ~n_corrupted:o.t_corrupted
    ~breach:o.t_breach

(* One arm's observations of trials [0, n): folded in 64-trial chunks,
   held to the fault budget, then one progress point to the current
   scope's sink.  The sink never touches an RNG or the loop, and a raising
   sink is contained (fatal exceptions still propagate), so telemetry can
   never change or kill an estimate. *)
let arm_estimate ~fault_budget obs =
  let a =
    fold_chunks ~create:acc_create ~merge:acc_merge (Array.length obs) (fun a i ->
        match obs.(i) with Some o -> observe a o | None -> a.faulted <- a.faulted + 1)
  in
  check_fault_budget ~fault_budget ~completed:a.count ~faulted:a.faulted;
  (try
     Fair_obs.Scope.progress
       { Fair_obs.Scope.after = a.count;
         batch = a.count;
         running_mean = a.mean;
         running_std_err = acc_std_err a }
   with e when not (Engine.fatal e) -> ());
  acc_finalize a

(* The zoo plays on one prelude per trial, as a racing round's survivors
   do; the members are then folded, budget-checked and reported in zoo
   order.  An estimate is the supremum of a one-member zoo. *)
let best_response ?(overrides = Events.no_overrides) ?jobs ?inject ?(fault_budget = 0.1)
    ~protocol ~adversaries ~func ~gamma ~env ~trials ~seed () =
  if adversaries = [] then invalid_arg "Montecarlo.best_response: empty zoo";
  if trials < 1 then invalid_arg "Montecarlo.estimate: trials < 1";
  if fault_budget < 0.0 || fault_budget > 1.0 then
    invalid_arg "Montecarlo.estimate: fault_budget outside [0,1]";
  let arms = Array.of_list adversaries in
  let obs =
    plays ?inject ?jobs ~overrides ~protocol ~func ~gamma ~env ~seed arms ~lo:0 ~hi:trials
  in
  let scored = Array.mapi (fun j a -> (a, arm_estimate ~fault_budget obs.(j))) arms in
  Array.fold_left
    (fun (ba, be) (a, e) -> if e.utility > be.utility then (a, e) else (ba, be))
    scored.(0) scored

let estimate ?overrides ?jobs ?inject ?fault_budget ~protocol ~adversary ~func ~gamma ~env
    ~trials ~seed () =
  snd
    (best_response ?overrides ?jobs ?inject ?fault_budget ~protocol ~adversaries:[ adversary ]
       ~func ~gamma ~env ~trials ~seed ())

(* ------------------------------------------------------------------ *)
(* Public incremental accumulation: the racer (Fair_search) grows per-arm
   accumulators trial by trial through [Trial.observe]. *)

module Acc = struct
  type t = acc

  let create = acc_create
  let count a = a.count
  let mean a = a.mean
  let std_err = acc_std_err
  let finalize = acc_finalize

  (* Same bookkeeping [estimate]'s fold applies to a faulted trial:
     callers that fold trials themselves (the paired racer) use this so
     their finalized estimates carry honest [trial_faults]. *)
  let record_fault a = a.faulted <- a.faulted + 1
end

(* Public face of the trial loop, used by {!Crn} and the racer. *)
module Trial = struct
  type obs = trial_obs = {
    t_payoff : float;
    t_event : Events.event;
    t_corrupted : int;
    t_breach : bool;
  }

  type nonrec prelude = prelude

  let seed_prefix = trial_seed_prefix
  let prepare = trial_prepare

  let play ~overrides ~adversary ~func ~gamma prelude =
    trial_play ~overrides ~inject:None ~adversary ~func ~gamma prelude

  let plays = plays
  let observe = observe
end

let estimate_with_cost e ~cost =
  let penalty =
    List.fold_left
      (fun acc (t, c) -> acc +. (cost t *. float_of_int c /. float_of_int e.trials))
      0.0 e.corrupted_counts
  in
  e.utility -. penalty
