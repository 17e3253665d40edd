module Mc = Fairness.Montecarlo
module Crn = Fairness.Crn
module Parallel = Fairness.Parallel

(* Observability: the round log and the metrics/span hooks below read only
   the deterministically-merged accumulators — no RNG, no scheduling input —
   so race outcomes (and certificates built from them) are bit-identical
   with observability on or off. *)
module Metrics = Fair_obs.Metrics
module Otrace = Fair_obs.Trace

let c_rounds = Metrics.counter "race.rounds"
let c_trials = Metrics.counter "race.trials"
let c_eliminations = Metrics.counter "race.eliminations"
let c_settled = Metrics.counter "race.settled"

type arm_status = {
  arm_ix : int;
  pulls : int;
  mean : float;
  lcb : float;
  ucb : float;
}

type round_log = {
  index : int;
  batch : int;
  statuses : arm_status list;
  incumbent : int;
  eliminated : int list;
}

type 'a standing = {
  arm : 'a;
  estimate : Mc.estimate;
  eliminated_in : int option;
}

type 'a outcome = {
  best : 'a;
  best_estimate : Mc.estimate;
  spent : int;
  rounds : int;
  standings : 'a standing list;
  log : round_log list;
}

(* ------------------------------------------------------------------ *)
(* CRN-paired racing.  All surviving arms pull the *same* trial indices of
   a shared seed grid (the caller's [pull] contract), so trial [t] of arm
   [i] and trial [t] of the incumbent saw the same environment draws and
   per-trial randomness.  Elimination then reads the *paired difference*
   against the incumbent — rival mean minus incumbent mean over their
   common trials, with the bivariate Welford/Chan variance from {!Crn} —
   instead of two independent intervals.  Correlated arms (same tactic,
   adjacent abort rounds) agree on most trials, so the paired interval is
   dramatically tighter per trial and hopeless arms die rounds earlier.

   Exact ties are detected, not killed: a rival whose payoff history is
   bitwise-identical to the incumbent's has diff = 0 and diff_std_err = 0
   *exactly* (identical Welford recurrences make the three moments cancel
   bitwise), and eliminating it would freeze its marginal below the
   winner's.  Instead tied rivals keep pulling alongside the incumbent,
   and once every surviving rival is an exact tie — equivalently, once
   fresh trials can no longer change the argmax — the race *settles* and
   stops, rather than burning the rest of the budget re-measuring one
   strategy.  That settle rule (plus the tighter eliminations) is where
   the racer's savings come from on clean separations: a sole survivor
   stops at [min_pulls] instead of absorbing the rest of the budget. *)

let exact_tie (p : Crn.paired) = p.trials > 0 && p.diff = 0.0 && p.diff_std_err = 0.0

(* First batch (the Monte-Carlo chunk size), confidence multiplier, and the
   incumbent's trial floor before a race of exact ties may settle. *)
let batch0 = 64
let z = 3.0
let min_pulls = 256

let race_paired ~arms ~pull ~budget () =
  let arms = Array.of_list arms in
  let k = Array.length arms in
  if k = 0 then invalid_arg "Racing.race_paired: no arms";
  if budget < k then
    invalid_arg
      (Printf.sprintf
         "Racing.race_paired: budget %d is below the arm count %d (every arm needs at least \
          one trial)"
         budget k);
  let accs = Array.init k (fun _ -> Mc.Acc.create ()) in
  (* Per-arm payoff history on the shared grid (NaN = faulted trial).
     Every survivor covers exactly [0, covered): arms only ever pull the
     same shared batch, and eliminated arms stop growing. *)
  let hists = Array.make k [||] in
  let eliminated = Array.make k None in
  let live () =
    List.filter (fun i -> eliminated.(i) = None) (List.init k (fun i -> i))
  in
  let lcb i = Mc.Acc.mean accs.(i) -. (z *. Mc.Acc.std_err accs.(i)) in
  let ucb i = Mc.Acc.mean accs.(i) +. (z *. Mc.Acc.std_err accs.(i)) in
  (* The first batch shrinks when the space is wide relative to the
     budget, so several elimination rounds always fit — a constant 64 would
     let round 1 alone swallow a 200-arm budget.  Deterministic in
     (budget, k) only. *)
  let b0 = min batch0 (max 16 (budget / (4 * k))) in
  let spent = ref 0 in
  let covered = ref 0 in
  let round = ref 0 in
  let log = ref [] in
  let continue = ref true in
  while !continue do
    let s = live () in
    let survivors = List.length s in
    let want = if !round >= 30 then max_int else b0 * (1 lsl !round) in
    let b = min want ((budget - !spent) / survivors) in
    if b < 1 then continue := false
    else begin
      incr round;
      Otrace.with_span ~cat:"race"
        ~args:[ ("round", string_of_int !round); ("survivors", string_of_int survivors) ]
        "race.round"
        (fun () ->
          let lo = !covered in
          let hi = lo + b in
          (* Shared grid: every survivor pulls the same [lo, hi) in one
             call, which returns the batches in survivor order. *)
          let batches = pull (Array.of_list (List.map (fun i -> arms.(i)) s)) ~lo ~hi in
          if
            Array.length batches <> survivors
            || Array.exists (fun batch -> Array.length batch <> b) batches
          then invalid_arg "Racing.race_paired: pull returned a wrong-sized batch";
          List.iteri
            (fun j i ->
              let fresh =
                Array.map
                  (function
                    | Some o ->
                        Mc.Trial.observe accs.(i) o;
                        o.Mc.Trial.t_payoff
                    | None ->
                        Mc.Acc.record_fault accs.(i);
                        Float.nan)
                  batches.(j)
              in
              hists.(i) <- Array.append hists.(i) fresh)
            s;
          covered := hi;
          spent := !spent + (b * survivors);
          (* The incumbent is the best marginal lower bound (ties to the
             lower index); marginals are bit-identical to a plain estimate
             of the arm over the same trial indices. *)
          let incumbent =
            List.fold_left
              (fun best i -> if lcb i > lcb best then i else best)
              (List.hd s) (List.tl s)
          in
          (* Paired elimination: replay rival-vs-incumbent histories through
             the bivariate accumulator (pairs with a faulted leg are
             voided) and kill when the paired-difference upper bound sits
             below zero.  Rebuilt from scratch each round because the
             incumbent can change; the replay is float-cheap and reads only
             merged state, so it is jobs-invariant. *)
          let killed = ref [] in
          let all_tied = ref true in
          List.iter
            (fun i ->
              if i <> incumbent then begin
                let c = Crn.Bacc.create () in
                let ha = hists.(i) and hb = hists.(incumbent) in
                for t = 0 to !covered - 1 do
                  let xa = ha.(t) and xb = hb.(t) in
                  if Float.is_nan xa || Float.is_nan xb then Crn.Bacc.void c
                  else Crn.Bacc.observe c xa xb
                done;
                let p = Crn.Bacc.finalize c in
                if p.Crn.trials >= 2 && p.Crn.diff +. (z *. p.Crn.diff_std_err) < 0.0
                then begin
                  eliminated.(i) <- Some !round;
                  killed := i :: !killed
                end
                else if not (exact_tie p) then all_tied := false
              end)
            s;
          let statuses =
            List.map
              (fun i ->
                { arm_ix = i;
                  pulls = Mc.Acc.count accs.(i);
                  mean = Mc.Acc.mean accs.(i);
                  lcb = lcb i;
                  ucb = ucb i })
              s
          in
          log :=
            { index = !round;
              batch = b;
              statuses;
              incumbent;
              eliminated = List.rev !killed }
            :: !log;
          Metrics.incr c_rounds;
          Metrics.add c_trials (b * survivors);
          Metrics.add c_eliminations (List.length !killed);
          (* The racer drives trials itself, so it sends its own progress
             point, contained as in [Mc.estimate]. *)
          (try
             Fair_obs.Scope.progress
               { Fair_obs.Scope.after = Mc.Acc.count accs.(incumbent);
                 batch = b;
                 running_mean = Mc.Acc.mean accs.(incumbent);
                 running_std_err = Mc.Acc.std_err accs.(incumbent) }
           with e when not (Fair_exec.Engine.fatal e) -> ());
          (* Settle: every surviving rival is an exact CRN tie of the
             incumbent — fresh shared trials can never separate bitwise-
             equal histories — and the incumbent is measured well enough.
             Stop instead of spending the rest of the budget. *)
          if !all_tied && Mc.Acc.count accs.(incumbent) >= min_pulls then begin
            Metrics.incr c_settled;
            continue := false
          end)
    end
  done;
  let s = live () in
  let best =
    List.fold_left
      (fun best i -> if Mc.Acc.mean accs.(i) > Mc.Acc.mean accs.(best) then i else best)
      (List.hd s) (List.tl s)
  in
  { best = arms.(best);
    best_estimate = Mc.Acc.finalize accs.(best);
    spent = !spent;
    rounds = !round;
    standings =
      List.init k (fun i ->
          { arm = arms.(i);
            estimate = Mc.Acc.finalize accs.(i);
            eliminated_in = eliminated.(i) });
    log = List.rev !log }

(* ------------------------------------------------------------------ *)

type target = {
  protocol : Fair_exec.Protocol.t;
  func : Fair_mpc.Func.t;
  gamma : Fairness.Payoff.t;
  env : Mc.environment;
  overrides : Fairness.Events.overrides;
}

(* Pool tasks per round.  At budget 2000 the n-party targets race ~200
   arms on a round of 10 trials and then one of 1, so chunks of trials
   alone would give those rounds 10 uneven tasks and then 1; chunks of
   (trial, arm) cells give every round about this many.  A round of at
   least this many trials — every round the remaining budget does not
   cut short — is cut into whole trials, so each prelude is built once. *)
let chunks_per_round = 16

(* One seed prefix for the whole race: trial [t] of every arm shares its
   environment draws and per-trial randomness, which is the grid contract
   [race_paired] needs — and because the adversary-independent half of a
   trial does not depend on the arm, a chunk builds it once per trial
   ([Mc.Trial.prepare]) and shares it among the arms it plays, so only
   the preludes of chunks in flight are alive.  A round's cells are
   walked trial-major (cell [c] is survivor [c mod k] on trial
   [lo + c / k]), in chunks of whole trials when a chunk holds at least
   one trial.  Each observation depends on (arm, trial) alone and lands
   in its own cell, and the chunks depend only on the round's shape, so
   the batches are the same at any [jobs], and so are the executions,
   the messages and the machine steps a chunk's arms share.  The hashing
   is not, on the signature targets: [Signature.Lamport.Verifier]'s
   caches are per domain and bounded, so whether a verdict hits depends
   on which domain played which chunk before. *)
let race_target ~jobs ~target ~arms ~budget ~seed =
  let { protocol; func; gamma; env; overrides } = target in
  let prefix = Mc.Trial.seed_prefix seed in
  let pull survivors ~lo ~hi =
    let k = Array.length survivors and b = hi - lo in
    let chunk = max 1 (b * k / chunks_per_round) in
    let chunk = if chunk >= k then chunk / k * k else chunk in
    let out = Array.make_matrix k b None in
    let trial c = lo + (c / k) in
    ignore
      (Parallel.map_range ~jobs ~chunk_size:chunk ~lo:0 ~hi:(b * k) (fun ~lo:c0 ~hi:c1 ->
           Otrace.with_span ~cat:"race"
             ~args:[ ("lo", string_of_int (trial c0)); ("hi", string_of_int (trial (c1 - 1) + 1));
                     ("plays", string_of_int (c1 - c0)) ]
             "race.pull"
             (fun () ->
               let prelude = ref (Mc.Trial.prepare ~protocol ~env ~prefix (trial c0)) in
               for c = c0 to c1 - 1 do
                 if c > c0 && c mod k = 0 then
                   prelude := Mc.Trial.prepare ~protocol ~env ~prefix (trial c);
                 out.(c mod k).(c / k) <-
                   Mc.Trial.play ~overrides ~adversary:survivors.(c mod k) ~func ~gamma !prelude
               done)));
    out
  in
  race_paired ~arms ~pull ~budget ()
