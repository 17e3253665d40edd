module Protocol = Fair_exec.Protocol
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func

type profile = {
  per_round : (int * Montecarlo.estimate) list;
  fair_through : int;
  total_rounds : int;
  reconstruction_rounds : int;
}

(* Pr[E10] + Pr[E00] within 3σ of zero. *)
let round_is_fair (e : Montecarlo.estimate) =
  let d = e.Montecarlo.distribution in
  (* Standard error of a probability estimate is at most 1/(2√n). *)
  let sigma = 0.5 /. sqrt (float_of_int e.Montecarlo.trials) in
  Check.holds `At_most (Estimate sigma) ~measured:(d.Utility.p10 +. d.Utility.p00) ~expected:0.0

let analyze ?(jobs = Parallel.default_jobs) ~protocol ~abort_family ~func ~gamma ~env
    ~total_rounds ~trials ~seed () =
  let per_round =
    List.map
      (fun r ->
        let adversaries = abort_family ~round:r in
        let _, best =
          Montecarlo.best_response ~jobs ~protocol ~adversaries ~func ~gamma ~env ~trials
            ~seed:(seed + (1000 * r))
            ()
        in
        (r, best))
      (List.init total_rounds (fun i -> i + 1))
  in
  let fair_through =
    let rec go acc = function
      | (r, e) :: rest when round_is_fair e && r = acc + 1 -> go r rest
      | _ -> acc
    in
    go 0 per_round
  in
  { per_round;
    fair_through;
    total_rounds;
    reconstruction_rounds = total_rounds - fair_through }
