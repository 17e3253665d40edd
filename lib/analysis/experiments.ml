open Fairness
module Adversary = Fair_exec.Adversary
module Protocol = Fair_exec.Protocol
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries
module Mc = Montecarlo
module Space = Fair_search.Strategy_space
module Racing = Fair_search.Racing
module Certificate = Fair_search.Certificate

type outcome = {
  checks : Check.t list;
  notes : string list;
  rows : (string list * string list list) option;
}

let gamma = Payoff.default
let env_n n = Mc.uniform_field_inputs ~n

(* ------------------------------------------------------------------ *)
(* sup_A instances.

   Every supremum the registry, the search, the grids and the chaos sweep
   report is taken over one instance: the race target (protocol,
   preference vector, environment, event accounting), the declarative
   strategy space the search races over it, the fixed zoo the registry
   maximises over, and the closed-form bound the paper proves.  One
   constructor per protocol family builds it, defaulting to the uniform
   field-input environment, the standard zoo and the generic strategy
   space. *)

type instance = {
  target : Racing.target;
  space : Space.space;
  zoo : Adversary.t list;
  bound : float;
  bound_label : string;
}

let make ?(gamma = gamma) ?env ?(overrides = Events.no_overrides) ?(hybrid = false)
    ?adaptive_budgets ?zoo ~protocol ~func ~bound ~bound_label () =
  let n = protocol.Protocol.parties and max_round = protocol.Protocol.max_rounds in
  { target =
      { Racing.protocol; func; gamma; env = Option.value env ~default:(env_n n); overrides };
    space = Space.make ?adaptive_budgets ~hybrid ~func ~n ~max_round ();
    zoo = (match zoo with Some z -> z | None -> Adv.standard_zoo ~func ~n ~max_round ());
    bound;
    bound_label }

let contract ?(gamma = gamma) pi =
  let module C = Fair_protocols.Contract in
  let protocol, bound, bound_label =
    match pi with
    | `Pi1 -> (C.pi1, Bounds.unfair_sfe gamma, "g10")
    | `Pi2 -> (C.pi2, Bounds.opt2 gamma, "(g10+g11)/2")
  in
  make ~gamma ~zoo:C.zoo ~protocol ~func:C.func ~bound ~bound_label ()

let opt2 ?(gamma = gamma) ?(q = 0.5) ?(func = Func.swap) ?env () =
  make ~gamma ?env ~hybrid:true
    ~protocol:(Fair_protocols.Opt2.hybrid_biased ~q func)
    ~func ~bound:(Bounds.opt2 gamma) ~bound_label:"(g10+g11)/2" ()

let opt2_one_round () =
  make
    ~protocol:(Fair_protocols.Opt2.one_round_variant Func.swap)
    ~func:Func.swap ~bound:(Bounds.unfair_sfe gamma) ~bound_label:"g10" ()

let optn ?adaptive_budgets ~n () =
  let func = Func.concat ~n in
  make ~hybrid:true ?adaptive_budgets
    ~protocol:(Fair_protocols.Optn.hybrid func)
    ~func ~bound:(Bounds.optn_best gamma ~n) ~bound_label:"((n-1)g10+g11)/n" ()

let gmw_half ~n =
  let func = Func.concat ~n in
  make ~hybrid:true
    ~protocol:(Fair_protocols.Gmw_half.hybrid func)
    ~func
    ~bound:(Bounds.gmw_half gamma ~n ~t:(n - 1))
    ~bound_label:"g10 (t >= ceil(n/2))" ()

let artificial ~n =
  let func = Func.concat ~n in
  make ~hybrid:true
    ~protocol:(Fair_protocols.Artificial.hybrid func)
    ~func
    ~bound:(max (Bounds.artificial_single gamma ~n) (Bounds.optn_best gamma ~n))
    ~bound_label:"max(Lemma-18 t=1, optn best)" ()

module GK = Fair_protocols.Gordon_katz

(* Gordon–Katz on AND with bit domains, the variant E11 sweeps over p. *)
let gk_domain ~p = GK.poly_domain ~func:Func.and_ ~p ~domain1:[ "0"; "1" ] ~domain2:[ "0"; "1" ]

let gk ~p ?(variant = gk_domain ~p) () =
  make ~gamma:Payoff.zero_one ~env:(Mc.uniform_bit_inputs ~n:2)
    ~overrides:(GK.overrides ~offset:0) ~zoo:(GK.zoo ~variant)
    ~protocol:(GK.protocol ~func:Func.and_ ~variant)
    ~func:Func.and_ ~bound:(Bounds.gk_upper ~p) ~bound_label:"1/p" ()

(* The best zoo member and its estimate, every member on the same seed. *)
let sup ?inject ?fault_budget ~jobs inst ~trials ~seed =
  let { Racing.protocol; func; gamma; env; overrides } = inst.target in
  Mc.best_response ~overrides ~jobs ?inject ?fault_budget ~protocol ~adversaries:inst.zoo ~func
    ~gamma ~env ~trials ~seed ()

let mean ~jobs inst adversary ~trials ~seed =
  let { Racing.protocol; func; gamma; env; overrides } = inst.target in
  Mc.estimate ~overrides ~jobs ~protocol ~adversary ~func ~gamma ~env ~trials ~seed ()

(* ------------------------------------------------------------------ *)

let e1 ~trials ~seed ~jobs =
  let module C = Fair_protocols.Contract in
  (* CRN restructure: a short race ranks the zoo per (protocol, payoff
     vector) — the winners sit far above the field, so an eighth of the
     trials suffices to pick them — and the statistical budget then goes
     into *paired* runs: both protocols face their best attacker on a
     common trial stream, so the fixed-tolerance ratio checks meet their
     intervals at ~5x fewer engine runs than racing the full zoo at full
     [trials]. *)
  let race_trials = max 20 (trials / 8) in
  (* The zoo is ~30 strong, so the races dominate the old cost; the pairs
     are two cheap contract executions each and can afford full [trials]
     (double for the zero-one ratio, whose denominator is a bare Bernoulli
     mean).  Net: ~5x fewer engine runs than four full-trials races. *)
  let pair_trials = trials in
  let pair01_trials = 2 * trials in
  let pick pi g seed = sup ~jobs (contract ~gamma:g pi) ~trials:race_trials ~seed in
  let adv1, r1 = pick `Pi1 gamma seed in
  let adv2, r2 = pick `Pi2 gamma (seed + 1) in
  let adv1', _ = pick `Pi1 Payoff.zero_one (seed + 2) in
  let adv2', _ = pick `Pi2 Payoff.zero_one (seed + 3) in
  let leg proto adversary g = { Crn.protocol = proto; adversary; gamma = g } in
  let p =
    Crn.paired ~jobs ~a:(leg C.pi1 adv1 gamma) ~b:(leg C.pi2 adv2 gamma) ~func:C.func
      ~env:(env_n 2) ~trials:pair_trials ~seed:(seed + 4) ()
  in
  let p01 =
    Crn.paired ~jobs
      ~a:(leg C.pi1 adv1' Payoff.zero_one)
      ~b:(leg C.pi2 adv2' Payoff.zero_one)
      ~func:C.func ~env:(env_n 2) ~trials:pair01_trials ~seed:(seed + 5) ()
  in
  let ratio, ratio_se = Crn.ratio p in
  let ratio01, ratio01_se = Crn.ratio p01 in
  { checks =
      [ Check.make ~label:"u(pi1) = gamma10" ~measured:p.Crn.a.Crn.mean
          ~expected:(Bounds.unfair_sfe gamma) `Equals (Estimate p.Crn.a.Crn.std_err);
        Check.make ~label:"u(pi2) = (g10+g11)/2" ~measured:p.Crn.b.Crn.mean
          ~expected:(Bounds.opt2 gamma) `Equals (Estimate p.Crn.b.Crn.std_err);
        Check.make ~label:"paired gap u(pi1)-u(pi2) = g10-(g10+g11)/2" ~measured:p.Crn.diff
          ~expected:(Bounds.unfair_sfe gamma -. Bounds.opt2 gamma)
          `Equals (Estimate p.Crn.diff_std_err);
        (* Ratio tolerances: the historic fixed slack, floored by the
           delta-method 3σ from the paired run — a ratio estimate cannot
           promise more precision than its own sampling error, and the
           fixed numbers alone under-covered at reduced trial counts. *)
        Check.make ~label:"u(pi1)/u(pi2) ratio" ~measured:ratio
          ~expected:(Bounds.unfair_sfe gamma /. Bounds.opt2 gamma)
          `Equals (Ratio { std_err = ratio_se; floor = 0.06 });
        Check.make ~label:"ratio under gamma=(0,0,1,0) is 2" ~measured:ratio01 ~expected:2.0
          `Equals (Ratio { std_err = ratio01_se; floor = 0.15 }) ];
    notes =
      [ Printf.sprintf "relation verdict: pi2 is %s than pi1"
          (Format.asprintf "%a" Relation.pp_verdict (Relation.compare_sup ~pi:r2 ~pi':r1));
        Printf.sprintf
          "CRN pairing: diff se %.4f vs independent-legs se %.4f (covariance %.4f)"
          p.Crn.diff_std_err
          (sqrt ((p.Crn.a.Crn.std_err ** 2.0) +. (p.Crn.b.Crn.std_err ** 2.0)))
          p.Crn.covariance ];
    rows = None }

let e2 ~trials ~seed ~jobs =
  let checks, rows =
    List.split
      (List.mapi
         (fun i g ->
           let inst = opt2 ~gamma:g () in
           let _, e = sup ~jobs inst ~trials:(max 100 (trials / 2)) ~seed:(seed + i) in
           ( Check.make
               ~label:(Printf.sprintf "sup_A u <= bound for %s" (Payoff.to_string g))
               ~measured:e.Mc.utility ~expected:inst.bound `At_most (Estimate e.Mc.std_err),
             [ Payoff.to_string g;
               Report.fmt_pm e.Mc.utility e.Mc.std_err;
               Report.fmt_float inst.bound ] ))
         Payoff.sweep)
  in
  { checks;
    notes = [];
    rows = Some ([ "gamma"; "sup_A u (measured)"; "bound" ], rows) }

let e3 ~trials ~seed ~jobs =
  let swap = Func.swap in
  let inst = opt2 () in
  let run adv seed = mean ~jobs inst adv ~trials ~seed in
  let e_gen = run (Adv.greedy ~func:swap Adv.Random_party) seed in
  let e_a1 = run (Adv.greedy ~func:swap (Adv.Fixed [ 1 ])) (seed + 1) in
  let e_a2 = run (Adv.greedy ~func:swap (Adv.Fixed [ 2 ])) (seed + 2) in
  { checks =
      [ Check.make ~label:"u(A_gen) = (g10+g11)/2" ~measured:e_gen.Mc.utility
          ~expected:(Bounds.opt2 gamma) `Equals (Estimate e_gen.Mc.std_err);
        Check.make ~label:"u(A1) + u(A2) >= g10+g11"
          ~measured:(e_a1.Mc.utility +. e_a2.Mc.utility)
          ~expected:(gamma.Payoff.g10 +. gamma.Payoff.g11)
          `At_least (Sum [ e_a1.Mc.std_err; e_a2.Mc.std_err ]) ];
    notes = [];
    rows = None }

let e4 ~trials ~seed ~jobs =
  let { Racing.protocol; func; gamma; env; _ } = (opt2 ()).target in
  (* Aborting during phase 1 means aborting the unfair SFE subprotocol: in
     the hybrid model that is the (abort) interface of F' (sent early enough
     to precede the delayed-output release); rounds 5 and 6 are the two
     reconstruction message rounds, where the adversary aborts by going
     silent.  The engine's final round only delivers outputs, so the
     protocol has m = 6 message rounds. *)
  let phase1_end = Fair_mpc.Ideal.release_round in
  let abort_family ~round =
    if round <= phase1_end then
      [ Adv.abort_via_functionality ~round:(min round (phase1_end - 1)) (Adv.Fixed [ 1 ]);
        Adv.abort_via_functionality ~round:(min round (phase1_end - 1)) (Adv.Fixed [ 2 ]) ]
    else [ Adv.abort_at ~round (Adv.Fixed [ 1 ]); Adv.abort_at ~round (Adv.Fixed [ 2 ]) ]
  in
  let profile =
    Reconstruction.analyze ~jobs ~protocol ~abort_family ~func ~gamma ~env
      ~total_rounds:(Fair_protocols.Opt2.hybrid_rounds - 1) ~trials ~seed ()
  in
  let one_round = opt2_one_round () in
  let _, e1r = sup ~jobs one_round ~trials ~seed:(seed + 77) in
  { checks =
      [ Check.make ~label:"reconstruction rounds = 2"
          ~measured:(float_of_int profile.Reconstruction.reconstruction_rounds) ~expected:2.0
          `Equals Exact;
        Check.make ~label:"1-round variant: sup u = gamma10" ~measured:e1r.Mc.utility
          ~expected:one_round.bound `Equals (Estimate e1r.Mc.std_err) ];
    notes =
      [ Printf.sprintf "aborts are fair through round %d of %d"
          profile.Reconstruction.fair_through profile.Reconstruction.total_rounds ];
    rows = None }

(* The greedy t-coalition's utility for t = 1 .. n-1, coalition t on seed
   [seed + t - 1]. *)
let per_t_estimates ~jobs inst ~trials ~seed =
  let func = inst.target.Racing.func in
  List.mapi
    (fun i adv -> (i + 1, mean ~jobs inst adv ~trials ~seed:(seed + i)))
    (Adv.greedy_per_t ~func ~n:inst.target.Racing.protocol.Protocol.parties ())

let e5 ~trials ~seed ~jobs =
  let checks, rows =
    List.split
      (List.concat_map
         (fun n ->
           List.map
             (fun (t, e) ->
               ( Check.make
                   ~label:(Printf.sprintf "n=%d t=%d: u = (t*g10+(n-t)*g11)/n" n t)
                   ~measured:e.Mc.utility ~expected:(Bounds.optn gamma ~n ~t) `Equals
                   (Estimate e.Mc.std_err),
                 [ string_of_int n;
                   string_of_int t;
                   Report.fmt_pm e.Mc.utility e.Mc.std_err;
                   Report.fmt_float (Bounds.optn gamma ~n ~t) ] ))
             (per_t_estimates ~jobs (optn ~n ()) ~trials ~seed:(seed + (100 * n))))
         [ 3; 5 ])
  in
  { checks;
    notes = [];
    rows = Some ([ "n"; "t"; "measured"; "bound" ], rows) }

let e6 ~trials ~seed ~jobs =
  let n = 4 in
  let inst = optn ~n () in
  let e =
    mean ~jobs inst
      (Adv.greedy ~func:inst.target.Racing.func (Adv.Random_subset (n - 1)))
      ~trials ~seed
  in
  { checks =
      [ Check.make ~label:"u(A) = ((n-1)g10+g11)/n" ~measured:e.Mc.utility
          ~expected:(Bounds.optn_best gamma ~n) `Equals (Estimate e.Mc.std_err) ];
    notes = [];
    rows = None }

(* Σ_t u_t over a per-t table (Definition 5's sum), and the evidence for its
   tolerance: the estimates are independent, so their errors add in quadrature. *)
let sum_over_t per_t =
  ( List.fold_left (fun acc (_, e) -> acc +. e.Mc.utility) 0.0 per_t,
    Check.Sum_quadrature (List.map (fun (_, e) -> e.Mc.std_err) per_t) )

let e7 ~trials ~seed ~jobs =
  let checks, rows =
    List.split
      (List.map
         (fun n ->
           let sum, evidence =
             sum_over_t (per_t_estimates ~jobs (optn ~n ()) ~trials ~seed:(seed + (10 * n)))
           in
           let check =
             Check.make ~label:(Printf.sprintf "n=%d: sum_t u_t = (n-1)(g10+g11)/2" n)
               ~measured:sum ~expected:(Bounds.balanced_sum gamma ~n) `Equals evidence
           in
           ( check,
             [ string_of_int n;
               Report.fmt_float sum;
               Report.fmt_float (Bounds.balanced_sum gamma ~n);
               string_of_bool check.Check.ok ] ))
         [ 3; 4; 5; 6 ])
  in
  { checks;
    notes = [];
    rows = Some ([ "n"; "sum_t u_t"; "bound"; "balanced" ], rows) }

let e8 ~trials ~seed ~jobs =
  (* The per-t profile runs at a fifth of the trials — its checks carry 3σ
     tolerances that scale with the measured standard error, so the
     verdicts keep their confidence — and the freed budget pins the
     Lemma-17 separation from PiOpt with a CRN-paired run at (n=5, t=4):
     both protocols face the same greedy coalition on a common trial
     stream, so the gap estimate never pays for the shared coalition-draw
     noise. *)
  let t_trials = max 30 (trials / 5) in
  let results =
    List.map
      (fun n ->
        let per_t = per_t_estimates ~jobs (gmw_half ~n) ~trials:t_trials ~seed:(seed + (10 * n)) in
        (n, per_t, sum_over_t per_t))
      [ 4; 5 ]
  in
  let sep =
    let n = 5 in
    let func = Func.concat ~n in
    let adv = Adv.greedy ~func (Adv.Random_subset 4) in
    Crn.paired ~jobs
      ~a:{ Crn.protocol = Fair_protocols.Gmw_half.hybrid func; adversary = adv; gamma }
      ~b:{ Crn.protocol = Fair_protocols.Optn.hybrid func; adversary = adv; gamma }
      ~func ~env:(env_n n) ~trials:t_trials ~seed:(seed + 99) ()
  in
  let sep_check =
    Check.make ~label:"n=5 t=4: paired gap gmw_half - optn" ~measured:sep.Crn.diff
      ~expected:(Bounds.gmw_half gamma ~n:5 ~t:4 -. Bounds.optn gamma ~n:5 ~t:4)
      `Equals (Estimate sep.Crn.diff_std_err)
  in
  let profile_checks =
    List.concat_map
      (fun (n, per_t, _) ->
        List.map
          (fun (t, e) ->
            Check.make
              ~label:(Printf.sprintf "n=%d t=%d: u = Lemma-17 profile" n t)
              ~measured:e.Mc.utility ~expected:(Bounds.gmw_half gamma ~n ~t) `Equals
              (Estimate e.Mc.std_err))
          per_t)
      results
  in
  let sum_checks =
    List.map
      (fun (n, _, (sum, evidence)) ->
        if n mod 2 = 0 then
          Check.make
            ~label:(Printf.sprintf "n=%d (even): sum exceeds balanced bound" n)
            ~measured:sum
            ~expected:(Bounds.gmw_half_sum gamma ~n)
            `Equals evidence
        else
          Check.make
            ~label:(Printf.sprintf "n=%d (odd): sum meets balanced bound" n)
            ~measured:sum
            ~expected:(Bounds.balanced_sum gamma ~n)
            `Equals evidence)
      results
  in
  (* The sufficient criterion after Definition 5: the sum lies beyond the
     balanced bound's tolerance, so the protocol is not balanced. *)
  let excess =
    List.filter_map
      (fun (n, _, (sum, evidence)) ->
        if n mod 2 = 0 then
          Some
            (Printf.sprintf "n=%d: exceeds-balanced-criterion fires: %b" n
               (not (Check.within evidence ~measured:sum ~bound:(Bounds.balanced_sum gamma ~n))))
        else None)
      results
  in
  { checks = profile_checks @ sum_checks @ [ sep_check ];
    notes = excess;
    rows = None }

let e9 ~trials ~seed ~jobs =
  let n = 3 in
  let inst = artificial ~n in
  let e_t1 = mean ~jobs inst Fair_protocols.Artificial.lemma18_t1 ~trials ~seed in
  let e_tn =
    mean ~jobs inst
      (Adv.greedy ~func:inst.target.Racing.func (Adv.Random_subset (n - 1)))
      ~trials ~seed:(seed + 1)
  in
  let sum = e_t1.Mc.utility +. e_tn.Mc.utility in
  let sum_evidence = Check.Sum [ e_t1.Mc.std_err; e_tn.Mc.std_err ] in
  { checks =
      [ Check.make ~label:"special t=1 attack" ~measured:e_t1.Mc.utility
          ~expected:(Bounds.artificial_single gamma ~n) `Equals (Estimate e_t1.Mc.std_err);
        Check.make ~label:"(n-1)-adversary stays optimal" ~measured:e_tn.Mc.utility
          ~expected:(Bounds.optn_best gamma ~n) `Equals (Estimate e_tn.Mc.std_err);
        Check.make ~label:"sum = ((3n-1)g10+(n+1)g11)/2n" ~measured:sum
          ~expected:(Bounds.artificial_sum gamma ~n) `Equals sum_evidence;
        Check.make ~label:"sum exceeds balanced bound" ~measured:sum
          ~expected:(Bounds.balanced_sum gamma ~n) `At_least sum_evidence ];
    notes = [];
    rows = None }

let e10 ~trials ~seed ~jobs =
  let n = 4 in
  let per_t = per_t_estimates ~jobs (optn ~n ()) ~trials ~seed in
  let cost = Cost.theorem6 gamma ~n in
  let cost_checks =
    (* Lemma 22's comparison: the cost-adjusted utility of the best
       t-adversary is at most s(t), the payoff the same coalition extracts
       from the ideal dummy protocol. *)
    List.map
      (fun (t, e) ->
        Check.make
          ~label:(Printf.sprintf "t=%d: utility - c(t) <= s(t)" t)
          ~measured:(Mc.estimate_with_cost e ~cost)
          ~expected:(Bounds.ideal_utility gamma ~t)
          `At_most (Estimate e.Mc.std_err))
      per_t
  in
  (* Theorem 6(2): a strictly dominating cost function would force a t-profile
     whose sum is below the Lemma 16 floor — impossible. *)
  let eps = 0.05 in
  let c' t = cost t +. eps in
  let implied_phi_sum =
    (* phi'(t) = s(t) + c'(t) - would need to hold with c' > c; the sum of the
       *current* phi already equals the floor, so any uniform decrease breaks
       Lemma 16. *)
    List.fold_left
      (fun acc t -> acc +. (Bounds.ideal_utility gamma ~t +. cost t -. eps))
      0.0
      (List.init (n - 1) (fun i -> i + 1))
  in
  let dominance_check =
    Check.make ~label:"strictly dominated cost implies sum below Lemma-16 floor"
      ~measured:implied_phi_sum
      ~expected:(Bounds.balanced_sum gamma ~n -. (eps *. float_of_int (n - 1)))
      `Equals (Stated 1e-6)
  in
  { checks =
      cost_checks
      @ [ dominance_check;
          Check.make ~label:"cost dominance sanity: c' strictly dominates c"
            ~measured:(if Cost.strictly_dominates ~c:c' ~c':cost ~n then 1.0 else 0.0)
            ~expected:1.0 `Equals Exact ];
    notes =
      [ Printf.sprintf "Theorem-6 cost profile c(1..%d): %s" (n - 1)
          (String.concat ", "
             (List.map (fun t -> Printf.sprintf "%.4f" (cost t)) (List.init (n - 1) (fun i -> i + 1)))) ];
    rows = None }

let e11 ~trials ~seed ~jobs =
  let gk_trials = max 100 (trials / 2) in
  let checks, rows =
    List.split
      (List.map
         (fun p ->
           let variant = gk_domain ~p in
           let inst = gk ~p ~variant () in
           let ba, e = sup ~jobs inst ~trials:gk_trials ~seed:(seed + p) in
           ( Check.make
               ~label:(Printf.sprintf "p=%d: sup u <= 1/p" p)
               ~measured:e.Mc.utility ~expected:inst.bound `At_most (Estimate e.Mc.std_err),
             [ string_of_int p;
               string_of_int variant.GK.rounds;
               ba.Adversary.name;
               Report.fmt_pm e.Mc.utility e.Mc.std_err;
               Report.fmt_float inst.bound ] ))
         [ 2; 4; 8 ])
  in
  (* Crossover against PiOpt-2SFE on the same function: the general-purpose
     protocol is stuck at 1/2 under gamma=(0,0,1,0). *)
  let _, e_opt =
    sup ~jobs
      (opt2 ~gamma:Payoff.zero_one ~func:Func.and_ ~env:(Mc.uniform_bit_inputs ~n:2) ())
      ~trials:gk_trials ~seed:(seed + 50)
  in
  let range = gk ~p:2 ~variant:(GK.poly_range ~func:Func.and_ ~p:2 ~range:[ "0"; "1" ]) () in
  let _, e_range = sup ~jobs range ~trials:(max 60 (gk_trials / 4)) ~seed:(seed + 60) in
  { checks =
      checks
      @ [ Check.make ~label:"PiOpt-2SFE on AND = 1/2 (gamma=(0,0,1,0))"
            ~measured:e_opt.Mc.utility ~expected:0.5 `Equals (Estimate e_opt.Mc.std_err);
          Check.make ~label:"poly-range variant p=2: sup u <= 1/p" ~measured:e_range.Mc.utility
            ~expected:range.bound `At_most (Estimate e_range.Mc.std_err) ];
    notes = [];
    rows = Some ([ "p"; "rounds"; "best strategy"; "measured"; "1/p" ], rows) }

let e12 ~trials ~seed ~jobs =
  let module L = Fair_protocols.Leaky_and in
  let n = max 400 trials in
  (* Per-trial seeding makes the Z1/Z2 statistics embarrassingly parallel;
     integer sums merge commutatively, so the counts are jobs-independent. *)
  let z1, z2 =
    Fairness.Parallel.map_range ~jobs ~chunk_size:64 ~lo:0 ~hi:n (fun ~lo ~hi ->
        let z1 = ref 0 and z2 = ref 0 in
        for i = lo to hi - 1 do
          let r = L.run_z_environments ~seed:(seed + i) in
          if r.L.z1_accepts then incr z1;
          if r.L.z2_accepts then incr z2
        done;
        (!z1, !z2))
    |> List.fold_left (fun (a, b) (da, db) -> (a + da, b + db)) (0, 0)
  in
  let p1 = float_of_int z1 /. float_of_int n in
  let p2 = float_of_int z2 /. float_of_int n in
  { checks =
      [ Check.make ~label:"Pr[real Z1 accepts] = 1/4" ~measured:p1 ~expected:0.25
          `Equals (Proportion n);
        Check.make ~label:"Pr[real Z2 accepts] = 1/4" ~measured:p2 ~expected:0.25
          `Equals (Proportion n);
        Check.make ~label:"leak probability (= Pr[Z2]) = 1/4" ~measured:p2 ~expected:0.25
          `Equals (Proportion n) ];
    notes =
      [ "Lemma 26's ideal-world constraint Pr[ideal Z1] <= (3/4) Pr[ideal Z2] is \
         incompatible with the measured equality, so at least one environment \
         distinguishes: the protocol does not realize F_sfe^$ although it satisfies both \
         GK conditions (Lemma 27)." ];
    rows = None }

let e13 ~trials ~seed ~jobs =
  let swap = Func.swap in
  let qs = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let attacker_names = [ "greedy-p1"; "greedy-p2"; "semi-honest" ] in
  (* Two variance reductions let the grid run at a fifth of the trials:
     CRN across the q-sweep (every cell of one attacker column reuses the
     same trial seeds, so the designer rows are compared on common
     randomness and the argmin stabilizes early), and stratification of
     the semi-honest Random_party mixture into its two deterministic
     components (½ Fixed 1 + ½ Fixed 2), which removes the mixture coin
     from the cell variance. *)
  let cell_trials = max 30 (trials / 5) in
  let utility =
    Array.of_list
      (List.map
         (fun q ->
           let inst = opt2 ~q () in
           let cell j adv tr = mean ~jobs inst adv ~trials:tr ~seed:(seed + j) in
           let greedy_cell j adv = (cell j adv cell_trials).Mc.utility in
           let semi_cell =
             let stratum j id =
               let e =
                 cell j (Adv.semi_honest (Adv.Fixed [ id ])) (max 15 (cell_trials / 2))
               in
               { Crn.weight = 0.5; s_mean = e.Mc.utility; s_std_err = e.Mc.std_err }
             in
             (Crn.stratified [ stratum 2 1; stratum 3 2 ]).Crn.mean
           in
           [| greedy_cell 0 (Adv.greedy ~func:swap (Adv.Fixed [ 1 ]));
              greedy_cell 1 (Adv.greedy ~func:swap (Adv.Fixed [ 2 ]));
              semi_cell |])
         qs)
  in
  let table =
    Rpd.make
      ~designer:(Array.of_list (List.map (fun q -> Printf.sprintf "opt2(q=%g)" q) qs))
      ~attacker:(Array.of_list attacker_names)
      ~utility
  in
  let row, value = Rpd.minimax table in
  { checks =
      [ Check.make ~label:"argmin_q sup_A u is q=0.5" ~measured:(List.nth qs row) ~expected:0.5
          `Equals Exact;
        Check.make ~label:"game value = (g10+g11)/2" ~measured:value ~expected:(Bounds.opt2 gamma)
          `Equals (Estimate (0.5 /. sqrt (float_of_int cell_trials))) ];
    notes = [ Format.asprintf "full table:@.%a" Rpd.pp table ];
    rows = None }

let e14 ~trials ~seed ~jobs =
  let n = 5 in
  let inst = optn ~n () in
  let checks, rows =
    List.split
      (List.map
         (fun budget ->
           let e =
             mean ~jobs inst
               (Adv.adaptive_hunter ~func:inst.target.Racing.func ~budget ())
               ~trials ~seed:(seed + budget)
           in
           ( Check.make
               ~label:(Printf.sprintf "adaptive budget %d <= static bound t=%d" budget budget)
               ~measured:e.Mc.utility
               ~expected:(Bounds.optn gamma ~n ~t:budget)
               `At_most (Estimate e.Mc.std_err),
             [ string_of_int budget;
               Report.fmt_pm e.Mc.utility e.Mc.std_err;
               Report.fmt_float (Bounds.optn gamma ~n ~t:budget) ] ))
         [ 1; 2; 3; 4 ])
  in
  { checks;
    notes = [];
    rows = Some ([ "corruption budget"; "measured"; "static bound" ], rows) }

let e15 ~trials ~seed ~jobs =
  (* 1/p-security as a *statistical* statement (Appendix C.1 / Lemma 25):
     the real-world ensemble (inputs, honest output, adversary-held value)
     under a fixed-round abort is within TV distance 1/p of the ensemble
     produced by the Theorem 23 simulator talking to F_sfe^$. *)
  let func = Func.and_ in
  let trials = max 500 trials in
  let checks, rows =
    List.split
      (List.concat_map
         (fun p ->
           let variant = gk_domain ~p in
           let proto = GK.protocol ~func ~variant in
           let r = variant.GK.rounds in
           List.map
             (fun a ->
               let adversary = GK.abort_at_exchange ~target:2 ~gk_round:a in
               let real i =
                 let master = Fair_crypto.Rng.of_int_seed (seed + (1000 * p) + (100000 * i) + a) in
                 let inputs =
                   Mc.uniform_bit_inputs ~n:2 (Fair_crypto.Rng.split master ~label:"env")
                 in
                 let o =
                   Fair_exec.Engine.run ~protocol:proto ~adversary ~inputs
                     ~rng:(Fair_crypto.Rng.split master ~label:"exec")
                 in
                 let honest =
                   match List.assoc_opt 1 (Fair_exec.Engine.honest_outputs o) with
                   | Some (Some v) -> v
                   | _ -> "-"
                 in
                 let held =
                   match List.rev o.Fair_exec.Engine.claims with
                   | (_, v) :: _ -> v
                   | [] -> "-"
                 in
                 Printf.sprintf "%s,%s|%s;%s" inputs.(0) inputs.(1) honest held
               in
               let ideal i =
                 let master =
                   Fair_crypto.Rng.of_int_seed (seed + 7 + (1000 * p) + (100000 * i) + a)
                 in
                 let rng = Fair_crypto.Rng.split master ~label:"sim" in
                 let inputs =
                   Mc.uniform_bit_inputs ~n:2 (Fair_crypto.Rng.split master ~label:"env")
                 in
                 let y = Func.eval_exn func inputs in
                 let istar =
                   let rec go i =
                     if i >= r then r
                     else if Fair_crypto.Rng.bernoulli rng variant.GK.lambda then i
                     else go (i + 1)
                   in
                   go 1
                 in
                 (* simulator: abort before i* -> F_sfe^$ resamples the honest
                    output and the simulator fabricates the held fake; abort at
                    i* -> retrieve y, honest resampled; after i* -> deliver. *)
                 let held = if a >= istar then y else variant.GK.fake2 rng ~inputs in
                 let honest = if a > istar then y else variant.GK.fake1 rng ~inputs in
                 Printf.sprintf "%s,%s|%s;%s" inputs.(0) inputs.(1) honest held
               in
               let tv = Statdist.sample_distance ~jobs ~a:real ~b:ideal ~trials () in
               ( Check.make
                   ~label:(Printf.sprintf "p=%d abort@%d: TV(real, ideal) <= 1/p" p a)
                   ~measured:tv
                   ~expected:(Bounds.gk_upper ~p)
                   `At_most (Stated (Statdist.bias_bound ~support:16 ~trials)),
                 [ string_of_int p;
                   string_of_int a;
                   Report.fmt_float tv;
                   Report.fmt_float (Bounds.gk_upper ~p) ] ))
             [ 1; r / 2; r ])
         [ 2; 4 ])
  in
  { checks;
    notes = [];
    rows = Some ([ "p"; "abort round"; "TV estimate"; "1/p" ], rows) }

(* ------------------------------------------------------------------ *)
(* E16: chaos sweep.  The fairness proofs rest on the reduction "any
   deviation collapses to abort": tampering, stalling or crashing gains the
   attacker no more utility than aborting outright.  The fault layer lets
   us *exercise* that reduction instead of assuming it — for each protocol
   and each fault schedule, race the adversary zoo over faulty channels
   and check that the measured best-attacker utility still respects the
   clean-channel bound.  A deliberately unauthenticated echo protocol is
   the negative control: there, one flipped bit silently corrupts an
   honest output, which the harness must detect as a correctness breach. *)

module Faults = Fair_faults.Faults

let chaos_schedules =
  [ ("none", "");
    ("drop-q", "drop@*%0.25");
    ("drop-r3", "drop@3");
    ("dup-all", "dup@*");
    ("delay-1q", "delay+1@*%0.5");
    ("delay-2", "delay+2@*");
    ("flip-q", "flip@*%0.25");
    ("flip-12", "flip@*:1->2");
    ("trunc-q", "trunc@*%0.25");
    ("crash-p2", "crash@1:p2");
    ("storm", "drop@*%0.1;flip@*%0.1;delay+1@*%0.2") ]

(* The negative control: party 1 ships its raw input to party 2, who
   outputs whatever arrives — no commitment, no framing check, no
   verification.  Under a bit-flip fault the tampered value flows straight
   into an honest output, i.e. a correctness breach the harness must see. *)
let leaky_echo =
  Protocol.make ~name:"leaky-echo" ~parties:2 ~max_rounds:3
    (fun ~rng:_ ~id ~n:_ ~input ~setup:_ ->
      Fair_exec.Machine.make () (fun () ~round ~inbox ->
          match (id, round) with
          | 1, 1 ->
              ( (),
                [ Fair_exec.Machine.Send (Fair_exec.Wire.To 2, input);
                  Fair_exec.Machine.Output input ] )
          | 2, 2 -> (
              match inbox with
              | (_, v) :: _ -> ((), [ Fair_exec.Machine.Output v ])
              | [] -> ((), [ Fair_exec.Machine.Abort_self ]))
          | _ -> ((), [])))

let proj1 =
  { Func.name = "proj1";
    arity = 2;
    eval = (fun xs -> xs.(0));
    default_input = "0" }

let inject_of spec =
  let plan = Faults.of_spec spec in
  fun rng -> (Faults.instantiate plan ~rng).Faults.injector

let chaos_sweep ?(schedules = chaos_schedules) ~trials ~seed ~jobs () =
  let t = max 40 (trials / 8) in
  (* The zoos are hardened: an adversary that chokes on a tampered rushed
     payload degrades to silence (= aborting), it does not kill the trial.
     The honest machines need no wrapper — the engine contains their
     raises as aborts. *)
  let targets =
    List.map
      (fun (name, inst) -> (name, { inst with zoo = List.map Faults.harden_adversary inst.zoo }))
      [ ("pi1", contract `Pi1); ("pi2", contract `Pi2); ("opt2", opt2 ()); ("gk-p2", gk ~p:2 ()) ]
  in
  let faulted = ref 0 in
  let combo ti (name, inst) si (sname, spec) =
    let ba, e =
      sup ~jobs ~inject:(inject_of spec) ~fault_budget:1.0 inst ~trials:t
        ~seed:(seed + (1000 * ti) + (10 * si))
    in
    faulted := !faulted + e.Mc.trial_faults;
    let check =
      Check.make
        ~label:(Printf.sprintf "%s / %s: sup u <= %s" name sname inst.bound_label)
        ~measured:e.Mc.utility ~expected:inst.bound `At_most (Estimate e.Mc.std_err)
    in
    let row =
      [ name;
        sname;
        (if spec = "" then "-" else spec);
        ba.Adversary.name;
        Report.fmt_pm e.Mc.utility e.Mc.std_err;
        Report.fmt_float inst.bound;
        Report.check_mark check.ok ]
    in
    (check, row)
  in
  let per_combo =
    List.concat
      (List.mapi
         (fun ti tgt -> List.mapi (fun si sched -> combo ti tgt si sched) schedules)
         targets)
  in
  let checks, rows = List.split per_combo in
  (* Faults-off self-test: the "none" schedule routes through the whole
     injector machinery, so its estimate must be bit-identical to a run
     that never heard of fault injection. *)
  let identity_check =
    if List.exists (fun (_, spec) -> spec = "") schedules then begin
      let _, inst = List.hd targets in
      let with_inject = sup ~jobs ~inject:(inject_of "") inst ~trials:t ~seed in
      let without = sup ~jobs inst ~trials:t ~seed in
      [ Check.make ~label:"faults-off ≡ no-inject (bit-identical)"
          ~measured:(abs_float ((snd with_inject).Mc.utility -. (snd without).Mc.utility))
          ~expected:0.0 `Equals Exact ]
    end
    else []
  in
  (* Negative control: the unauthenticated echo under a single bit-flip
     must register correctness breaches — proof the harness can detect a
     violation when the protocol really is broken. *)
  let control =
    Mc.estimate ~inject:(inject_of "flip@1:1->2") ~protocol:leaky_echo
      ~adversary:Adversary.passive ~func:proj1 ~gamma:Payoff.zero_one
      ~env:(Mc.uniform_bit_inputs ~n:2) ~trials:t ~seed:(seed + 77_777) ()
  in
  let control_check =
    Check.make ~label:"negative control: leaky-echo breaches detected"
      ~measured:(float_of_int control.Mc.breaches)
      ~expected:1.0 `At_least Exact
  in
  let isolation_check =
    Check.make ~label:"no trial needed isolation (containment held)"
      ~measured:(float_of_int !faulted) ~expected:0.0 `At_most Exact
  in
  { checks = checks @ identity_check @ [ control_check; isolation_check ];
    notes =
      [ Printf.sprintf "%d protocol x schedule combinations, %d trials each"
          (List.length per_combo) t;
        Printf.sprintf "negative control: %d/%d echo trials breached" control.Mc.breaches
          control.Mc.trials ];
    rows =
      Some
        ( [ "protocol"; "schedule"; "spec"; "best strategy"; "measured"; "bound"; "ok" ],
          rows ) }


type spec = {
  eid : string;
  etitle : string;
  eclaim : string;
  title : string;
  claim : string;
  body : trials:int -> seed:int -> jobs:int -> outcome;
  target : (unit -> instance) option;
}

let registry =
  [ { eid = "E1"; etitle = "contract signing: pi2 twice as fair as pi1";
      eclaim = "best attacker gets g10 against pi1 but only (g10+g11)/2 against pi2";
      title = "Introduction: contract signing, pi2 is twice as fair as pi1";
      claim =
        "Best attacker against pi1 gets gamma10 = 1; against pi2 only (gamma10+gamma11)/2 = \
         0.75; with gamma = (0,0,1,0) the ratio is exactly 2.";
      body = e1; target = Some (fun () -> contract `Pi2) };
    { eid = "E2"; etitle = "Theorem 3 upper bound for PiOpt-2SFE";
      eclaim = "no adversary exceeds (g10+g11)/2, for every gamma in the sweep";
      title = "Theorem 3: u_A(PiOpt-2SFE) <= (gamma10+gamma11)/2";
      claim =
        "No strategy in the zoo (silent/semi-honest/greedy/abort-at-r, all corruption \
         patterns) exceeds the optimal value, for every gamma in the sweep.";
      body = e2; target = Some (fun () -> opt2 ()) };
    { eid = "E3"; etitle = "Theorem 4 / Lemma 7 matching lower bound";
      eclaim = "A_gen attains (g10+g11)/2; A1 + A2 collect at least g10+g11";
      title = "Theorem 4 and Lemma 7: the A_gen lower bound is attained";
      claim =
        "A_gen (corrupt a uniform party, probe, abort on first knowledge) attains \
         (gamma10+gamma11)/2 against the swap function; A1 and A2 together collect at least \
         gamma10 + gamma11.";
      body = e3; target = Some (fun () -> opt2 ()) };
    { eid = "E4"; etitle = "Lemmas 9-10 reconstruction rounds";
      eclaim = "2 reconstruction rounds; the 1-round variant collapses to g10";
      title = "Lemmas 9-10: reconstruction rounds";
      claim =
        "PiOpt-2SFE has exactly 2 reconstruction rounds (aborts in any earlier round remain \
         fair); the single-reconstruction-round variant hands the rushing adversary gamma10.";
      body = e4; target = Some (fun () -> opt2_one_round ()) };
    { eid = "E5"; etitle = "Lemma 11 per-t utility of PiOpt-nSFE";
      eclaim = "the best t-adversary gets (t*g10+(n-t)*g11)/n, n in {3,5}";
      title = "Lemma 11: per-coalition utility of PiOpt-nSFE";
      claim = "The best t-adversary gets (t*gamma10 + (n-t)*gamma11)/n, for n in {3,5}.";
      body = e5; target = Some (fun () -> optn ~n:3 ()) };
    { eid = "E6"; etitle = "Lemma 13 multi-party lower bound";
      eclaim = "the mixed (n-1)-coalition attains ((n-1)g10+g11)/n, n = 4";
      title = "Lemma 13: the mixed (n-1)-adversary attains ((n-1)g10+g11)/n";
      claim =
        "Corrupting a uniform coalition of n-1 parties and aborting on first knowledge \
         collects the optimal-protocol maximum, n = 4.";
      body = e6; target = Some (fun () -> optn ~n:4 ()) };
    { eid = "E7"; etitle = "Lemmas 14/16 utility balance";
      eclaim = "the t-profile sums to exactly (n-1)(g10+g11)/2, n in {3..6}";
      title = "Lemmas 14/16: PiOpt-nSFE is utility-balanced";
      claim = "The t-profile sums to exactly (n-1)(gamma10+gamma11)/2 for n in {3..6}.";
      body = e7; target = Some (fun () -> optn ~n:5 ()) };
    { eid = "E8"; etitle = "Lemma 17 GMW-1/2 not balanced";
      eclaim = "per-t profile jumps from g11 to g10 at ceil(n/2); even n over-sums";
      title = "Lemma 17: the honest-majority protocol is not utility-balanced";
      claim =
        "Per-t profile is gamma11 below the blocking threshold ceil(n/2) and gamma10 at or \
         above it; for even n the profile sum exceeds (n-1)(g10+g11)/2 by (g10-g11), for odd \
         n it meets the bound.";
      body = e8; target = Some (fun () -> gmw_half ~n:4) };
    { eid = "E9"; etitle = "Lemma 18 optimal-but-unbalanced separation";
      eclaim = "optimally fair protocol whose t=1 and t=n-1 utilities over-sum";
      title = "Lemma 18: optimally fair but not utility-balanced";
      claim =
        "Against the artificial protocol (n=3) the special t=1 attack gets g10/n + \
         (n-1)/n*(g10+g11)/2 while the (n-1)-adversary stays at the optimal ((n-1)g10+g11)/n; \
         their sum ((3n-1)g10+(n+1)g11)/2n exceeds the balanced two-term share.";
      body = e9; target = Some (fun () -> artificial ~n:3) };
    { eid = "E10"; etitle = "Theorem 6 corruption costs";
      eclaim = "with c(t) = u - s(t), the cost-adjusted attacker matches the ideal";
      title = "Theorem 6: utility balance = optimal corruption pricing";
      claim =
        "With c(t) = u(PiOpt-nSFE, A_t) - s(t), the cost-adjusted best attacker does no \
         better than against the ideal dummy protocol; no strictly dominating cost function \
         is achievable (its phi-profile would sum below the Lemma 16 floor).";
      body = e10; target = Some (fun () -> optn ~n:4 ()) };
    { eid = "E11"; etitle = "Theorems 23/24 Gordon-Katz 1/p bounds";
      eclaim = "the best abort strategy stays below 1/p; crossover vs PiOpt-2SFE";
      title = "Theorems 23/24: the Gordon-Katz protocols bound the attacker at 1/p";
      claim =
        "For the poly-domain protocol on AND, the measured best abort strategy stays below \
         1/p for p in {2,4,8} (F_sfe^$ simulator accounting); PiOpt-2SFE on the same function \
         sits at 1/2, so GK wins for p > 2 — the specific-vs-general crossover discussed \
         after Theorem 3.";
      body = e11; target = Some (fun () -> gk ~p:2 ()) };
    { eid = "E12"; etitle = "Lemmas 26/27 leaky-AND separation";
      eclaim = "leaks with probability 1/4 yet is 1/2-secure: the notions separate";
      title = "Lemmas 26/27: the leaky AND protocol separates the notions";
      claim =
        "Pi-tilde leaks p1's input with probability exactly 1/4 on the 1-bit path (the \
         Z1/Z2 real-world statistics of Lemma 26), yet is 1/2-secure and private in the GK \
         sense; no F_sfe^$ simulator can reconcile Pr[Z1] with Pr[Z2].";
      body = e12; target = None };
    { eid = "E13"; etitle = "RPD attack-game equilibrium (ablation)";
      eclaim = "the designer's minimax over the bias q sits at the uniform q = 1/2";
      title = "RPD attack game (ablation): the uniform index is the designer's minimax";
      claim =
        "Sweeping the reconstruct-first bias q, the attacker's best response is minimized at \
         q = 1/2 with value (gamma10+gamma11)/2 — the equilibrium of the attack meta-game \
         (footnote 1 of the paper).";
      body = e13; target = Some (fun () -> opt2 ~q:0.5 ()) };
    { eid = "E14"; etitle = "adaptive-corruption ablation (Lemma 11)";
      eclaim = "hunting i* adaptively cannot beat the static t-coalition bound";
      title = "Adaptive corruption (ablation): hunting for i* buys nothing";
      claim =
        "An adaptive adversary that corrupts one fresh party per round looking for the \
         phase-1 holder cannot exceed the static t-coalition bound of Lemma 11: non-holder \
         outputs carry no information about i*, so the hunt is a blind draw (the adaptivity \
         discussion in the proof of Lemma 11, n = 5).";
      body = e14; target = Some (fun () -> optn ~n:5 ~adaptive_budgets:[ 1; 2; 3; 4 ] ()) };
    { eid = "E15"; etitle = "1/p-security as statistical distance (Lemma 25)";
      eclaim = "real and simulated GK ensembles are within TV distance 1/p";
      title = "1/p-security as statistical distance (Appendix C / Lemma 25)";
      claim =
        "The real execution of the Gordon-Katz protocol under fixed-round aborts and the \
         Theorem 23 simulator's ideal ensemble (inputs, honest output, adversary-held value) \
         are within total-variation distance 1/p — in fact nearly identical for this \
         strategy family, the direction Lemma 25 formalizes.";
      body = e15; target = None };
    { eid = "E16"; etitle = "chaos sweep: fault schedules vs the fairness bounds";
      eclaim = "drop/dup/delay/flip/trunc/crash never lift the best attacker above the bound";
      title = "Chaos sweep: fault schedules never lift the best attacker above the bound";
      claim =
        "Under dropped, duplicated, delayed, bit-flipped and truncated messages and \
         crash-stopped parties, the measured best-attacker utility of pi1/pi2/PiOpt/GK \
         stays within its clean-channel bound — the 'deviation collapses to abort' \
         reduction, exercised; an unauthenticated echo protocol is the negative control \
         showing the harness does detect genuine violations.";
      body = (fun ~trials ~seed ~jobs -> chaos_sweep ~trials ~seed ~jobs ()); target = None } ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun s -> String.uppercase_ascii s.eid = id) registry

let no_target s =
  s.eid ^ " has no search target (its checks are not one supremum over one instance)"

(* ------------------------------------------------------------------ *)
(* Results *)

type result = { spec : spec; outcome : outcome }

let run spec ~trials ~seed ~jobs = { spec; outcome = spec.body ~trials ~seed ~jobs }

let chaos ?schedules ~trials ~seed ~jobs () =
  { spec = Option.get (find "E16"); outcome = chaos_sweep ?schedules ~trials ~seed ~jobs () }

let all_ok r = List.for_all (fun (c : Check.t) -> c.ok) r.outcome.checks

let kind_sym = function `Equals -> "=" | `At_most -> "<=" | `At_least -> ">="

let check_table ?markdown r =
  Report.render ?markdown
    ~header:[ "check"; "measured"; "rel"; "paper"; "tol"; "verdict" ]
    (List.map
       (fun (c : Check.t) ->
         [ c.label;
           Report.fmt_float c.measured;
           kind_sym c.kind;
           Report.fmt_float c.expected;
           Report.fmt_float c.tolerance;
           Report.check_mark c.ok ])
       r.outcome.checks)

let pp fmt r =
  Format.fprintf fmt "== %s: %s ==@." r.spec.eid r.spec.title;
  Format.fprintf fmt "claim: %s@." r.spec.claim;
  Format.fprintf fmt "%s@." (check_table r);
  (match r.outcome.rows with
  | Some (header, rows) -> Format.fprintf fmt "%s@." (Report.render ~header rows)
  | None -> ());
  List.iter (fun n -> Format.fprintf fmt "note: %s@." n) r.outcome.notes;
  Format.fprintf fmt "result: %s@." (if all_ok r then "PASS" else "FAIL")

let to_markdown r =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "### %s — %s\n\n%s\n\n" r.spec.eid r.spec.title r.spec.claim);
  Buffer.add_string b (check_table ~markdown:true r);
  Buffer.add_string b "\n";
  (match r.outcome.rows with
  | Some (header, rows) ->
      Buffer.add_string b "\n";
      Buffer.add_string b (Report.render ~markdown:true ~header rows);
      Buffer.add_string b "\n"
  | None -> ());
  List.iter (fun n -> Buffer.add_string b (Printf.sprintf "\n*%s*\n" n)) r.outcome.notes;
  Buffer.contents b

(* JSON rendering: the certificate service serves experiment results over
   the wire, and the body must be a stable, diffable byte string (cache
   hits are byte-compared against fresh computes).  Key order is therefore
   fixed and every field is emitted even when empty. *)
let result_to_json r =
  let module J = Json in
  let kind_str = function `Equals -> "equals" | `At_most -> "at-most" | `At_least -> "at-least" in
  let check_json (c : Check.t) =
    J.Obj
      [ ("label", J.Str c.label);
        ("measured", J.Num c.measured);
        ("expected", J.Num c.expected);
        ("tolerance", J.Num c.tolerance);
        ("kind", J.Str (kind_str c.kind));
        ("ok", J.Bool c.ok) ]
  in
  J.Obj
    [ ("id", J.Str r.spec.eid);
      ("title", J.Str r.spec.title);
      ("claim", J.Str r.spec.claim);
      ("checks", J.List (List.map check_json r.outcome.checks));
      ("notes", J.List (List.map (fun n -> J.Str n) r.outcome.notes));
      ( "rows",
        match r.outcome.rows with
        | None -> J.Null
        | Some (header, rows) ->
            J.Obj
              [ ("header", J.List (List.map (fun h -> J.Str h) header));
                ( "rows",
                  J.List (List.map (fun row -> J.List (List.map (fun c -> J.Str c) row)) rows)
                ) ] );
      ("all_ok", J.Bool (all_ok r)) ]

(* ------------------------------------------------------------------ *)
(* Running the search *)

(* Race the instance's strategy space under [budget] and certify the best
   arm against its bound.  When the zoo comparison is requested the
   fixed-zoo strategies join the race as extra arms: every arm
   (declarative point or zoo member) then pulls the same shared trial grid
   under the same budget discipline, so "searched best ≥ zoo best" is
   exact by construction — the searched max is a max over a superset of
   the zoo arms — instead of a comparison between two independently-noisy
   estimates.  (For most experiments the zoo arms are redundant with the
   space and die in round one; for the Gordon–Katz target the zoo carries
   protocol-specific attacks the generic parameterization lacks, and
   racing them keeps the certificate honest about which family the best
   response came from.) *)
let certify ?(zoo = false) ~label ~budget ~seed ~jobs inst =
  let space_arms = List.map (Space.compile inst.space) (Space.points inst.space) in
  let np = List.length space_arms in
  let arms = if zoo then space_arms @ inst.zoo else space_arms in
  let outcome = Racing.race_target ~jobs ~target:inst.target ~arms ~budget ~seed in
  let zoo_best =
    if not zoo then None
    else
      List.fold_left
        (fun best (st : Adversary.t Racing.standing) ->
          let u = st.Racing.estimate.Mc.utility in
          match best with
          | Some (_, u') when u' >= u -> best
          | _ -> Some (st.Racing.arm.Adversary.name, u))
        None
        (List.filteri (fun i _ -> i >= np) outcome.Racing.standings)
  in
  Certificate.make ~experiment:label ~seed ~budget ?zoo_best ~bound:inst.bound
    ~bound_label:inst.bound_label ~outcome
    ~arm_name:(fun (a : Adversary.t) -> a.Adversary.name) ()

let searched ?(budget = 20_000) ?zoo ~seed ~jobs (s : spec) =
  Option.map (fun mk -> certify ?zoo ~label:s.eid ~budget ~seed ~jobs (mk ())) s.target

let search_table ?(markdown = false) certs =
  Report.render ~markdown ~header:Certificate.header (List.map Certificate.row certs)

(* ------------------------------------------------------------------ *)
(* Grids: one instance per point *)

let gamma_grid ?(gammas = Payoff.sweep) ~jobs ~budget ~seed () =
  List.mapi
    (fun i gamma ->
      let label = Payoff.to_string gamma in
      (label, certify ~label ~budget ~seed:(seed + (1000 * i)) ~jobs (opt2 ~gamma ())))
    gammas

let n_grid ?(ns = [ 2; 3; 4; 5; 6 ]) ~jobs ~budget ~seed () =
  List.map
    (fun n ->
      let label = Printf.sprintf "n=%d" n in
      (label, certify ~label ~budget ~seed:(seed + (1000 * n)) ~jobs (optn ~n ())))
    ns

let grid_table ?markdown points =
  Report.render ?markdown
    ~header:[ "grid point"; "best arm (searched)"; "searched"; "bound"; "margin"; "verdict" ]
    (List.map
       (fun (label, (c : Certificate.t)) ->
         [ label;
           c.Certificate.best_arm;
           Report.fmt_pm c.Certificate.utility c.Certificate.std_err;
           Report.fmt_float c.Certificate.bound;
           Report.fmt_float c.Certificate.margin;
           Report.check_mark c.Certificate.within_bound ])
       points)

let q_sweep ~jobs ~qs ~trials ~seed () =
  let greedy id = Adv.greedy ~func:Func.swap (Adv.Fixed [ id ]) in
  List.mapi
    (fun i q ->
      let inst = { (opt2 ~q ()) with zoo = [ greedy 1; greedy 2 ] } in
      (q, snd (sup ~jobs inst ~trials ~seed:(seed + i))))
    qs

let q_table ?markdown points =
  Report.render ?markdown
    ~header:[ "q = Pr[p1 first]"; "sup_A u"; "distance from minimax" ]
    (List.map
       (fun (q, (e : Mc.estimate)) ->
         [ Printf.sprintf "%.2f" q;
           Report.fmt_pm e.Mc.utility e.Mc.std_err;
           Report.fmt_float (e.Mc.utility -. Bounds.opt2 gamma) ])
       points)
