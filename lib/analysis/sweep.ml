open Fairness
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries
module Mc = Montecarlo

type table = {
  header : string list;
  rows : string list list;
  data : (string * float) list;
}

(* Natural-order label comparison: digit runs compare numerically, so
   "n=10" sorts after "n=2" and zero-padding is never needed. *)
let natural_compare a b =
  let la = String.length a and lb = String.length b in
  let is_digit c = c >= '0' && c <= '9' in
  let digits s i =
    let j = ref i in
    let len = String.length s in
    while !j < len && is_digit s.[!j] do incr j done;
    !j
  in
  let rec go i j =
    if i >= la && j >= lb then 0
    else if i >= la then -1
    else if j >= lb then 1
    else if is_digit a.[i] && is_digit b.[j] then begin
      let i' = digits a i and j' = digits b j in
      (* skip leading zeros, then longer run = bigger number *)
      let zi = ref i and zj = ref j in
      while !zi < i' - 1 && a.[!zi] = '0' do incr zi done;
      while !zj < j' - 1 && b.[!zj] = '0' do incr zj done;
      let na = i' - !zi and nb = j' - !zj in
      if na <> nb then compare na nb
      else
        let c = compare (String.sub a !zi na) (String.sub b !zj nb) in
        if c <> 0 then c else go i' j'
    end
    else
      let c = Char.compare a.[i] b.[j] in
      if c <> 0 then c else go (i + 1) (j + 1)
  in
  go 0 0

(* The machine-facing label↦value pairs always leave in sorted label order,
   whatever order the sweep itself visited the grid — consumers diffing two
   sweeps never see a spurious reordering (the rendered [rows] keep the
   sweep's own order). *)
let stable_data pairs = List.stable_sort (fun (a, _) (b, _) -> natural_compare a b) pairs

let render ?markdown t = Report.render ?markdown ~header:t.header t.rows

let q_sweep ?(jobs = Parallel.default_jobs) ~qs ~trials ~seed () =
  let gamma = Payoff.default in
  let swap = Func.swap in
  let results =
    List.mapi
      (fun i q ->
        let proto = Fair_protocols.Opt2.hybrid_biased ~q swap in
        let attackers =
          [ Adv.greedy ~func:swap (Adv.Fixed [ 1 ]); Adv.greedy ~func:swap (Adv.Fixed [ 2 ]) ]
        in
        let _, e =
          Mc.best_response ~jobs ~protocol:proto ~adversaries:attackers ~func:swap ~gamma
            ~env:(Mc.uniform_field_inputs ~n:2) ~trials ~seed:(seed + i) ()
        in
        (q, e))
      qs
  in
  { header = [ "q = Pr[p1 first]"; "sup_A u"; "distance from minimax" ];
    rows =
      List.map
        (fun (q, (e : Mc.estimate)) ->
          [ Printf.sprintf "%.2f" q;
            Report.fmt_pm e.Mc.utility e.Mc.std_err;
            Report.fmt_float (e.Mc.utility -. Bounds.opt2 gamma) ])
        results;
    data = stable_data (List.map (fun (q, (e : Mc.estimate)) -> (Printf.sprintf "%.2f" q, e.Mc.utility)) results) }
