open Fairness
module Func = Fair_mpc.Func
module Mc = Montecarlo

type table = {
  header : string list;
  rows : string list list;
  points : (string * Certificate.t) list;
}

let render ?markdown t = Report.render ?markdown ~header:t.header t.rows

let certify ~label ~space ~target ~bound ~bound_label ~budget ~seed ~jobs =
  let arms = List.map (Strategy_space.compile space) (Strategy_space.points space) in
  let outcome = Racing.race_target ~jobs ~target ~arms ~budget ~seed in
  Certificate.make ~experiment:label ~seed ~budget ~bound ~bound_label ~outcome
    ~arm_name:(fun (a : Fair_exec.Adversary.t) -> a.name) ()

let grid_rows points =
  List.map
    (fun (label, (c : Certificate.t)) ->
      [ label;
        c.Certificate.best_arm;
        Report.fmt_pm c.Certificate.utility c.Certificate.std_err;
        Report.fmt_float c.Certificate.bound;
        Report.fmt_float c.Certificate.margin;
        Report.check_mark c.Certificate.within_bound ])
    points

let header = [ "grid point"; "best arm (searched)"; "searched"; "bound"; "margin"; "verdict" ]

let gamma_grid ?(gammas = Payoff.sweep) ?(jobs = Parallel.default_jobs) ~budget ~seed () =
  let swap = Func.swap in
  let protocol = Fair_protocols.Opt2.hybrid swap in
  let space =
    Strategy_space.make ~hybrid:true ~func:swap ~n:2
      ~max_round:Fair_protocols.Opt2.hybrid_rounds ()
  in
  let points =
    List.mapi
      (fun i gamma ->
        let target =
          { Racing.protocol;
            func = swap;
            gamma;
            env = Mc.uniform_field_inputs ~n:2;
            overrides = Events.no_overrides }
        in
        let label = Payoff.to_string gamma in
        ( label,
          certify ~label ~space ~target ~bound:(Bounds.opt2 gamma)
            ~bound_label:"(g10+g11)/2" ~budget ~seed:(seed + (1000 * i)) ~jobs ))
      gammas
  in
  { header; rows = grid_rows points; points }

let n_grid ?(ns = [ 2; 3; 4; 5; 6 ]) ?(jobs = Parallel.default_jobs) ~budget ~seed () =
  let gamma = Payoff.default in
  let points =
    List.map
      (fun n ->
        let func = Func.concat ~n in
        let protocol = Fair_protocols.Optn.hybrid func in
        let space =
          Strategy_space.make ~hybrid:true ~func ~n
            ~max_round:protocol.Fair_exec.Protocol.max_rounds ()
        in
        let target =
          { Racing.protocol;
            func;
            gamma;
            env = Mc.uniform_field_inputs ~n;
            overrides = Events.no_overrides }
        in
        let label = Printf.sprintf "n=%d" n in
        ( label,
          certify ~label ~space ~target ~bound:(Bounds.optn_best gamma ~n)
            ~bound_label:"((n-1)g10+g11)/n" ~budget ~seed:(seed + (1000 * n)) ~jobs ))
      ns
  in
  { header; rows = grid_rows points; points }
