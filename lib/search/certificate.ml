module Mc = Fairness.Montecarlo
module Report = Fairness.Report
module Json = Fairness.Json

type t = {
  experiment : string;
  seed : int;
  budget : int;
  spent : int;
  rounds : int;
  mode : string;
  arms_total : int;
  arms_surviving : int;
  best_arm : string;
  utility : float;
  std_err : float;
  trials : int;
  zoo_best : (string * float) option;
  bound : float;
  bound_label : string;
  margin : float;
  within_bound : bool;
}

let make ~experiment ~seed ~budget ?zoo_best ~bound ~bound_label
    ~(outcome : 'a Racing.outcome) ~arm_name () =
  let e = outcome.Racing.best_estimate in
  let surviving =
    List.length
      (List.filter (fun s -> s.Racing.eliminated_in = None) outcome.Racing.standings)
  in
  { experiment;
    seed;
    budget;
    spent = outcome.Racing.spent;
    rounds = outcome.Racing.rounds;
    mode = "paired";
    arms_total = List.length outcome.Racing.standings;
    arms_surviving = surviving;
    best_arm = arm_name outcome.Racing.best;
    utility = e.Mc.utility;
    std_err = e.Mc.std_err;
    trials = e.Mc.trials;
    zoo_best;
    bound;
    bound_label;
    margin = bound -. e.Mc.utility;
    within_bound = Fairness.Check.within_bound e ~bound }

let to_json c =
  Json.Obj
    [ ("experiment", Json.Str c.experiment);
      ("seed", Json.num_int c.seed);
      ("budget", Json.num_int c.budget);
      ("spent", Json.num_int c.spent);
      ("rounds", Json.num_int c.rounds);
      ("mode", Json.Str c.mode);
      ("arms_total", Json.num_int c.arms_total);
      ("arms_surviving", Json.num_int c.arms_surviving);
      ("best_arm", Json.Str c.best_arm);
      ("utility", Json.Num c.utility);
      ("std_err", Json.Num c.std_err);
      ("trials", Json.num_int c.trials);
      ( "zoo_best",
        match c.zoo_best with
        | None -> Json.Null
        | Some (arm, u) -> Json.Obj [ ("arm", Json.Str arm); ("utility", Json.Num u) ] );
      ("bound", Json.Num c.bound);
      ("bound_label", Json.Str c.bound_label);
      ("margin", Json.Num c.margin);
      ("within_bound", Json.Bool c.within_bound) ]

let of_json j =
  let open Json in
  let* experiment = Result.bind (member "experiment" j) to_str in
  let* seed = Result.bind (member "seed" j) to_int in
  let* budget = Result.bind (member "budget" j) to_int in
  let* spent = Result.bind (member "spent" j) to_int in
  let* rounds = Result.bind (member "rounds" j) to_int in
  (* Tolerant default: certificates written before the paired racer carry
     no mode tag; they were all raced unpaired. *)
  let mode =
    match Result.bind (member "mode" j) to_str with Ok m -> m | Error _ -> "unpaired"
  in
  let* arms_total = Result.bind (member "arms_total" j) to_int in
  let* arms_surviving = Result.bind (member "arms_surviving" j) to_int in
  let* best_arm = Result.bind (member "best_arm" j) to_str in
  let* utility = Result.bind (member "utility" j) to_float in
  let* std_err = Result.bind (member "std_err" j) to_float in
  let* trials = Result.bind (member "trials" j) to_int in
  let* zoo_best =
    match member "zoo_best" j with
    | Ok Null | Error _ -> Ok None
    | Ok zb ->
        let* arm = Result.bind (member "arm" zb) to_str in
        let* u = Result.bind (member "utility" zb) to_float in
        Ok (Some (arm, u))
  in
  let* bound = Result.bind (member "bound" j) to_float in
  let* bound_label = Result.bind (member "bound_label" j) to_str in
  let* margin = Result.bind (member "margin" j) to_float in
  let* within_bound = Result.bind (member "within_bound" j) to_bool in
  Ok
    { experiment;
      seed;
      budget;
      spent;
      rounds;
      mode;
      arms_total;
      arms_surviving;
      best_arm;
      utility;
      std_err;
      trials;
      zoo_best;
      bound;
      bound_label;
      margin;
      within_bound }

let to_string c = Json.to_string (to_json c) ^ "\n"

let of_string s = Result.bind (Json.of_string (String.trim s)) of_json

let save ~path c =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string c))

let load ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      of_string s

let header =
  [ "id"; "arms"; "spent/budget"; "mode"; "best arm (searched)"; "searched"; "zoo best";
    "bound"; "margin"; "verdict" ]

let row c =
  [ c.experiment;
    Printf.sprintf "%d→%d" c.arms_total c.arms_surviving;
    Printf.sprintf "%d/%d" c.spent c.budget;
    c.mode;
    c.best_arm;
    Report.fmt_pm c.utility c.std_err;
    (match c.zoo_best with
    | None -> "-"
    | Some (_, u) -> Report.fmt_float u);
    Report.fmt_float c.bound;
    Report.fmt_float c.margin;
    Report.check_mark c.within_bound ]
