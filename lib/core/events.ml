module Engine = Fair_exec.Engine
module Func = Fair_mpc.Func

type event = E00 | E01 | E10 | E11

let event_to_string = function
  | E00 -> "E00"
  | E01 -> "E01"
  | E10 -> "E10"
  | E11 -> "E11"

let pp_event fmt e = Format.pp_print_string fmt (event_to_string e)

type trial = {
  outcome : Engine.outcome;
  inputs : string array;
  func : Func.t;
}

type overrides = {
  learned : (trial -> bool) option;
  honest_got : (trial -> bool) option;
}

let no_overrides = { learned = None; honest_got = None }

type classification = {
  event : event;
  correctness_breach : bool;
}

let corrupted_parties trial =
  List.filter_map
    (fun (id, r) -> match r with Engine.Was_corrupted -> Some id | _ -> None)
    trial.outcome.Engine.results

let legitimate_outputs trial =
  let func = trial.func and inputs = trial.inputs in
  let corrupted = Array.of_list (corrupted_parties trial) in
  let t = min (Array.length corrupted) 12 in
  (* Mask 0 substitutes nothing, so it reads the trial's own inputs; every
     other mask patches a copy at the positions of its corrupted parties. *)
  let outputs = ref [ Func.eval_exn func inputs ] in
  for mask = 1 to (1 lsl t) - 1 do
    let xs = Array.copy inputs in
    for k = 0 to t - 1 do
      let i = corrupted.(k) - 1 in
      if (mask lsr k) land 1 = 1 && i < Array.length xs then xs.(i) <- func.Func.default_input
    done;
    let y = Func.eval_exn func xs in
    if not (List.mem y !outputs) then outputs := y :: !outputs
  done;
  List.rev !outputs

let classify ?(overrides = no_overrides) trial =
  let legitimate = legitimate_outputs trial in
  let honest = Engine.honest_outputs trial.outcome in
  let learned =
    match overrides.learned with
    | Some f -> f trial
    | None ->
        List.exists
          (fun (_, v) -> List.mem v legitimate)
          trial.outcome.Engine.claims
  in
  let honest_values = List.map snd honest in
  let honest_got =
    match overrides.honest_got with
    | Some f -> f trial
    | None ->
        honest_values <> []
        && List.for_all
             (fun v -> match v with Some y -> List.mem y legitimate | None -> false)
             honest_values
        && (match honest_values with
           | Some y0 :: rest -> List.for_all (fun v -> v = Some y0) rest
           | _ -> true)
  in
  (* When every party is corrupted the paper assigns E11 semantics (the
     adversary gains no unfair advantage over anyone). *)
  let all_corrupted = honest = [] in
  let event =
    if all_corrupted then E11
    else
      match (learned, honest_got) with
      | false, false -> E00
      | false, true -> E01
      | true, false -> E10
      | true, true -> E11
  in
  let correctness_breach =
    List.exists
      (fun v -> match v with Some y -> not (List.mem y legitimate) | None -> false)
      honest_values
  in
  { event; correctness_breach }
