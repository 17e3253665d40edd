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

(* The never-corrupted parties are read in place from [results], the
   claims from [claims]: these walks take [legitimate] as an argument, so
   classifying builds no list and no closure besides [legitimate]. *)
let rec some_honest = function
  | [] -> false
  | (_, Engine.Was_corrupted) :: rest -> some_honest rest
  | _ -> true

let rec all_output y = function
  | [] -> true
  | (_, Engine.Was_corrupted) :: rest -> all_output y rest
  | (_, Engine.Honest_output v) :: rest -> String.equal v y && all_output y rest
  | (_, (Engine.Honest_abort | Engine.Honest_no_output)) :: _ -> false

(* Some honest party, and every one output the same legitimate value. *)
let rec honest_agree legitimate = function
  | [] -> false
  | (_, Engine.Was_corrupted) :: rest -> honest_agree legitimate rest
  | (_, Engine.Honest_output y) :: rest -> List.mem y legitimate && all_output y rest
  | (_, (Engine.Honest_abort | Engine.Honest_no_output)) :: _ -> false

let rec breached legitimate = function
  | [] -> false
  | (_, Engine.Honest_output y) :: rest ->
      (not (List.mem y legitimate)) || breached legitimate rest
  | _ :: rest -> breached legitimate rest

let rec claimed_legitimate legitimate = function
  | [] -> false
  | (_, v) :: rest -> List.mem v legitimate || claimed_legitimate legitimate rest

let classify ?(overrides = no_overrides) trial =
  let legitimate = legitimate_outputs trial in
  let results = trial.outcome.Engine.results in
  let learned =
    match overrides.learned with
    | Some f -> f trial
    | None -> claimed_legitimate legitimate trial.outcome.Engine.claims
  in
  let honest_got =
    match overrides.honest_got with
    | Some f -> f trial
    | None -> honest_agree legitimate results
  in
  (* When every party is corrupted the paper assigns E11 semantics (the
     adversary gains no unfair advantage over anyone). *)
  let event =
    if not (some_honest results) then E11
    else
      match (learned, honest_got) with
      | false, false -> E00
      | false, true -> E01
      | true, false -> E10
      | true, true -> E11
  in
  { event; correctness_breach = breached legitimate results }
