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

let rec count_corrupted k = function
  | [] -> k
  | (_, Engine.Was_corrupted) :: rest -> count_corrupted (k + 1) rest
  | _ :: rest -> count_corrupted k rest

let corrupted_count trial = count_corrupted 0 trial.outcome.Engine.results

(* Patch [xs] for substitution pattern [mask]: bit [k] gives the [k]-th
   corrupted party of [results] (of the first [t]) the default input, a
   clear bit its own input back. *)
let rec patch ~func ~inputs xs ~t mask k = function
  | [] -> ()
  | (id, Engine.Was_corrupted) :: rest when k < t ->
      let i = id - 1 in
      if i < Array.length xs then
        xs.(i) <- (if (mask lsr k) land 1 = 1 then func.Func.default_input else inputs.(i));
      patch ~func ~inputs xs ~t mask (k + 1) rest
  | _ :: rest -> patch ~func ~inputs xs ~t mask k rest

(* [y] in front of [later], the distinct outputs of the masks above [y]'s in
   order of first appearance: a copy of [y] among them appeared later, so
   it moves to the front. *)
let rec without y = function
  | [] -> []
  | x :: rest -> if String.equal x y then rest else x :: without y rest

let in_front y later = y :: (if List.mem y later then without y later else later)

let legitimate_outputs trial =
  let func = trial.func and inputs = trial.inputs in
  let results = trial.outcome.Engine.results in
  let t = min (corrupted_count trial) 12 in
  (* The masks run downwards, so the list is built front to back without a
     final reversal.  Mask 0 substitutes nothing, so it reads the trial's
     own inputs; every other mask patches one scratch copy in place. *)
  let xs = if t = 0 then inputs else Array.copy inputs in
  let rec go mask later =
    if mask = 0 then in_front (Func.eval_exn func inputs) later
    else begin
      patch ~func ~inputs xs ~t mask 0 results;
      go (mask - 1) (in_front (Func.eval_exn func xs) later)
    end
  in
  go ((1 lsl t) - 1) []

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

let classify ?(overrides = no_overrides) ?legitimate trial =
  let legitimate =
    match legitimate with Some l -> l | None -> legitimate_outputs trial
  in
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
