module Adv = Fair_protocols.Adversaries
module Adversary = Fair_exec.Adversary
module Func = Fair_mpc.Func
module Rng = Fair_crypto.Rng

type tactic =
  | Passive
  | Silent
  | Semi_honest
  | Abort_at of int
  | Abort_f of int
  | Greedy
  | Grab_and_abort
  | Substitute of string
  | Adaptive of int

type point = { spec : Adv.corrupt_spec; tactic : tactic }

type space = {
  n : int;
  max_round : int;
  func : Func.t option;
  specs : Adv.corrupt_spec list;
  rounds : int list;
  substitutions : string list;
  adaptive_budgets : int list;
  hybrid : bool;
}

(* Long protocols (Gordon–Katz at large p) would otherwise contribute one
   abort arm per round; stride the round grid down while keeping both ends —
   the interesting aborts cluster at the phase boundary and the last rounds,
   and racing only needs the grid to contain the argmax's neighborhood. *)
let default_rounds ~max_round =
  if max_round <= 12 then List.init max_round (fun r -> r + 1)
  else
    let stride = (max_round + 10) / 11 in
    let rec go r acc = if r > max_round then acc else go (r + stride) (r :: acc) in
    List.sort_uniq compare (1 :: max_round :: go 1 [])

let default_specs ~n =
  let singles = if n <= 6 then List.init n (fun i -> Adv.Fixed [ i + 1 ]) else [] in
  let subsets = List.init (max 0 (n - 2)) (fun t -> Adv.Random_subset (t + 2)) in
  singles @ (Adv.Random_party :: subsets) @ [ Adv.Everyone ]

let make ?specs ?rounds ?substitutions ?adaptive_budgets ?(hybrid = false) ?func ~n
    ~max_round () =
  if n < 1 then invalid_arg "Strategy_space.make: n < 1";
  if max_round < 1 then invalid_arg "Strategy_space.make: max_round < 1";
  let specs = match specs with Some s -> s | None -> default_specs ~n in
  let rounds =
    match rounds with
    | Some r -> List.filter (fun r -> r >= 1 && r <= max_round) r
    | None -> default_rounds ~max_round
  in
  let substitutions =
    match substitutions with
    | Some s -> s
    | None -> ( match func with Some f -> [ f.Func.default_input ] | None -> [])
  in
  let adaptive_budgets =
    match adaptive_budgets with
    | Some b -> b
    | None -> List.init (min 3 (max 0 (n - 1))) (fun b -> b + 1)
  in
  { n; max_round; func; specs; rounds; substitutions; adaptive_budgets; hybrid }

let per_spec_tactics s =
  List.concat
    [ [ Silent; Semi_honest; Greedy ];
      List.map (fun r -> Abort_at r) s.rounds;
      (if s.hybrid then Grab_and_abort :: List.map (fun r -> Abort_f r) s.rounds else []);
      List.map (fun x -> Substitute x) s.substitutions ]

let points s =
  ({ spec = Adv.Nobody; tactic = Passive }
  :: List.concat_map (fun spec -> List.map (fun tactic -> { spec; tactic }) (per_spec_tactics s))
       s.specs)
  @ List.map (fun b -> { spec = Adv.Random_party; tactic = Adaptive b }) s.adaptive_budgets

let cardinality s =
  1
  + (List.length s.specs * List.length (per_spec_tactics s))
  + List.length s.adaptive_budgets

let sample s rng =
  let pts = Array.of_list (points s) in
  pts.(Rng.int rng (Array.length pts))

let compile s { spec; tactic } =
  match tactic with
  | Passive -> Adversary.passive
  | Silent -> Adv.silent spec
  | Semi_honest -> Adv.semi_honest spec
  | Abort_at r -> Adv.abort_at ~round:r spec
  | Abort_f r -> Adv.abort_via_functionality ~round:r spec
  | Greedy -> Adv.greedy ?func:s.func spec
  | Grab_and_abort -> Adv.grab_and_abort spec
  | Substitute input -> Adv.substitute_input ~input spec
  | Adaptive budget -> Adv.adaptive_hunter ?func:s.func ~budget ()

(* [Random_subset 1] and [Random_party] draw the same coalition. *)
let equiv_spec a b =
  match (a, b) with
  | Adv.Random_party, Adv.Random_subset 1 | Adv.Random_subset 1, Adv.Random_party -> true
  | _ -> a = b

let contains_zoo s =
  let zoo_specs =
    (Adv.Random_party :: List.init (max 1 (s.n - 1)) (fun t -> Adv.Random_subset (t + 1)))
    @ [ Adv.Everyone ]
  in
  let zoo_rounds =
    List.sort_uniq compare
      (List.filter (fun r -> r >= 1 && r <= s.max_round) [ 1; 2; 3; 4; 5; 6; 7; s.max_round ])
  in
  s.hybrid
  && List.for_all (fun spec -> List.exists (equiv_spec spec) s.specs) zoo_specs
  && List.for_all (fun r -> List.mem r s.rounds) zoo_rounds
