module Adversary = Fair_exec.Adversary
module Machine = Fair_exec.Machine
module Protocol = Fair_exec.Protocol
module Wire = Fair_exec.Wire
module Rng = Fair_crypto.Rng
module Ideal = Fair_mpc.Ideal

type corrupt_spec =
  | Nobody
  | Fixed of int list
  | Random_party
  | Random_subset of int
  | All_but of int
  | Everyone

let spec_to_string = function
  | Nobody -> "none"
  | Fixed l -> "fixed{" ^ String.concat "," (List.map string_of_int l) ^ "}"
  | Random_party -> "random1"
  | Random_subset t -> Printf.sprintf "random%d" t
  | All_but i -> Printf.sprintf "all-but-%d" i
  | Everyone -> "all"

let choose spec rng ~n =
  match spec with
  | Nobody -> []
  | Fixed l -> l
  | Random_party -> [ 1 + Rng.int rng n ]
  | Random_subset t ->
      if t > n then invalid_arg "Adversaries.choose: subset too large";
      let ids = Array.init n (fun i -> i + 1) in
      Rng.shuffle rng ids;
      Array.to_list (Array.sub ids 0 t)
  | All_but i -> List.filter (fun j -> j <> i) (List.init n (fun j -> j + 1))
  | Everyone -> List.init n (fun j -> j + 1)

(* --------------------------------------------------------------------- *)
(* Shared machinery: drive the corrupted parties' honest machines.        *)
(* --------------------------------------------------------------------- *)

type driver = {
  mutable machines : (int * Machine.t) list;
  mutable done_ids : int list; (* machines that output or aborted *)
}

let machines driver = driver.machines

(* Adopt the machines the engine just handed over, then step every live
   one on its inbox; returns the send actions (as decision sends) and any
   outputs the machines produced. *)
let step_machines driver (view : Adversary.view) =
  List.iter
    (fun (c : Adversary.corrupted) ->
      if (not (List.mem_assoc c.Adversary.id driver.machines))
         && not (List.mem c.Adversary.id driver.done_ids)
      then driver.machines <- (c.Adversary.id, c.Adversary.machine) :: driver.machines)
    view.Adversary.corrupted;
  let sends = ref [] and outputs = ref [] in
  driver.machines <-
    List.filter_map
      (fun (id, m) ->
        let inbox = try List.assoc id view.Adversary.inbox with Not_found -> [] in
        let m', actions = m.Machine.step ~round:view.Adversary.round ~inbox in
        let finished = ref false in
        List.iter
          (fun a ->
            match a with
            | Machine.Send (dst, payload) -> sends := (id, dst, payload) :: !sends
            | Machine.Output v ->
                outputs := v :: !outputs;
                finished := true
            | Machine.Abort_self -> finished := true)
          actions;
        if !finished then begin
          driver.done_ids <- id :: driver.done_ids;
          None
        end
        else Some (id, m'))
      driver.machines;
  (List.rev !sends, List.rev !outputs)

let driven ?key ~name spec tactic =
  Adversary.make ?key ~name (fun rng ~protocol ->
      let initial = choose spec rng ~n:protocol.Protocol.parties in
      { Adversary.initial; step = tactic rng ~protocol { machines = []; done_ids = [] } })

(* Member [id]'s inbox from one round's traffic, in arrival order and ahead
   of [rest]: the messages addressed to it and every broadcast.  The
   coalition's own sends are (source, destination, payload) triples; the
   honest parties' rushed messages are envelopes. *)
let rec inbox_of_sends id sends rest =
  match sends with
  | [] -> rest
  | (_, Wire.To p, _) :: tl when p <> id -> inbox_of_sends id tl rest
  | (src, _, payload) :: tl -> (src, payload) :: inbox_of_sends id tl rest

let rec inbox_of_rushed id rushed rest =
  match rushed with
  | [] -> rest
  | { Wire.dst = Wire.To p; _ } :: tl when p <> id -> inbox_of_rushed id tl rest
  | { Wire.src; payload; _ } :: tl -> (src, payload) :: inbox_of_rushed id tl rest

(* Simulate the corrupted coalition forward against a silent residual
   network.  Its first inboxes (round [view.round + 1]) are what the
   coalition would see if this round's rushed messages and its own [sends]
   were delivered, the rushed ones first; afterwards only
   coalition-internal traffic flows.  Returns the first output any
   coalition machine produces that is not in [boring] — the
   default-fallback evaluations the paper's A1 strategy explicitly
   discounts ("checks whether the output is the default output"). *)
let coalition_probe ?(boring = []) machines (view : Adversary.view) sends ~max_rounds =
  let rec go machines rushed sends round fuel =
    if fuel <= 0 || machines = [] then None
    else begin
      let sent = ref [] and output = ref None in
      let machines' =
        List.filter_map
          (fun (id, m) ->
            let inbox = inbox_of_rushed id rushed (inbox_of_sends id sends []) in
            let m', actions = m.Machine.step ~round ~inbox in
            let finished = ref false in
            List.iter
              (fun a ->
                match a with
                | Machine.Output v ->
                    if !output = None && not (List.mem v boring) then output := Some v
                | Machine.Abort_self -> finished := true
                | Machine.Send (dst, payload) -> sent := (id, dst, payload) :: !sent)
              actions;
            if !finished then None else Some (id, m'))
          machines
      in
      match !output with
      | Some v -> Some v
      | None -> go machines' [] (List.rev !sent) (round + 1) (fuel - 1)
    end
  in
  go machines view.Adversary.rushed sends (view.Adversary.round + 1) max_rounds

let rec same_ids ids (corrupted : Adversary.corrupted list) =
  match (ids, corrupted) with
  | [], [] -> true
  | id :: ids, c :: corrupted -> id = c.Adversary.id && same_ids ids corrupted
  | _ -> false

(* Evaluations the coalition can compute on its own (the honest parties'
   inputs replaced by the default): a probe yielding one of these is a
   fallback, not a leak — the paper's A1 discounts it.  Evaluated once per
   coalition, which only adaptive corruption changes. *)
let boring_outputs func =
  match func with
  | None -> fun _ -> []
  | Some (f : Fair_mpc.Func.t) ->
      let ids = ref [] and boring = ref [] in
      fun (view : Adversary.view) ->
        let corrupted = view.Adversary.corrupted in
        if not (same_ids !ids corrupted) then begin
          let inputs = Array.make f.Fair_mpc.Func.arity f.Fair_mpc.Func.default_input in
          List.iter
            (fun (c : Adversary.corrupted) ->
              if c.Adversary.id >= 1 && c.Adversary.id <= Array.length inputs then
                inputs.(c.Adversary.id - 1) <- c.Adversary.input)
            corrupted;
          (boring :=
             match Fair_mpc.Func.eval_exn f inputs with
             | v -> [ v ]
             | exception Invalid_argument _ -> []);
          ids := List.map (fun (c : Adversary.corrupted) -> c.Adversary.id) corrupted
        end;
        !boring

(* --------------------------------------------------------------------- *)
(* Strategies                                                             *)
(* --------------------------------------------------------------------- *)

(* Every strategy below draws coins only in [choose]; its play key names
   the tactic and its parameters, never the spec (see the interface).  The
   one exception is a hunter with budget > 1. *)

(* Pass the honest code's round on: its sends, and its first output as the
   claim. *)
let as_honest sends outputs =
  { Adversary.send = sends;
    corrupt = [];
    claim_learned = (match outputs with v :: _ -> Some v | [] -> None) }

let semi_honest spec =
  driven ~key:"semi-honest" ~name:("semi-honest:" ^ spec_to_string spec) spec
    (fun _rng ~protocol:_ driver view ->
      let sends, outputs = step_machines driver view in
      as_honest sends outputs)

let silent spec =
  Adversary.make ~key:"silent" ~name:("silent:" ^ spec_to_string spec) (fun rng ~protocol ->
      let initial = choose spec rng ~n:protocol.Protocol.parties in
      { Adversary.initial; step = (fun _ -> Adversary.silent_decision) })

let abort_at ~round spec =
  driven ~key:("abort@" ^ string_of_int round)
    ~name:(Printf.sprintf "abort@%d:%s" round (spec_to_string spec))
    spec
    (fun _rng ~protocol driver ->
      let max_rounds = protocol.Protocol.max_rounds in
      let claimed = ref false in
      fun (view : Adversary.view) ->
        let sends, outputs = step_machines driver view in
        if view.Adversary.round < round then as_honest sends outputs
        else begin
          (* Gone silent: see what the retained machines can still extract
             from everything received so far (including this round's rushed
             messages). *)
          let claim =
            if !claimed then None
            else begin
              match outputs with
              | v :: _ -> Some v
              | [] -> coalition_probe driver.machines view [] ~max_rounds
            end
          in
          if claim <> None then claimed := true;
          { Adversary.send = []; corrupt = []; claim_learned = claim }
        end)

let abort_via_functionality ~round spec =
  driven ~key:("abort-F@" ^ string_of_int round)
    ~name:(Printf.sprintf "abort-F@%d:%s" round (spec_to_string spec))
    spec
    (fun _rng ~protocol:_ driver (view : Adversary.view) ->
      let sends, outputs = step_machines driver view in
      if view.Adversary.round < round then as_honest sends outputs
      else if view.Adversary.round = round then
        (* Abort the phase-1 subprotocol: in the hybrid model that is the
           (abort) message to the trusted party. *)
        match driver.machines with
        | (id, _) :: _ ->
            { Adversary.send = [ (id, Wire.To Wire.functionality_id, Ideal.msg_abort) ];
              corrupt = [];
              claim_learned = None }
        | [] -> Adversary.silent_decision
      else Adversary.silent_decision)

let greedy_key = function
  | None -> "greedy"
  | Some (f : Fair_mpc.Func.t) -> "greedy/" ^ f.Fair_mpc.Func.name

(* Greedy with a corruption budget.  Run the coalition honestly; the
   moment a corrupted machine outputs, or a probe shows the coalition
   already holds the output, claim it and abort before releasing the
   round's messages (Lemma 7's strategy).  While the coalition is smaller
   than [budget], each round also corrupts one more uniform honest party,
   drawn before the checks: the "try to corrupt i*" hunt of Lemma 11's
   proof, whose probes inspect every new victim's state (input, setup,
   retained machine).  Budget 0 is {!greedy} and budget 1 never corrupts
   again: neither draws after [choose], so both take greedy's key; a larger
   budget draws its victims inside [step] and has no key. *)
let hunt ?func ~budget ~name spec =
  driven ?key:(if budget <= 1 then Some (greedy_key func) else None) ~name spec
    (fun rng ~protocol driver ->
      let n = protocol.Protocol.parties and max_rounds = protocol.Protocol.max_rounds in
      let aborted = ref false in
      let boring_of = boring_outputs func in
      fun (view : Adversary.view) ->
        if !aborted then Adversary.silent_decision
        else begin
          let boring = boring_of view in
          let sends, outputs = step_machines driver view in
          let next_victim =
            if List.compare_length_with view.Adversary.corrupted budget >= 0 then []
            else
              let ids =
                List.map (fun (c : Adversary.corrupted) -> c.Adversary.id) view.Adversary.corrupted
              in
              match List.filter (fun j -> not (List.mem j ids)) (List.init n (fun j -> j + 1)) with
              | [] -> []
              | honest -> [ Rng.pick rng honest ]
          in
          let held =
            match List.filter (fun v -> not (List.mem v boring)) outputs with
            | v :: _ -> Some v
            | [] -> coalition_probe ~boring driver.machines view sends ~max_rounds
          in
          if held <> None then begin
            aborted := true;
            { Adversary.send = []; corrupt = []; claim_learned = held }
          end
          else { Adversary.send = sends; corrupt = next_victim; claim_learned = None }
        end)

let greedy ?func spec = hunt ?func ~budget:0 ~name:("greedy:" ^ spec_to_string spec) spec

let adaptive_hunter ?func ~budget () =
  hunt ?func ~budget ~name:(Printf.sprintf "adaptive-hunter-%d" budget) Random_party

(* Hybrid-protocol strategy: use the trusted party's interfaces directly —
   request the corrupted parties' outputs, and abort the functionality the
   moment a function output reaches the coalition (the optimal attack on
   the dummy unfair-SFE protocol). *)
let grab_and_abort spec =
  driven ~key:"grab-and-abort" ~name:("grab-and-abort:" ^ spec_to_string spec) spec
    (fun _rng ~protocol:_ driver ->
      let claimed = ref false in
      fun (view : Adversary.view) ->
        let sends, _ = step_machines driver view in
        match driver.machines with
        | [] -> Adversary.silent_decision
        | (first, _) :: _ ->
            if view.Adversary.round = 1 then
              { Adversary.send =
                  sends @ [ (first, Wire.To Wire.functionality_id, Ideal.msg_get_output) ];
                corrupt = [];
                claim_learned = None }
            else if !claimed then Adversary.silent_decision
            else begin
              let from_f =
                List.find_map
                  (fun (env : Wire.envelope) ->
                    if env.Wire.src = Wire.functionality_id then
                      match Ideal.decode_reply env.Wire.payload with
                      | Ideal.Output y -> Some y
                      | Ideal.Aborted | Ideal.No_reply -> None
                    else None)
                  view.Adversary.rushed
              in
              match from_f with
              | Some y ->
                  claimed := true;
                  { Adversary.send = [ (first, Wire.To Wire.functionality_id, Ideal.msg_abort) ];
                    corrupt = [];
                    claim_learned = Some y }
              | None -> { Adversary.send = sends; corrupt = []; claim_learned = None }
            end)

(* [Rng.split] reads only the generator's seed, not how far [choose] drew,
   so the substituted machines do not depend on the spec. *)
let substitute_input ~input spec =
  driven ~key:("substitute/" ^ input)
    ~name:(Printf.sprintf "substitute(%s):%s" input (spec_to_string spec))
    spec
    (fun rng ~protocol driver ->
      let substituted = ref false in
      fun (view : Adversary.view) ->
        (* Rebuild the corrupted machines with the substituted input on
           first contact: run the protocol's honest code on a lie. *)
        if not !substituted then begin
          substituted := true;
          driver.machines <-
            List.map
              (fun (c : Adversary.corrupted) ->
                ( c.Adversary.id,
                  protocol.Protocol.make_party
                    ~rng:(Rng.split rng ~label:("substitute-" ^ string_of_int c.Adversary.id))
                    ~id:c.Adversary.id ~n:protocol.Protocol.parties ~input
                    ~setup:c.Adversary.setup ))
              view.Adversary.corrupted
        end;
        let sends, outputs = step_machines driver view in
        as_honest sends outputs)

let zoo_grid ~n ~max_round =
  ( (Random_party :: List.init (max 1 (n - 1)) (fun t -> Random_subset (t + 1))) @ [ Everyone ],
    List.sort_uniq compare
      (List.filter (fun r -> r >= 1 && r <= max_round) [ 1; 2; 3; 4; 5; 6; 7; max_round ]) )

let standard_zoo ?func ~n ~max_round () =
  let specs, rounds = zoo_grid ~n ~max_round in
  Adversary.passive
  :: List.concat_map
       (fun spec ->
         silent spec :: semi_honest spec :: greedy ?func spec :: grab_and_abort spec
         :: List.map (fun r -> abort_at ~round:r spec) rounds)
       specs

let greedy_per_t ?func ~n () = List.init (n - 1) (fun t -> greedy ?func (Random_subset (t + 1)))
