module Rng = Fair_crypto.Rng

(* Observability (Fair_obs): aggregate counters plus per-run/per-round
   spans.  [Trace] below is the *protocol* trace (who sent what); the
   observability tracer is aliased [Otrace] to keep the two apart.  The
   hooks read nothing but local state and never touch the RNG, so an
   execution is bit-identical whether or not they are enabled. *)
module Otrace = Fair_obs.Trace
module Metrics = Fair_obs.Metrics

let c_execs = Metrics.counter "engine.executions"
let c_rounds = Metrics.counter "engine.rounds"
let c_msgs = Metrics.counter "engine.messages"
let c_corruptions = Metrics.counter "engine.corruptions"
let c_aborts = Metrics.counter "engine.aborts"
let c_breach_rounds = Metrics.counter "engine.max_round_stops"
let c_machine_faults = Metrics.counter "engine.machine_faults"
let c_crashes = Metrics.counter "engine.party_crashes"

type party_result =
  | Honest_output of Wire.payload
  | Honest_abort
  | Honest_no_output
  | Was_corrupted

(* ------------------------------------------------------------------ *)
(* Failure taxonomy.  Everything that can go structurally wrong in a run
   is one of these four shapes, each carrying the round and party where it
   happened.  [Malformed_message] and [Party_crash] are *contained*: the
   affected party collapses to an abort (the paper's reduction — any
   deviation is worth no more than aborting) and the run continues, with
   the failure recorded on the outcome.  [Protocol_violation] and
   [Round_limit] invalidate the run and are raised as [Fail]. *)

type failure =
  | Malformed_message of { round : int; party : Wire.party_id; reason : string }
  | Protocol_violation of { round : int; party : Wire.party_id; reason : string }
  | Round_limit of { round : int; messages : int; limit : int }
  | Party_crash of { round : int; party : Wire.party_id }

exception Fail of failure

let failure_to_string = function
  | Malformed_message { round; party; reason } ->
      Printf.sprintf "malformed message: party %d raised in round %d (%s)" party round reason
  | Protocol_violation { round; party; reason } ->
      Printf.sprintf "protocol violation: party %d, round %d: %s" party round reason
  | Round_limit { round; messages; limit } ->
      Printf.sprintf "round limit: %d messages by round %d exceeds the %d-message guard"
        messages round limit
  | Party_crash { round; party } ->
      Printf.sprintf "party crash: party %d crash-stopped at round %d" party round

let () =
  Printexc.register_printer (function
    | Fail f -> Some ("Engine.Fail: " ^ failure_to_string f)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Fault injection.  The engine itself knows nothing about fault plans;
   it exposes two interposition points and [Fair_faults] compiles
   declarative specs into them.  [on_envelope] rewrites one sent envelope
   into the list of copies actually put on the wire, each with an extra
   delivery delay in rounds (0 = the normal next-round delivery; [] drops
   the message).  [crash] is consulted once per still-running honest party
   at the top of every round.  [no_faults] is the identity and consumes no
   randomness, so a run without faults is byte-identical to one that never
   heard of injectors. *)

type injector = {
  on_envelope : round:int -> Wire.envelope -> (int * Wire.envelope) list;
  crash : round:int -> Wire.party_id -> bool;
}

let no_faults =
  { on_envelope = (fun ~round:_ env -> [ (0, env) ]); crash = (fun ~round:_ _ -> false) }

type outcome = {
  results : (Wire.party_id * party_result) list;
  claims : (int * Wire.payload) list;
  rounds : int;
  trace : Trace.t;
  failures : failure list;
}

let honest_outputs outcome =
  List.filter_map
    (fun (id, r) ->
      match r with
      | Honest_output v -> Some (id, Some v)
      | Honest_abort | Honest_no_output -> Some (id, None)
      | Was_corrupted -> None)
    outcome.results

let claimed outcome ~truth =
  List.exists (fun (_, v) -> String.equal v truth) outcome.claims

(* Per-party slot during execution. *)
type slot =
  | Running of Machine.t * string * string (* machine, input, setup *)
  | Finished of party_result

(* Exceptions the containment layer must never swallow. *)
let fatal = function
  | Stack_overflow | Out_of_memory | Assert_failure _ -> true
  | _ -> false

(* Inboxes are sender-sorted; sources are small ints. *)
let by_src ((a : int), _) ((b : int), _) = compare a b

(* Ascending insertion; ids are distinct. *)
let rec insert_corrupted (c : Adversary.corrupted) = function
  | (x : Adversary.corrupted) :: rest when x.id < c.id -> x :: insert_corrupted c rest
  | l -> c :: l

(* [List.iter (f r)] without building the partial application. *)
let rec iter_round f r = function
  | [] -> ()
  | x :: rest ->
      f r x;
      iter_round f r rest

(* ------------------------------------------------------------------ *)
(* The adversary-independent half of an execution: the dealer's setup,
   the honest party machines and the templates of the per-play
   generators.  Built once, it can be played against any number of
   adversaries, because machines are persistent (see [Machine]) and
   everything per-execution — the functionality, the adversary instance,
   the fault injector, the per-run arrays — is built in [run_exec].  It
   also remembers the fault-free outcome of every keyed play (see
   [run_prepared]). *)
type prepared = {
  p_protocol : Protocol.t;
  p_inputs : string array;
  p_setup : string array;
  p_parties : Machine.t array;  (* party i+1's machine at index i *)
  (* The functionality (hybrid protocols only) with the "functionality"
     split of the execution generator, and the "adversary" split.  The
     splits are never drawn from: every play draws from a copy, so every
     play sees the coins a fresh split would give. *)
  p_functionality : ((Rng.t -> n:int -> Machine.t) * Rng.t) option;
  p_adversary_rng : Rng.t;
  (* (play key, initial coalition as drawn) -> the outcome of that play. *)
  p_plays : (string * Wire.party_id list, outcome) Hashtbl.t;
}

let prepare ~protocol ~inputs ~rng =
  let n = protocol.Protocol.parties in
  if Array.length inputs <> n then
    invalid_arg
      (Printf.sprintf "Engine.run: wrong number of inputs (got %d, protocol %S wants %d)"
         (Array.length inputs) protocol.Protocol.name n);
  Fair_crypto.Signature.Lamport.Verifier.clear_verdicts ();
  let setup =
    match protocol.Protocol.setup with
    | None -> Array.make n ""
    | Some deal ->
        let s = deal (Rng.split rng ~label:"dealer") in
        if Array.length s <> n then
          invalid_arg
            (Printf.sprintf "Engine.run: setup arity (dealer produced %d values for %d parties)"
               (Array.length s) n);
        s
  in
  let parties =
    Array.init n (fun k ->
        protocol.Protocol.make_party
          ~rng:(Rng.split rng ~label:("party-" ^ string_of_int (k + 1)))
          ~id:(k + 1) ~n ~input:inputs.(k) ~setup:setup.(k))
  in
  { p_protocol = protocol;
    p_inputs = inputs;
    p_setup = setup;
    p_parties = parties;
    p_functionality =
      Option.map (fun f -> (f, Rng.split rng ~label:"functionality")) protocol.Protocol.functionality;
    p_adversary_rng = Rng.split rng ~label:"adversary";
    p_plays = Hashtbl.create 16 }

let run_exec ~faults ~adv p =
  let protocol = p.p_protocol in
  let n = protocol.Protocol.parties in
  let msg_limit = (n + 1) * protocol.Protocol.max_rounds * 1024 in
  (* Slots indexed 0..n; slot 0 is the functionality (or an inert machine). *)
  let slots = Array.make (n + 1) (Finished Was_corrupted) in
  let corrupted = Array.make (n + 1) false in
  let results = Array.make (n + 1) Honest_no_output in
  (* Inboxes for the current and the next round, indexed by party id. *)
  let inbox_now = Array.make (n + 1) [] in
  let inbox_next = Array.make (n + 1) [] in
  let trace = Trace.create () in
  let failures = ref [] in
  let record_failure f = failures := f :: !failures in
  slots.(0) <-
    (match p.p_functionality with
    | None -> Finished Honest_abort (* unused marker; never consulted *)
    | Some (f, g) -> Running (f (Rng.copy g) ~n, "", ""));
  for i = 1 to n do
    slots.(i) <- Running (p.p_parties.(i - 1), p.p_inputs.(i - 1), p.p_setup.(i - 1))
  done;
  let claims = ref [] in
  let claim r = function
    | None -> ()
    | Some v ->
        claims := (r, v) :: !claims;
        Trace.record trace (Trace.Claimed (r, v))
  in
  (* The state of the corrupted parties still running when corrupted,
     ascending by id.  The engine never steps a corrupted slot, so it
     changes only here. *)
  let coalition = ref [] in
  let corrupt_party round id =
    if id < 1 || id > n then
      raise
        (Fail
           (Protocol_violation
              { round;
                party = id;
                reason =
                  Printf.sprintf "adversary corrupted invalid id %d (parties are 1..%d)" id n }));
    if not corrupted.(id) then begin
      corrupted.(id) <- true;
      results.(id) <- Was_corrupted;
      (match slots.(id) with
      | Running (machine, input, setup) ->
          coalition := insert_corrupted { Adversary.id; input; setup; machine } !coalition
      | Finished _ -> ());
      Trace.record trace (Trace.Corrupted (round, id))
    end
  in
  iter_round corrupt_party 0 adv.Adversary.initial;
  (* Envelopes re-scheduled by a delay fault: (due round, envelope), due in
     the round whose inbox they join.  Prepended, so reversing the due
     slice restores chronological order before the stable per-source sort. *)
  let pending = ref [] in
  let deliver inbox (env : Wire.envelope) =
    match env.dst with
    | Wire.To p -> if p >= 0 && p <= n then inbox.(p) <- (env.src, env.payload) :: inbox.(p)
    | Wire.Broadcast ->
        (* One shared cell for all recipients: broadcast delivery costs n+1
           conses, not n+1 tuples as well. *)
        let cell = (env.src, env.payload) in
        for p = 0 to n do
          inbox.(p) <- cell :: inbox.(p)
        done
  in
  (* Route one faulted copy: normal copies join the next-round inboxes,
     delayed copies park in [pending] until their due round. *)
  let route round (d, env) =
    if d <= 0 then deliver inbox_next env else pending := (round + 1 + d, env) :: !pending
  in
  (* Channel faults interpose between the machines and the wire: each
     envelope becomes the list of (delay, copy) actually in flight.  The
     injector is asked in send order. *)
  let rec interpose r = function
    | [] -> []
    | env :: rest ->
        let copies = faults.on_envelope ~round:r env in
        copies @ interpose r rest
  in
  (* Rushing: the adversary sees round-r messages to corrupted parties and
     all broadcasts before answering.  It taps the wire, so it sees the
     faulted copies (tampered payloads included), not the pristine
     sends. *)
  let rec rushed = function
    | [] -> []
    | ((_, env) : int * Wire.envelope) :: rest -> (
        match env.dst with
        | Wire.To p when not (p >= 1 && p <= n && corrupted.(p)) -> rushed rest
        | _ -> env :: rushed rest)
  in
  (* Every corrupted party's inbox, finished or not, ascending by id. *)
  let coalition_inboxes inboxes =
    let l = ref [] in
    for id = n downto 1 do
      if corrupted.(id) then l := (id, inboxes.(id)) :: !l
    done;
    !l
  in
  let active () =
    (* At least one party in 1..n still honestly running. *)
    let some = ref false in
    for i = 1 to n do
      match slots.(i) with
      | Running _ when not corrupted.(i) -> some := true
      | _ -> ()
    done;
    !some
  in
  (* Inboxes are accumulated in reverse order of delivery; present them
     sender-ordered for determinism.  Empty and singleton inboxes (the
     overwhelmingly common case) are already sorted. *)
  let sort_inboxes a =
    for i = 0 to n do
      match a.(i) with [] | [ _ ] -> () | l -> a.(i) <- List.stable_sort by_src l
    done
  in
  let msgs = ref 0 in
  let count_msg r =
    incr msgs;
    if !msgs > msg_limit then
      raise (Fail (Round_limit { round = r; messages = !msgs; limit = msg_limit }))
  in
  let honest_envelopes = ref [] in
  let rec perform r id = function
    | [] -> ()
    | action :: rest ->
        (match action with
        | Machine.Send (dst, payload) ->
            let env = { Wire.src = id; dst; payload } in
            count_msg r;
            Trace.record trace (Trace.Sent (r, env));
            honest_envelopes := env :: !honest_envelopes
        | Machine.Output v ->
            slots.(id) <- Finished (Honest_output v);
            if id > 0 then results.(id) <- Honest_output v;
            Trace.record trace (Trace.Output_event (r, id, v))
        | Machine.Abort_self ->
            slots.(id) <- Finished Honest_abort;
            if id > 0 then results.(id) <- Honest_abort;
            Trace.record trace (Trace.Aborted (r, id)));
        perform r id rest
  in
  let step_slot r id =
    match slots.(id) with
    | Running (m, input, setup) when not corrupted.(id) -> (
        match m.Machine.step ~round:r ~inbox:inbox_now.(id) with
        | m', actions ->
            slots.(id) <- Running (m', input, setup);
            perform r id actions
        | exception e when not (fatal e) ->
            (* A machine that cannot digest its inbox is a machine that
               aborts: contain the raise, record it, keep the run alive.
               Anything the adversary (or a fault) gained by crashing a
               party is therefore bounded by what aborting it gains. *)
            slots.(id) <- Finished Honest_abort;
            if id > 0 then results.(id) <- Honest_abort;
            record_failure
              (Malformed_message { round = r; party = id; reason = Printexc.to_string e });
            Metrics.incr c_machine_faults;
            Trace.record trace (Trace.Aborted (r, id)))
    | _ -> ()
  in
  let adversary_send r (src, dst, payload) =
    if src < 1 || src > n || not corrupted.(src) then
      raise
        (Fail
           (Protocol_violation
              { round = r;
                party = src;
                reason = Printf.sprintf "adversary sent from non-corrupted party %d" src }));
    let env = { Wire.src; dst; payload } in
    count_msg r;
    Trace.record trace (Trace.Sent (r, env));
    (* Adversary traffic crosses the same faulty channels. *)
    iter_round route r (faults.on_envelope ~round:r env)
  in
  let round = ref 0 in
  let exec_round () =
    let r = !round in
    Array.blit inbox_next 0 inbox_now 0 (n + 1);
    Array.fill inbox_next 0 (n + 1) [];
    (* Delayed envelopes whose due round has arrived join this round's
       inboxes alongside the normally-delivered ones. *)
    (match !pending with
    | [] -> ()
    | ps ->
        let due, rest = List.partition (fun (d, _) -> d <= r) ps in
        pending := rest;
        List.iter (fun (_, env) -> deliver inbox_now env) (List.rev due));
    sort_inboxes inbox_now;
    (* Crash-stop faults: a crashed party is an honest party that aborts
       with no output and sends nothing from this round on — exactly the
       abort the fairness reduction charges the adversary for. *)
    for id = 1 to n do
      match slots.(id) with
      | Running _ when (not corrupted.(id)) && faults.crash ~round:r id ->
          slots.(id) <- Finished Honest_abort;
          results.(id) <- Honest_abort;
          record_failure (Party_crash { round = r; party = id });
          Metrics.incr c_crashes;
          Trace.record trace (Trace.Crashed (r, id))
      | _ -> ()
    done;
    honest_envelopes := [];
    (* The functionality steps first (a trusted party answers within the
       round structure like any other machine; ordering only affects the
       trace). *)
    for id = 0 to n do
      step_slot r id
    done;
    let faulted = interpose r (List.rev !honest_envelopes) in
    let view =
      { Adversary.round = r;
        n;
        corrupted = !coalition;
        inbox = coalition_inboxes inbox_now;
        rushed = rushed faulted }
    in
    let decision = adv.Adversary.step view in
    iter_round route r faulted;
    iter_round adversary_send r decision.Adversary.send;
    claim r decision.Adversary.claim_learned;
    iter_round corrupt_party r decision.Adversary.corrupt
  in
  while active () && !round < protocol.Protocol.max_rounds do
    incr round;
    Otrace.with_span ~cat:"engine" "engine.round" exec_round
  done;
  let stopped_at_max = active () in
  (* Flush: the execution stopped because every honest party finished, but
     messages sent in the final round are still in flight; a real adversary
     receives them.  Give it one last step (claims only — nobody is left to
     read further messages). *)
  let r = !round + 1 in
  sort_inboxes inbox_next;
  if !coalition <> [] then begin
    let view =
      { Adversary.round = r;
        n;
        corrupted = !coalition;
        inbox = coalition_inboxes inbox_next;
        rushed = [] }
    in
    claim r (adv.Adversary.step view).Adversary.claim_learned
  end;
  if Metrics.enabled () then begin
    Metrics.incr c_execs;
    Metrics.add c_rounds !round;
    Metrics.add c_msgs !msgs;
    let ncorr = ref 0 and naborts = ref 0 in
    for i = 1 to n do
      if corrupted.(i) then incr ncorr;
      match results.(i) with Honest_abort -> incr naborts | _ -> ()
    done;
    Metrics.add c_corruptions !ncorr;
    Metrics.add c_aborts !naborts;
    if stopped_at_max then Metrics.incr c_breach_rounds
  end;
  { results = List.init n (fun i -> (i + 1, results.(i + 1)));
    claims = List.rev !claims;
    rounds = !round;
    trace;
    failures = List.rev !failures }

let exec ~faults ~adv p =
  Otrace.with_span ~cat:"engine" "engine.run" (fun () -> run_exec ~faults ~adv p)

(* The adversary is instantiated before the functionality; each draws
   from its own copy, so the order moves no stream.  A keyed adversary
   draws no coin after choosing its coalition (see [Adversary.t]), so a
   fault-free play of the same key and coalition is the same execution:
   it returns the remembered outcome and runs (and counts) nothing. *)
let run_prepared ?(faults = no_faults) ~adversary p =
  let adv = adversary.Adversary.make (Rng.copy p.p_adversary_rng) ~protocol:p.p_protocol in
  match adversary.Adversary.key with
  | Some key when faults == no_faults -> (
      let play = (key, adv.Adversary.initial) in
      match Hashtbl.find_opt p.p_plays play with
      | Some outcome -> outcome
      | None ->
          let outcome = exec ~faults ~adv p in
          Hashtbl.add p.p_plays play outcome;
          outcome)
  | _ -> exec ~faults ~adv p

let run ~protocol ~adversary ~inputs ~rng =
  run_prepared ~adversary (prepare ~protocol ~inputs ~rng)
