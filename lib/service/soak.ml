(* Chaos soak: N scripted clients against a live server while the driver
   injects worker kills, frame truncation, read stalls and one in-process
   daemon crash-restart.  See soak.mli for the contract. *)

module Rng = Fair_crypto.Rng

type config = {
  seed : int;
  clients : int;
  ops_per_client : int;
  workers : int;
  queue_limit : int;
  cost_budget : float;
  worker_kills : int;
  restart_server : bool;
}

let default_config =
  {
    seed = 1105;
    clients = 4;
    ops_per_client = 3;
    workers = 2;
    queue_limit = 8;
    cost_budget = 2.0;
    worker_kills = 2;
    restart_server = true;
  }

type report = {
  sr_ops : int;
  sr_ok : int;
  sr_outcomes : (string * int) list;
  sr_worker_kills : int;
  sr_worker_restarts : int;
  sr_server_restarts : int;
  sr_cache_healed : bool;
  sr_problems : string list;
}

let passed r = r.sr_problems = []

let report_to_string r =
  let outcomes =
    r.sr_outcomes |> List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) |> String.concat " "
  in
  let problems =
    match r.sr_problems with
    | [] -> ""
    | ps -> "\n  problems:\n    " ^ String.concat "\n    " ps
  in
  Printf.sprintf
    "soak: %s — %d ops (%d ok) [%s]; %d worker kill(s) → %d restart(s); %d server \
     restart(s); cache %s%s"
    (if passed r then "OK" else "FAIL")
    r.sr_ops r.sr_ok outcomes r.sr_worker_kills r.sr_worker_restarts r.sr_server_restarts
    (if r.sr_cache_healed then "healed" else "DID NOT HEAL")
    problems

(* The two standing questions every clean op asks — small budgets keep the
   smoke inside its ~2 s envelope, and a shared (kind, experiment, budget,
   seed) means clients coalesce and the cache heats up exactly as a real
   fleet's would. *)
let base_query experiment =
  {
    Proto.q_kind = Proto.Search;
    q_experiment = experiment;
    q_budget = 240;
    q_seed = 11;
    q_zoo = false;
    q_fresh = false;
    q_trace_id = "";
    q_span_id = "";
    q_deadline = 0.;
    q_attempt = 0;
  }

let experiments = [ "E1"; "E2" ]

let inline_reference () =
  List.map
    (fun ex ->
      match Handlers.answer ~jobs:1 (base_query ex) with
      | Ok (body, _) -> (ex, body)
      | Result.Error f ->
          invalid_arg (Printf.sprintf "soak reference compute %s: %s" ex (Failure.to_string f)))
    experiments

(* Per-attempt closure shared by every retrying op: fresh connection each
   time (a failed attempt's socket is poisoned or dead), connect failures
   folded into the taxonomy as [Connection_lost] — exactly the CLI's
   mapping, so the soak exercises the same retry matrix users get. *)
let attempt_query ~socket q ~attempt =
  match Client.connect ~socket ~timeout:5.0 () with
  | Result.Error msg -> Result.Error (Failure.Connection_lost { reason = msg })
  | Ok c ->
      let res = Client.query c { q with Proto.q_attempt = attempt } in
      Client.close c;
      res

let retry_policy =
  { Client.Retry.retries = 8; budget_s = 2.0; base_s = 0.005; cap_s = 0.08 }

(* A raw misbehaving peer on its own socket, reads bounded like a
   client's: [act] returns the op's label, and a socket error reads as
   ["connection-lost"]. *)
let raw_peer ~socket act =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> "connection-lost"
  | fd ->
      let label =
        try
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          act fd
        with Unix.Unix_error _ -> "connection-lost"
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      label

(* Claims a 64-byte frame, delivers 7 bytes, holds the connection open
   (the server's reader thread is mid-frame, blocked), then vanishes.  The
   reader must classify the truncated stream and tear down that connection
   only; the op itself always reads "stalled". *)
let stall ~socket =
  ignore
    (raw_peer ~socket (fun fd ->
         ignore (Unix.write_substring fd "\000\000\000\064partial" 0 11);
         Unix.sleepf 0.05;
         "stalled"));
  "stalled"

(* Frame truncation: one well-framed query whose payload is cut short.  The
   server answers [Malformed_frame] and closes; a race with the teardown
   reads as [Connection_lost].  Both are classified. *)
let truncated ~socket q =
  raw_peer ~socket (fun fd ->
      let payload = Proto.encode_request (Proto.Query q) in
      Frame.write fd (String.sub payload 0 (String.length payload / 2));
      match Frame.read fd (Frame.Decoder.create ()) with
      | Ok (Some reply) -> (
          match Proto.decode_response reply with
          | Ok (Proto.Error f) -> Failure.code f
          | Ok _ -> "answered"
          | Result.Error _ -> "connection-lost")
      | Ok None | Result.Error _ -> "connection-lost")

(* One scripted client op → one taxonomy label.  Totality is the point:
   every arm below ends in a string, and the only way a label goes missing
   is a hang — which the joined threads + socket timeouts rule out. *)
let classify = function
  | Ok r -> if r.Proto.r_cached then "ok-cached" else "ok-fresh"
  | Result.Error (`Failed f) -> Failure.code f
  | Result.Error (`Exhausted (_, f)) -> "exhausted:" ^ Failure.code f

(* Fault kinds are pinned to fixed (client, op) slots so every injected
   misbehaviour is exercised on every run regardless of seed; the
   remaining slots roll dice, so larger schedules mix further. *)
let op_kind ~client ~op rng =
  match (client, op) with
  | 0, 0 -> `Stall
  | 1, 0 -> `Trunc
  | 2, 0 -> `Deadline
  | _ -> (
      match Rng.bits rng 7 mod 10 with
      | 0 -> `Trunc
      | 1 -> `Stall
      | 2 -> `Deadline
      | _ -> `Normal)

let run_op ~socket ~seed ~client ~op rng =
  let q = base_query (List.nth experiments (op mod List.length experiments)) in
  match op_kind ~client ~op rng with
  | `Trunc -> truncated ~socket q
  | `Stall -> stall ~socket
  | `Deadline ->
      (* A tight deadline on a cache-bypassing query: either it runs in
         time (ok-fresh) or the scheduler sheds it (deadline-exceeded) —
         both classified, neither retried. *)
      let q =
        {
          q with
          Proto.q_fresh = true;
          q_deadline = 0.002;
          q_seed = 7_000 + (client * 100) + op;
          q_budget = 120;
        }
      in
      classify
        (match attempt_query ~socket q ~attempt:0 with
        | Ok r -> Ok r
        | Result.Error f -> Result.Error (`Failed f))
  | `Normal ->
      let op_seed = seed + (client * 1_000) + op in
      classify
        (Client.Retry.run ~policy:retry_policy ~seed:op_seed (attempt_query ~socket q))

let run ?(config = default_config) ~socket () =
  let reference = inline_reference () in
  let cache = Cache.create ~capacity:32 () in
  let start_server () =
    Server.start ~socket ~cache ~queue_limit:config.queue_limit
      ~cost_budget:config.cost_budget ~workers:config.workers ()
  in
  let server = ref (start_server ()) in
  let restarts_banked = ref 0 in
  let server_restarts = ref 0 in
  let outcomes = Array.make (config.clients * config.ops_per_client) None in
  let threads =
    List.init config.clients (fun client ->
        Thread.create
          (fun () ->
            let rng =
              Rng.split (Rng.of_int_seed config.seed)
                ~label:(Printf.sprintf "soak-client-%d" client)
            in
            for op = 0 to config.ops_per_client - 1 do
              let label = run_op ~socket ~seed:config.seed ~client ~op rng in
              outcomes.((client * config.ops_per_client) + op) <- Some label
            done)
          ())
  in
  (* Driver-side chaos, sequenced on this thread.  Each injected kill is
     chased by a fresh unique-key query so a dispatch (and therefore the
     supervision path) definitely happens; its answer is classified like
     any client's. *)
  let driver_outcomes = ref [] in
  for k = 1 to config.worker_kills do
    Unix.sleepf 0.05;
    Server.chaos_kill_workers !server 1;
    let q =
      { (base_query "E1") with Proto.q_fresh = true; q_seed = 90_000 + k; q_budget = 120 }
    in
    let label =
      classify
        (Client.Retry.run
           ~policy:{ retry_policy with Client.Retry.retries = 4 }
           ~seed:(config.seed + 500 + k)
           (attempt_query ~socket q))
    in
    driver_outcomes := label :: !driver_outcomes
  done;
  if config.restart_server then begin
    Unix.sleepf 0.05;
    restarts_banked := !restarts_banked + Server.worker_restarts !server;
    Server.stop !server;
    (* Crash-restart mid-stream: same socket path, same cache value — the
       in-process stand-in for kill -9 + relaunch.  Clients mid-query see
       Connection_lost and their retry policy carries them across. *)
    server := start_server ();
    incr server_restarts
  end;
  List.iter Thread.join threads;
  (* Heal check: after all of the above, a clean client gets the right
     bytes for every experiment from the surviving server. *)
  let healed = ref true in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun ex ->
      match attempt_query ~socket (base_query ex) ~attempt:0 with
      | Ok r ->
          if Some r.Proto.r_body <> List.assoc_opt ex reference then begin
            healed := false;
            problem "heal query %s returned different bytes than the inline reference" ex
          end
      | Result.Error f ->
          healed := false;
          problem "heal query %s failed: %s" ex (Failure.to_string f))
    experiments;
  let worker_restarts = !restarts_banked + Server.worker_restarts !server in
  Server.stop !server;
  let labels =
    List.rev !driver_outcomes
    @ (Array.to_list outcomes
      |> List.mapi (fun i o ->
             match o with
             | Some l -> l
             | None ->
                 problem "client %d op %d never classified" (i / config.ops_per_client)
                   (i mod config.ops_per_client);
                 "unclassified")
      )
  in
  let tally =
    List.fold_left
      (fun acc l ->
        let n = match List.assoc_opt l acc with Some n -> n | None -> 0 in
        (l, n + 1) :: List.remove_assoc l acc)
      [] labels
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let ok =
    List.fold_left
      (fun acc (l, n) -> if l = "ok-fresh" || l = "ok-cached" then acc + n else acc)
      0 tally
  in
  if ok = 0 then problem "no op completed successfully — the soak proved nothing";
  if config.worker_kills > 0 && worker_restarts = 0 then
    problem "%d worker kill(s) injected but no restart was observed" config.worker_kills;
  {
    sr_ops = List.length labels;
    sr_ok = ok;
    sr_outcomes = tally;
    sr_worker_kills = config.worker_kills;
    sr_worker_restarts = worker_restarts;
    sr_server_restarts = !server_restarts;
    sr_cache_healed = !healed;
    sr_problems = List.rev !problems;
  }
