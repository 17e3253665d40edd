(* `dune build @obs-smoke` — the observability layer end to end, wired
   into @repro: run one Monte-Carlo estimate with everything off, re-run it
   with metrics and tracing on, and fail the alias unless (a) the two
   estimates are bit-identical (the zero-perturbation contract) and (b) the
   exported trace and metrics JSON parse back through the shared
   Fairness.Json parser with the expected shape. *)

module Mc = Fairness.Montecarlo
module Json = Fairness.Json
module Obs_json = Fairness.Obs_json
module Metrics = Fair_obs.Metrics
module Trace = Fair_obs.Trace
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("obs-smoke: FAIL — " ^ s); exit 1) fmt

let trials = 300

let estimate () =
  let func = Func.concat ~n:5 in
  Mc.estimate ~jobs:2 ~protocol:(Fair_protocols.Optn.hybrid func)
    ~adversary:(Adv.greedy ~func (Adv.Random_subset 4))
    ~func ~gamma:Fairness.Payoff.default
    ~env:(Mc.uniform_field_inputs ~n:5) ~trials ~seed:42 ()

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> fail "%s does not parse: %s" path e

let get path j key =
  match Json.member key j with
  | Ok v -> v
  | Error e -> fail "%s: missing %s (%s)" path key e

let () =
  let off = estimate () in
  Metrics.enable ();
  Trace.enable ();
  let on = estimate () in
  Obs_json.write_trace_file ~path:"obs_trace.json";
  Obs_json.write_metrics_file ~path:"obs_metrics.json";
  Trace.disable ();
  Metrics.disable ();
  if
    not
      (off.Mc.utility = on.Mc.utility
      && off.Mc.std_err = on.Mc.std_err
      && off.Mc.counts = on.Mc.counts
      && off.Mc.corrupted_counts = on.Mc.corrupted_counts
      && off.Mc.trials = on.Mc.trials)
  then
    fail "traced estimate differs from untraced (u: %.17g vs %.17g)" off.Mc.utility
      on.Mc.utility;
  (* Trace JSON: thread metadata plus at least the engine/mc spans. *)
  let t = parse "obs_trace.json" in
  (match Json.to_list (get "obs_trace.json" t "traceEvents") with
  | Error e -> fail "obs_trace.json: traceEvents not a list (%s)" e
  | Ok evs ->
      let names =
        List.filter_map (fun e -> match Json.member "name" e with Ok (Json.Str s) -> Some s | _ -> None) evs
      in
      List.iter
        (fun required ->
          if not (List.mem required names) then fail "trace has no %S span" required)
        [ "engine.run"; "engine.round"; "mc.plays" ]);
  (* Metrics JSON: the registry must have counted every trial exactly once. *)
  let m = parse "obs_metrics.json" in
  (match get "obs_metrics.json" m "schema" with
  | Json.Str "fairness-metrics/1" -> ()
  | _ -> fail "obs_metrics.json: bad schema");
  let counters = get "obs_metrics.json" (get "obs_metrics.json" m "metrics") "counters" in
  let counter name =
    match Json.to_int (get "obs_metrics.json" counters name) with
    | Ok v -> v
    | Error e -> fail "counter %s: %s" name e
  in
  if counter "mc.trials" <> trials then
    fail "mc.trials = %d, expected %d" (counter "mc.trials") trials;
  if counter "engine.executions" <> trials then
    fail "engine.executions = %d, expected %d" (counter "engine.executions") trials;
  ignore (get "obs_metrics.json" m "pool");
  Printf.printf
    "obs-smoke: OK — estimate bit-identical with tracing+metrics on; trace and metrics JSON parse\n"
