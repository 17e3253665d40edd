(* Tests for the observability layer (Fair_obs + Fairness.Obs_json): shard
   merging is deterministic under the domain pool, histogram bucket edges
   are inclusive upper bounds, traces nest and round-trip through the
   shared JSON module, and — the load-bearing invariant — enabling metrics
   and tracing perturbs no estimate at any job count. *)

module Metrics = Fair_obs.Metrics
module Trace = Fair_obs.Trace
module Scope = Fair_obs.Scope
module Clock = Fair_obs.Clock
module Parallel = Fairness.Parallel
module Json = Fairness.Json
module Obs_json = Fairness.Obs_json
module Mc = Fairness.Montecarlo
module Racing = Fair_search.Racing
module Func = Fair_mpc.Func
module Adv = Fair_protocols.Adversaries

let quiesce () =
  Metrics.disable ();
  Trace.disable ();
  Metrics.reset ();
  Trace.clear ()

(* ------------------------- clock ------------------------------------ *)

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "now_ns monotone" true (b >= a);
  Alcotest.(check bool) "elapsed_s non-negative" true (Clock.elapsed_s ~since_ns:a >= 0.0)

(* ------------------------- metrics ---------------------------------- *)

let c_items = Metrics.counter "test.items"

(* Per-chunk counter increments from pool workers must merge to the same
   snapshot as the sequential run: counters are integers merged by
   addition, so for a fixed-chunk workload the totals are independent of
   which domain executed which chunk. *)
let test_shard_merge_deterministic () =
  let workload jobs =
    quiesce ();
    Metrics.enable ();
    ignore
      (Parallel.map_range ~jobs ~chunk_size:64 ~lo:0 ~hi:1000 (fun ~lo ~hi ->
           Metrics.add c_items (hi - lo)));
    let s = Metrics.snapshot () in
    Metrics.disable ();
    s
  in
  let s1 = workload 1 in
  let s4 = workload 4 in
  Alcotest.(check int) "sequential total" 1000 (List.assoc "test.items" s1.Metrics.counters);
  Alcotest.(check bool) "jobs=1 and jobs=4 snapshots identical" true (s1 = s4)

let test_counter_disabled_is_inert () =
  quiesce ();
  Metrics.incr c_items;
  Metrics.add c_items 41;
  Metrics.enable ();
  let s = Metrics.snapshot () in
  Metrics.disable ();
  Alcotest.(check int) "writes while disabled dropped" 0
    (List.assoc "test.items" s.Metrics.counters)

let h_edges = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.edges"

let test_histogram_bucket_edges () =
  quiesce ();
  Metrics.enable ();
  List.iter (Metrics.observe h_edges) [ 0.5; 1.0; 1.5; 2.0; 4.0; 4.1 ];
  let s = Metrics.snapshot () in
  Metrics.disable ();
  let h = List.assoc "test.edges" s.Metrics.histograms in
  (* Bounds are inclusive: v lands in the first bucket with v <= bound. *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "bucket counts"
    [ (1.0, 2); (2.0, 2); (4.0, 1) ]
    h.Metrics.hbuckets;
  Alcotest.(check int) "overflow" 1 h.Metrics.overflow;
  Alcotest.(check int) "total" 6 h.Metrics.total

let test_histogram_validation () =
  Alcotest.check_raises "empty buckets"
    (Invalid_argument "Metrics.histogram: empty buckets")
    (fun () -> ignore (Metrics.histogram ~buckets:[||] "test.bad-empty"));
  Alcotest.check_raises "non-increasing buckets"
    (Invalid_argument "Metrics.histogram: buckets not strictly increasing")
    (fun () -> ignore (Metrics.histogram ~buckets:[| 1.0; 1.0 |] "test.bad-flat"));
  ignore (Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test.edges");
  Alcotest.check_raises "re-registration with different buckets"
    (Invalid_argument "Metrics.histogram: test.edges re-registered with different buckets")
    (fun () -> ignore (Metrics.histogram ~buckets:[| 9.0 |] "test.edges"))

let g_level = Metrics.gauge "test.level"

let test_gauge_and_reset () =
  quiesce ();
  Metrics.enable ();
  Metrics.set_gauge g_level 1.5;
  Metrics.set_gauge g_level 2.5;
  let s = Metrics.snapshot () in
  Alcotest.(check (float 0.0)) "last write wins" 2.5 (List.assoc "test.level" s.Metrics.gauges);
  Metrics.reset ();
  let s = Metrics.snapshot () in
  Metrics.disable ();
  Alcotest.(check bool) "reset unsets gauges" true
    (not (List.mem_assoc "test.level" s.Metrics.gauges))

(* ------------------------- tracing ---------------------------------- *)

exception Boom

let test_trace_nested_spans () =
  quiesce ();
  Trace.enable ();
  Trace.with_span ~cat:"t" "outer" (fun () ->
      Trace.with_span ~cat:"t" "inner" (fun () -> ignore (Sys.opaque_identity 42)));
  (try Trace.with_span ~cat:"t" "raises" (fun () -> raise Boom) with Boom -> ());
  Trace.instant ~cat:"t" "mark";
  Trace.disable ();
  let evs = Trace.export () in
  let find name = List.find (fun (e : Trace.event) -> e.Trace.name = name) evs in
  let span e = match e.Trace.ph with Trace.Span d -> d | Trace.Instant -> Alcotest.fail "not a span" in
  let outer = find "outer" and inner = find "inner" in
  (* Spans land in completion order: inner closes before outer. *)
  Alcotest.(check (list string)) "recording order"
    [ "inner"; "outer"; "raises"; "mark" ]
    (List.map (fun (e : Trace.event) -> e.Trace.name) evs);
  Alcotest.(check bool) "inner starts after outer" true (inner.Trace.ts_ns >= outer.Trace.ts_ns);
  Alcotest.(check bool) "inner nests inside outer" true
    (inner.Trace.ts_ns + span inner <= outer.Trace.ts_ns + span outer);
  Alcotest.(check bool) "span recorded despite raise" true (span (find "raises") >= 0);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ())

let test_trace_json_roundtrip () =
  quiesce ();
  Trace.enable ();
  Trace.with_span ~cat:"t" ~args:[ ("k", "v") ] "spanned" (fun () -> ());
  Trace.disable ();
  let doc = Obs_json.trace_document () in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "trace JSON does not re-parse: %s" e
  | Ok j ->
      let evs =
        match Json.(member "traceEvents" j) with
        | Ok l -> ( match Json.to_list l with Ok l -> l | Error e -> Alcotest.fail e)
        | Error e -> Alcotest.fail e
      in
      (* one thread_name metadata record + the span *)
      Alcotest.(check int) "event count" 2 (List.length evs);
      let phs =
        List.map
          (fun e ->
            match Json.(member "ph" e) with
            | Ok (Json.Str s) -> s
            | _ -> Alcotest.fail "missing ph")
          evs
      in
      Alcotest.(check (list string)) "phases" [ "M"; "X" ] phs

let test_trace_buffer_bound () =
  quiesce ();
  Trace.enable ~max_events_per_domain:4 ();
  for _ = 1 to 10 do
    Trace.instant "tick"
  done;
  Trace.disable ();
  Alcotest.(check int) "bounded buffer keeps max" 4 (List.length (Trace.export ()));
  Alcotest.(check int) "excess counted as dropped" 6 (Trace.dropped ())

let test_trace_recent_and_scope () =
  quiesce ();
  Trace.enable ();
  Scope.within (Some (Scope.create ~args:[ ("trace_id", "abc123") ] ~sink:ignore)) (fun () ->
      Trace.with_span ~cat:"t" "scoped-span" (fun () -> ());
      Trace.instant ~cat:"t" "scoped-mark");
  Trace.with_span ~cat:"t" "plain-span" (fun () -> ());
  Trace.disable ();
  let evs = Trace.export () in
  let args name =
    (List.find (fun (e : Trace.event) -> e.Trace.name = name) evs).Trace.args
  in
  Alcotest.(check (option string)) "span carries the scope's args" (Some "abc123")
    (List.assoc_opt "trace_id" (args "scoped-span"));
  Alcotest.(check (option string)) "instant carries the scope's args" (Some "abc123")
    (List.assoc_opt "trace_id" (args "scoped-mark"));
  Alcotest.(check (option string)) "the scope ends with the callback" None
    (List.assoc_opt "trace_id" (args "plain-span"));
  (* recent: newest events, still in recording order *)
  let last_two = Trace.recent ~limit:2 () in
  Alcotest.(check (list string)) "recent keeps the tail, in order"
    [ "scoped-mark"; "plain-span" ]
    (List.map (fun (e : Trace.event) -> e.Trace.name) last_two)

(* --------------------------- ids ------------------------------------- *)

let test_ids_shape () =
  let t = Fair_obs.Ids.trace_id () and s = Fair_obs.Ids.span_id () in
  Alcotest.(check bool) "trace id valid by its own validator" true
    (Fair_obs.Ids.valid_trace_id t);
  Alcotest.(check bool) "span id valid by its own validator" true
    (Fair_obs.Ids.valid_span_id s);
  Alcotest.(check int) "trace id is 32 chars" 32 (String.length t);
  Alcotest.(check int) "span id is 16 chars" 16 (String.length s);
  Alcotest.(check bool) "consecutive trace ids differ" true
    (t <> Fair_obs.Ids.trace_id ());
  Alcotest.(check bool) "zero-filled ids rejected" false
    (Fair_obs.Ids.valid_trace_id (String.make 32 'g'));
  Alcotest.(check bool) "uppercase rejected" false
    (Fair_obs.Ids.valid_span_id "0123456789ABCDEF")

(* ------------------------- percentiles ------------------------------- *)

(* The bucket-upper-bound estimator on a hand-built snapshot, where every
   rank can be checked by eye.  10 observations over bounds 1/2/4 with
   counts 5/3/1 and one overflow: cumulative 5, 8, 9. *)
let hist ~buckets ~overflow =
  { Metrics.hbuckets = buckets;
    overflow;
    total = overflow + List.fold_left (fun a (_, c) -> a + c) 0 buckets }

let test_percentile_estimator () =
  let h = hist ~buckets:[ (1.0, 5); (2.0, 3); (4.0, 1) ] ~overflow:1 in
  let pct q = Obs_json.percentile h q in
  Alcotest.(check (option (float 0.0))) "p50 -> rank 5 -> first bound" (Some 1.0) (pct 0.5);
  Alcotest.(check (option (float 0.0))) "p80 -> rank 8 -> second bound" (Some 2.0) (pct 0.8);
  Alcotest.(check (option (float 0.0))) "p90 -> rank 9 -> third bound" (Some 4.0) (pct 0.9);
  Alcotest.(check (option (float 0.0))) "p99 lands in overflow -> no finite bound" None
    (pct 0.99);
  Alcotest.(check (option (float 0.0))) "tiny q still answers rank 1" (Some 1.0) (pct 1e-9);
  Alcotest.(check (option (float 0.0))) "empty histogram -> None" None
    (Obs_json.percentile (hist ~buckets:[ (1.0, 0) ] ~overflow:0) 0.5);
  Alcotest.(check (option (float 0.0))) "q = 0 rejected" None (pct 0.0);
  Alcotest.(check (option (float 0.0))) "q > 1 rejected" None (pct 1.5);
  Alcotest.(check (option (float 0.0))) "NaN q rejected" None (pct Float.nan)

(* The rendered form (satellite S6): per-histogram p50/p90/p99, [null] for
   no-estimate, surviving a print + re-parse through Fairness.Json. *)
let test_percentiles_json_roundtrip () =
  quiesce ();
  Metrics.enable ();
  (* 10 observations: 6 in the first bucket, 3 in the second, 1 overflow —
     p50 -> rank 5 -> 1.0, p90 -> rank 9 -> 2.0, p99 -> rank 10 -> overflow *)
  List.iter (Metrics.observe h_edges)
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 1.5; 1.6; 1.7; 9.9 ];
  let doc = Obs_json.percentiles (Metrics.snapshot ()) in
  Metrics.disable ();
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "percentiles JSON does not re-parse: %s" e
  | Ok j -> (
      match Json.member "test.edges" j with
      | Error e -> Alcotest.fail e
      | Ok edges ->
          (match Json.member "p50" edges with
          | Ok (Json.Num v) -> Alcotest.(check (float 0.0)) "p50" 1.0 v
          | _ -> Alcotest.fail "p50 missing or non-numeric");
          (match Json.member "p90" edges with
          | Ok (Json.Num v) -> Alcotest.(check (float 0.0)) "p90" 2.0 v
          | _ -> Alcotest.fail "p90 missing or non-numeric");
          (* rank 5 of 5 is the overflow observation (9.9 > 4.0) *)
          (match Json.member "p99" edges with
          | Ok Json.Null -> ()
          | _ -> Alcotest.fail "p99 in overflow must render null"))

(* --------------------------- qlog ------------------------------------ *)

module Qlog = Fair_obs.Qlog

let qev ?(ts = 1) ?(tid = "") ?(outcome = "ok") ?(queue_s = 0.002) ?(wall_s = 1.25)
    ?(deadline_s = 0.) ?(attempt = 0) key =
  { Qlog.ts_ns = ts; trace_id = tid; span_id = ""; kind = "search"; experiment = "E1";
    key; tier = "cold"; client = 3; worker = 0; queue_s; wall_s; deadline_s; attempt;
    trials = 400; counters = [ ("engine.rounds", 12); ("mc.trials", 400) ]; outcome }

let qlog_reset () =
  Qlog.disable ();
  Qlog.set_sink None;
  Qlog.clear ()

let test_qlog_disabled_is_inert () =
  qlog_reset ();
  Qlog.record (qev "k");
  Alcotest.(check int) "nothing recorded while disabled" 0 (Qlog.recorded ());
  Alcotest.(check (list reject)) "ring stays empty" [] (Qlog.recent ())

let test_qlog_ring_discipline () =
  qlog_reset ();
  Qlog.enable ~capacity:4 ();
  for i = 1 to 10 do
    Qlog.record (qev ~ts:i (Printf.sprintf "k%d" i))
  done;
  let keys = List.map (fun (e : Qlog.event) -> e.Qlog.key) (Qlog.recent ()) in
  Alcotest.(check (list string)) "ring keeps the newest, oldest first"
    [ "k7"; "k8"; "k9"; "k10" ] keys;
  Alcotest.(check int) "high-water count not capped by the ring" 10 (Qlog.recorded ());
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Qlog.enable: capacity < 1") (fun () -> Qlog.enable ~capacity:0 ());
  qlog_reset ()

(* One line per event through the sink; each line is standalone JSON that
   re-parses through Fairness.Json into exactly the structured rendering
   (Obs_json.qlog_event) the flight recorder uses — both answers to the
   same jq query must agree. *)
let test_qlog_jsonl_roundtrip () =
  qlog_reset ();
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fair-qlog-test-%d.jsonl" (Unix.getpid ()))
  in
  let oc = open_out path in
  Qlog.enable ();
  Qlog.set_sink (Some oc);
  let events =
    [ qev ~tid:"00112233445566778899aabbccddeeff" "k1";
      qev ~outcome:"query-failed" ~wall_s:Float.nan "k\"2\"\n\\weird";
      qev ~queue_s:Float.infinity "k3";
      qev ~outcome:"shed" ~deadline_s:1.5 ~attempt:2 "k4" ]
  in
  List.iter Qlog.record events;
  qlog_reset ();
  close_out oc;
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove path;
  Alcotest.(check int) "one sink line per event" (List.length events) (List.length lines);
  List.iter2
    (fun (e : Qlog.event) line ->
      (* the handwritten JSONL emitter and the Fairness.Json rendering must
         be the same document *)
      match (Json.of_string line, Json.of_string (Json.to_string (Obs_json.qlog_event e))) with
      | Ok a, Ok b -> Alcotest.(check bool) "line = structured rendering" true (a = b)
      | Error err, _ -> Alcotest.failf "sink line does not parse: %s: %s" err line
      | _, Error err -> Alcotest.failf "structured rendering does not parse: %s" err)
    events lines;
  (* spot-check the non-finite policy: NaN/inf became null, not "nan" *)
  (match Json.of_string (List.nth lines 1) with
  | Ok j -> (
      match Json.member "wall_s" j with
      | Ok Json.Null -> ()
      | _ -> Alcotest.fail "NaN wall_s must render null")
  | Error e -> Alcotest.fail e);
  match Json.of_string (List.nth lines 2) with
  | Ok j -> (
      match Json.member "queue_s" j with
      | Ok Json.Null -> ()
      | _ -> Alcotest.fail "infinite queue_s must render null")
  | Error e -> Alcotest.fail e

(* The resilience columns of the wide event: the three new outcome strings
   and the deadline/attempt fields survive both the in-memory ring and the
   JSONL rendering intact. *)
let test_qlog_resilience_fields () =
  qlog_reset ();
  Qlog.enable ~capacity:8 ();
  let events =
    [ qev ~outcome:"shed" ~deadline_s:0.25 ~attempt:1 "ks";
      qev ~outcome:"drained" "kd";
      qev ~outcome:"retried_by_client" ~attempt:4 "kr" ]
  in
  List.iter Qlog.record events;
  let back = Qlog.recent () in
  qlog_reset ();
  Alcotest.(check int) "all three events in the ring" (List.length events) (List.length back);
  List.iter2
    (fun (e : Qlog.event) (e' : Qlog.event) ->
      Alcotest.(check bool) ("ring round trip intact: " ^ e.Qlog.outcome) true (e = e'))
    events back;
  let num k j =
    match Result.bind (Json.member k j) Json.to_float with
    | Ok v -> v
    | Error e -> Alcotest.failf "qlog field %S: %s" k e
  in
  let str k j =
    match Result.bind (Json.member k j) Json.to_str with
    | Ok s -> s
    | Error e -> Alcotest.failf "qlog field %S: %s" k e
  in
  (match Json.of_string (Qlog.to_json_line (List.hd events)) with
  | Error e -> Alcotest.failf "shed line does not parse: %s" e
  | Ok j ->
      Alcotest.(check string) "outcome carried" "shed" (str "outcome" j);
      Alcotest.(check (float 1e-12)) "deadline carried" 0.25 (num "deadline_s" j);
      Alcotest.(check (float 1e-12)) "attempt carried" 1. (num "attempt" j));
  match Json.of_string (Qlog.to_json_line (List.nth events 2)) with
  | Error e -> Alcotest.failf "retried line does not parse: %s" e
  | Ok j ->
      Alcotest.(check string) "outcome carried" "retried_by_client" (str "outcome" j);
      Alcotest.(check (float 1e-12)) "no deadline renders 0" 0. (num "deadline_s" j);
      Alcotest.(check (float 1e-12)) "attempt carried" 4. (num "attempt" j)

(* --------------------- zero perturbation ---------------------------- *)

let estimate ~jobs () =
  let func = Func.concat ~n:3 in
  Mc.estimate ~jobs ~protocol:(Fair_protocols.Optn.hybrid func)
    ~adversary:(Adv.greedy ~func (Adv.Random_subset 2))
    ~func ~gamma:Fairness.Payoff.default
    ~env:(Mc.uniform_field_inputs ~n:3) ~trials:200 ~seed:11 ()

(* The whole point of the layer: switching every hook on changes no bit of
   the estimate, sequentially and under the pool. *)
let test_zero_perturbation () =
  List.iter
    (fun jobs ->
      quiesce ();
      let off = estimate ~jobs () in
      Metrics.enable ();
      Trace.enable ();
      let on = estimate ~jobs () in
      quiesce ();
      let name s = Printf.sprintf "jobs=%d: %s" jobs s in
      Alcotest.(check (float 0.0)) (name "utility") off.Mc.utility on.Mc.utility;
      Alcotest.(check (float 0.0)) (name "std_err") off.Mc.std_err on.Mc.std_err;
      Alcotest.(check int) (name "trials") off.Mc.trials on.Mc.trials;
      Alcotest.(check bool) (name "counts") true (off.Mc.counts = on.Mc.counts);
      Alcotest.(check bool) (name "corrupted_counts") true
        (off.Mc.corrupted_counts = on.Mc.corrupted_counts))
    [ 1; 4 ]

(* Synthetic deterministic arms: arm i's trials are a shared-grid stream at
   level i/10. *)
let level_pull arms ~lo ~hi =
  Array.map
    (fun i ->
      Array.init (hi - lo) (fun d ->
          let t = lo + d in
          Some
            { Mc.Trial.t_payoff = (float_of_int i /. 10.0) +. (0.001 *. float_of_int (t mod 7));
              t_event = Fairness.Events.E11;
              t_corrupted = 1;
              t_breach = false }))
    arms

(* ------------------------- request scope ---------------------------- *)

(* A scope must follow its computation onto pool domains.  The two tasks
   meet at a barrier, so the caller (blocked in one) cannot claim the
   other: a pool worker must run it.  Each task records a span, bumps a
   counter and fires a progress point; all three must reach the scope,
   and nothing may reach it once it has ended. *)
let test_scope_follows_pool_tasks () =
  quiesce ();
  Metrics.enable ();
  Trace.enable ();
  let points = Atomic.make 0 in
  let scope =
    Scope.create ~args:[ ("trace_id", "pooled") ] ~sink:(fun _ -> Atomic.incr points)
  in
  let started = Atomic.make 0 in
  let task () =
    Atomic.incr started;
    let t0 = Clock.now_ns () in
    while Atomic.get started < 2 && Clock.now_ns () - t0 < 10_000_000_000 do
      Domain.cpu_relax ()
    done;
    Trace.with_span ~cat:"t" "scoped-task" (fun () -> Metrics.incr c_items);
    Scope.progress { Scope.after = 1; batch = 1; running_mean = 0.; running_std_err = 0. }
  in
  let two_tasks () =
    ignore (Parallel.map_range ~jobs:2 ~chunk_size:1 ~lo:0 ~hi:2 (fun ~lo:_ ~hi:_ -> task ()))
  in
  Scope.within (Some scope) two_tasks;
  let in_scope = Metrics.scoped scope in
  (* the same work again, after the scope ended *)
  Atomic.set started 0;
  two_tasks ();
  let evs = Trace.export () and dropped = Trace.dropped () in
  quiesce ();
  (* A cap left by an earlier test would truncate the spans counted below. *)
  Alcotest.(check int) "no span dropped" 0 dropped;
  let tasks = List.filter (fun (e : Trace.event) -> e.Trace.name = "scoped-task") evs in
  let scoped, unscoped =
    List.partition (fun (e : Trace.event) -> List.mem_assoc "trace_id" e.Trace.args) tasks
  in
  Alcotest.(check int) "both in-scope task spans carry the trace id" 2 (List.length scoped);
  Alcotest.(check int) "spans after the scope carry none" 2 (List.length unscoped);
  Alcotest.(check bool) "the in-scope tasks ran on two domains" true
    (match scoped with
    | [ a; b ] -> a.Trace.tid <> b.Trace.tid
    | _ -> false);
  Alcotest.(check (list (pair string int))) "every task's increment, and only those"
    [ ("test.items", 2) ] in_scope;
  Alcotest.(check (list (pair string int))) "nothing attributed after the scope ended"
    in_scope (Metrics.scoped scope);
  Alcotest.(check int) "every task's progress point reached the sink, none after" 2
    (Atomic.get points)

exception Sink_failed

(* Telemetry can never kill a computation: an estimate and a race under a
   scope whose sink raises complete, bit-identical to runs with no scope. *)
let test_raising_sink_is_contained () =
  quiesce ();
  let raising = Some (Scope.create ~args:[] ~sink:(fun _ -> raise Sink_failed)) in
  let plain = estimate ~jobs:2 () in
  let scoped = Scope.within raising (estimate ~jobs:2) in
  Alcotest.(check (float 0.0)) "utility" plain.Mc.utility scoped.Mc.utility;
  Alcotest.(check (float 0.0)) "std_err" plain.Mc.std_err scoped.Mc.std_err;
  Alcotest.(check int) "trials" plain.Mc.trials scoped.Mc.trials;
  Alcotest.(check bool) "counts" true (plain.Mc.counts = scoped.Mc.counts);
  let race () = Racing.race_paired ~arms:[ 0; 1; 2; 3 ] ~pull:level_pull ~budget:2_000 () in
  let o = race () in
  let o' = Scope.within raising race in
  Alcotest.(check bool) "race log identical" true (o.Racing.log = o'.Racing.log)

(* ---------------------- racing round log ---------------------------- *)

(* The race must keep the top arm and the log must narrate every round. *)
let test_racing_round_log () =
  quiesce ();
  let run () = Racing.race_paired ~arms:[ 0; 1; 2; 3 ] ~pull:level_pull ~budget:2_000 () in
  let o = run () in
  Alcotest.(check int) "one log entry per round" o.Racing.rounds
    (List.length o.Racing.log);
  Alcotest.(check int) "best arm" 3 o.Racing.best;
  List.iteri
    (fun ix (r : Racing.round_log) ->
      Alcotest.(check int) "rounds numbered from 1" (ix + 1) r.Racing.index;
      Alcotest.(check bool) "incumbent is a live arm" true
        (List.exists (fun (s : Racing.arm_status) -> s.Racing.arm_ix = r.Racing.incumbent)
           r.Racing.statuses);
      List.iter
        (fun (s : Racing.arm_status) ->
          Alcotest.(check bool) "lcb <= ucb" true (s.Racing.lcb <= s.Racing.ucb))
        r.Racing.statuses)
    o.Racing.log;
  let spent_from_log =
    List.fold_left
      (fun acc (r : Racing.round_log) ->
        acc + (r.Racing.batch * List.length r.Racing.statuses))
      0 o.Racing.log
  in
  Alcotest.(check int) "log accounts for every trial" o.Racing.spent spent_from_log;
  (* The log is derived from the merged accumulators only: observability
     on/off cannot change it. *)
  Metrics.enable ();
  Trace.enable ();
  let o' = run () in
  quiesce ();
  Alcotest.(check bool) "log identical with obs enabled" true (o.Racing.log = o'.Racing.log)

(* ---------------------- pool statistics ----------------------------- *)

let test_pool_stats () =
  let before = Parallel.pool_stats () in
  ignore (Parallel.map_range ~jobs:4 ~chunk_size:1 ~lo:0 ~hi:256 (fun ~lo ~hi:_ -> lo * lo));
  let after = Parallel.pool_stats () in
  Alcotest.(check bool) "batch counted" true
    (after.Parallel.pooled_batches > before.Parallel.pooled_batches);
  Alcotest.(check int) "one stats row per spawned worker" after.Parallel.spawned
    (List.length after.Parallel.workers);
  let claimed =
    List.fold_left (fun acc w -> acc + w.Parallel.tasks) after.Parallel.caller.Parallel.tasks
      after.Parallel.workers
  in
  let claimed_before =
    List.fold_left (fun acc w -> acc + w.Parallel.tasks) before.Parallel.caller.Parallel.tasks
      before.Parallel.workers
  in
  (* Every task of the 256-task batch was claimed exactly once, by someone. *)
  Alcotest.(check bool) "every task claimed" true (claimed - claimed_before >= 256);
  List.iter
    (fun w -> Alcotest.(check bool) "busy time non-negative" true (w.Parallel.busy_ns >= 0))
    (after.Parallel.caller :: after.Parallel.workers)

exception Task_failed

(* A request's counters equal its solo run only if no pool task runs
   twice: the raising task's increment must land in its scope once. *)
let test_raising_task_counts_once () =
  quiesce ();
  Metrics.enable ();
  let scope = Scope.create ~args:[] ~sink:ignore in
  (match
     Scope.within (Some scope) (fun () ->
         Parallel.map_range ~jobs:2 ~chunk_size:1 ~lo:0 ~hi:4 (fun ~lo ~hi:_ ->
             Metrics.incr c_items;
             if lo = 1 then raise Task_failed))
   with
  | _ -> Alcotest.fail "expected the task's exception"
  | exception Task_failed -> ());
  let in_scope = Metrics.scoped scope in
  quiesce ();
  Alcotest.(check (list (pair string int))) "every task counted once"
    [ ("test.items", 4) ] in_scope

(* A participant that never ran (busy and idle both 0) must still carry a
   numeric utilization — 0/0 would render NaN, which is not JSON, and a
   missing field makes every consumer branch.  Round-trip through the
   parser to prove the emitted document stays well-formed. *)
let test_pool_utilization_clamped () =
  let zero = { Parallel.tasks = 0; busy_ns = 0; idle_ns = 0 } in
  let stats =
    { Parallel.spawned = 1;
      pooled_batches = 0;
      seq_batches = 0;
      inline_batches = 0;
      caller = { Parallel.tasks = 3; busy_ns = 750; idle_ns = 250 };
      workers = [ zero ] }
  in
  let doc = Obs_json.pool stats in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "pool JSON does not re-parse: %s" e
  | Ok j ->
      let util of_whom =
        match Json.(Result.bind (member of_whom j) (member "utilization")) with
        | Ok (Json.Num u) -> u
        | Ok _ -> Alcotest.failf "%s utilization not a number" of_whom
        | Error e -> Alcotest.failf "%s: %s" of_whom e
      in
      Alcotest.(check (float 1e-12)) "caller utilization" 0.75 (util "caller");
      (match Json.member "workers" j with
      | Ok (Json.List [ w ]) -> (
          match Json.member "utilization" w with
          | Ok (Json.Num u) ->
              Alcotest.(check (float 0.0)) "idle worker clamps to 0.0" 0.0 u
          | _ -> Alcotest.fail "idle worker lost its utilization field")
      | _ -> Alcotest.fail "workers list shape");
      (match Json.member "seq_batches" j with
      | Ok (Json.Num _) -> ()
      | _ -> Alcotest.fail "seq_batches field missing")

let test_obs_json_documents () =
  quiesce ();
  Metrics.enable ();
  Metrics.incr c_items;
  let doc = Obs_json.metrics_document () in
  Metrics.disable ();
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "metrics JSON does not re-parse: %s" e
  | Ok j ->
      (match Json.member "schema" j with
      | Ok (Json.Str s) -> Alcotest.(check string) "schema" "fairness-metrics/1" s
      | _ -> Alcotest.fail "missing schema");
      (match Json.(member "metrics" j) with
      | Ok m -> (
          match Json.member "counters" m with
          | Ok (Json.Obj counters) ->
              Alcotest.(check bool) "counters carried" true
                (List.mem_assoc "test.items" counters)
          | _ -> Alcotest.fail "missing counters")
      | Error e -> Alcotest.fail e);
      (match Json.member "pool" j with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "fair_obs"
    [ ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "metrics",
        [ Alcotest.test_case "shard merge deterministic across jobs" `Quick
            test_shard_merge_deterministic;
          Alcotest.test_case "disabled counters are inert" `Quick test_counter_disabled_is_inert;
          Alcotest.test_case "histogram bucket edges inclusive" `Quick
            test_histogram_bucket_edges;
          Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
          Alcotest.test_case "gauges + reset" `Quick test_gauge_and_reset ] );
      ( "trace",
        [ Alcotest.test_case "nested spans" `Quick test_trace_nested_spans;
          Alcotest.test_case "chrome JSON round-trips" `Quick test_trace_json_roundtrip;
          Alcotest.test_case "buffer bound counts drops" `Quick test_trace_buffer_bound;
          Alcotest.test_case "recent window + scope args" `Quick
            test_trace_recent_and_scope;
          Alcotest.test_case "trace/span id shape" `Quick test_ids_shape ] );
      ( "percentiles",
        [ Alcotest.test_case "bucket-upper-bound estimator" `Quick test_percentile_estimator;
          Alcotest.test_case "p50/p90/p99 JSON round-trip, null for overflow" `Quick
            test_percentiles_json_roundtrip ] );
      ( "qlog",
        [ Alcotest.test_case "disabled recording is inert" `Quick test_qlog_disabled_is_inert;
          Alcotest.test_case "ring keeps newest, counts high-water" `Quick
            test_qlog_ring_discipline;
          Alcotest.test_case "JSONL sink round-trips through Fairness.Json" `Quick
            test_qlog_jsonl_roundtrip;
          Alcotest.test_case "resilience outcomes and fields round trip" `Quick
            test_qlog_resilience_fields ] );
      ( "scope",
        [ Alcotest.test_case "pooled tasks run under the caller's scope" `Quick
            test_scope_follows_pool_tasks;
          Alcotest.test_case "a raising sink aborts no estimate or race" `Quick
            test_raising_sink_is_contained ] );
      ( "invariants",
        [ Alcotest.test_case "zero perturbation at jobs=1 and jobs=4" `Quick
            test_zero_perturbation;
          Alcotest.test_case "racing round log" `Quick test_racing_round_log;
          Alcotest.test_case "pool stats" `Quick test_pool_stats;
          Alcotest.test_case "a raising pool task counts once in its scope" `Quick
            test_raising_task_counts_once;
          Alcotest.test_case "pool utilization clamped + round-trips" `Quick
            test_pool_utilization_clamped;
          Alcotest.test_case "obs JSON documents" `Quick test_obs_json_documents ] ) ]
