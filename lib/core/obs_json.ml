module Metrics = Fair_obs.Metrics
module Trace = Fair_obs.Trace

let metrics (s : Metrics.snapshot) =
  Json.Obj
    [ ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.num_int v)) s.Metrics.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) s.Metrics.gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, h) ->
               ( n,
                 Json.Obj
                   [ ( "buckets",
                       Json.List
                         (List.map
                            (fun (le, c) ->
                              Json.Obj [ ("le", Json.Num le); ("count", Json.num_int c) ])
                            h.Metrics.hbuckets) );
                     ("overflow", Json.num_int h.Metrics.overflow);
                     ("total", Json.num_int h.Metrics.total) ] ))
             s.Metrics.histograms) ) ]

(* Always present, clamped to 0.0 for a participant that never ran (busy
   and idle both zero) — emitting [0/0] would print NaN, which is not JSON,
   and omitting the field makes consumers branch on its absence. *)
let utilization busy idle =
  let denom = busy + idle in
  let u = if denom > 0 then float_of_int busy /. float_of_int denom else 0.0 in
  [ ("utilization", Json.Num u) ]

let worker (w : Parallel.worker_stats) =
  Json.Obj
    ([ ("tasks", Json.num_int w.Parallel.tasks);
       ("busy_ns", Json.num_int w.Parallel.busy_ns);
       ("idle_ns", Json.num_int w.Parallel.idle_ns) ]
    @ utilization w.Parallel.busy_ns w.Parallel.idle_ns)

let pool (s : Parallel.stats) =
  Json.Obj
    [ ("spawned", Json.num_int s.Parallel.spawned);
      ("pooled_batches", Json.num_int s.Parallel.pooled_batches);
      ("seq_batches", Json.num_int s.Parallel.seq_batches);
      ("inline_batches", Json.num_int s.Parallel.inline_batches);
      ("caller", worker s.Parallel.caller);
      ("workers", Json.List (List.map worker s.Parallel.workers)) ]

(* Chrome trace-event timestamps are microseconds; emit them as fractional
   µs so the ns resolution of the clock survives. *)
let us ns = float_of_int ns /. 1000.0

let args_json = function
  | [] -> []
  | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ]

let event (e : Trace.event) =
  let common =
    [ ("name", Json.Str e.Trace.name);
      ("cat", Json.Str e.Trace.cat);
      ("pid", Json.num_int 1);
      ("tid", Json.num_int e.Trace.tid);
      ("ts", Json.Num (us e.Trace.ts_ns)) ]
  in
  match e.Trace.ph with
  | Trace.Span dur ->
      Json.Obj (common @ [ ("ph", Json.Str "X"); ("dur", Json.Num (us dur)) ] @ args_json e.Trace.args)
  | Trace.Instant ->
      Json.Obj (common @ [ ("ph", Json.Str "i"); ("s", Json.Str "t") ] @ args_json e.Trace.args)

let thread_meta tid =
  Json.Obj
    [ ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.num_int 1);
      ("tid", Json.num_int tid);
      ("args", Json.Obj [ ("name", Json.Str ("domain-" ^ string_of_int tid)) ]) ]

let trace_events evs =
  let tids = List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.Trace.tid) evs) in
  Json.Obj
    [ ("traceEvents", Json.List (List.map thread_meta tids @ List.map event evs));
      ("displayTimeUnit", Json.Str "ns") ]

(* ---------------------------- percentiles ---------------------------- *)

(* Bucket-upper-bound estimation: a fixed-bucket histogram only knows how
   many observations fell at or below each bound, so the tightest honest
   answer for "the q-th percentile" is the smallest bound whose cumulative
   count reaches rank = ceil(q * total).  That over-estimates by at most
   one bucket width — a conservative bias, which is the right direction
   for a latency report.  No estimate exists when the histogram is empty
   or the rank lands in the unbounded overflow slot (all we know is "above
   the last bound"), and a non-finite q is a caller bug treated the same
   way: all three cases answer [None], which the JSON rendering turns into
   [null] rather than inventing a number. *)
let percentile (h : Metrics.hist_snapshot) q =
  if h.Metrics.total <= 0 || not (Float.is_finite q) || q <= 0.0 || q > 1.0 then None
  else
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.Metrics.total)) in
      max 1 r
    in
    let rec walk cum = function
      | [] -> None (* rank falls in overflow: no finite upper bound *)
      | (bound, count) :: tl ->
          let cum = cum + count in
          if cum >= rank then Some bound else walk cum tl
    in
    walk 0 h.Metrics.hbuckets

let quantile_points = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]

let percentiles (s : Metrics.snapshot) =
  Json.Obj
    (List.map
       (fun (n, h) ->
         ( n,
           Json.Obj
             (List.map
                (fun (label, q) ->
                  ( label,
                    match percentile h q with Some v -> Json.Num v | None -> Json.Null ))
                quantile_points) ))
       s.Metrics.histograms)

(* ---------------------------- qlog events ----------------------------- *)

(* The structured (non-JSONL) rendering of a wide query-log event, used by
   the flight recorder's postmortem documents.  Field names match
   {!Fair_obs.Qlog.to_json_line} exactly so both renderings answer the
   same jq queries. *)
let qlog_event (e : Fair_obs.Qlog.event) =
  let module Q = Fair_obs.Qlog in
  let num_or_null v = if Float.is_finite v then Json.Num v else Json.Null in
  Json.Obj
    [ ("ts_ns", Json.num_int e.Q.ts_ns);
      ("trace_id", Json.Str e.Q.trace_id);
      ("span_id", Json.Str e.Q.span_id);
      ("kind", Json.Str e.Q.kind);
      ("experiment", Json.Str e.Q.experiment);
      ("key", Json.Str e.Q.key);
      ("tier", Json.Str e.Q.tier);
      ("client", Json.num_int e.Q.client);
      ("worker", Json.num_int e.Q.worker);
      ("queue_s", num_or_null e.Q.queue_s);
      ("wall_s", num_or_null e.Q.wall_s);
      ("deadline_s", num_or_null e.Q.deadline_s);
      ("attempt", Json.num_int e.Q.attempt);
      ("trials", Json.num_int e.Q.trials);
      ("outcome", Json.Str e.Q.outcome);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.num_int v)) e.Q.counters)) ]

let metrics_document () =
  Json.Obj
    [ ("schema", Json.Str "fairness-metrics/1");
      ("metrics", metrics (Metrics.snapshot ()));
      ("pool", pool (Parallel.pool_stats ())) ]

let trace_document () =
  match trace_events (Trace.export ()) with
  | Json.Obj fields ->
      let dropped = Trace.dropped () in
      Json.Obj (fields @ if dropped > 0 then [ ("dropped_events", Json.num_int dropped) ] else [])
  | j -> j

let write ~path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

let write_metrics_file ~path = write ~path (metrics_document ())
let write_trace_file ~path = write ~path (trace_document ())
