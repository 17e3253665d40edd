(* Command-line driver: list and run the paper-reproduction experiments.

   $ fairness list
   $ fairness run E3 --trials 2000 --seed 42
   $ fairness all --markdown > report.md *)

open Cmdliner
module E = Fair_analysis.Experiments

let trials_arg =
  let doc = "Monte-Carlo trials per estimate (experiments scale this internally)." in
  Arg.(value & opt int 800 & info [ "t"; "trials" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Master seed; every run with the same seed is bit-for-bit reproducible." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the Monte-Carlo engine (default: the hardware's recommended \
     domain count). Parallelism never changes the numbers — the same seed gives \
     bit-identical output at any -j."
  in
  Arg.(value & opt int Fairness.Parallel.default_jobs & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let markdown_arg =
  let doc = "Emit Markdown (the EXPERIMENTS.md format) instead of plain text." in
  Arg.(value & flag & info [ "markdown" ] ~doc)

let trace_arg =
  let doc =
    "Record a span timeline of the run (engine rounds, Monte-Carlo chunks, pool batches, \
     racing rounds) and write Chrome trace-event JSON to $(docv) — load it in \
     ui.perfetto.dev or chrome://tracing. Tracing never changes the numbers: the same \
     seed gives bit-identical output with or without it."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Collect the metrics registry (trial/round/message counters, histograms, pool \
     utilization) during the run and write a JSON snapshot to $(docv). Like --trace, \
     metrics are observation-only and cannot perturb results."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Enable the requested observability sinks around [f], and flush them to
   disk even when [f] exits non-zero or raises: a failing run is exactly
   when the telemetry matters. *)
let with_obs ~trace ~metrics f =
  if trace <> None then Fair_obs.Trace.enable ();
  if metrics <> None then Fair_obs.Metrics.enable ();
  let flush () =
    Option.iter
      (fun path ->
        Fairness.Obs_json.write_trace_file ~path;
        Printf.eprintf "wrote %s\n%!" path)
      trace;
    Option.iter
      (fun path ->
        Fairness.Obs_json.write_metrics_file ~path;
        Printf.eprintf "wrote %s\n%!" path)
      metrics
  in
  Fun.protect ~finally:flush f

let list_cmd =
  let run () =
    List.iter
      (fun (s : E.spec) ->
        Printf.printf "%-4s %s\n%-4s   %s\n" s.E.eid s.E.etitle ""
          s.E.eclaim)
      E.registry;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiments (id, theorem, claim).")
    Term.(const run $ const ())

let print_result ~markdown r =
  if markdown then print_string (E.to_markdown r) else Format.printf "%a" E.pp r

let run_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (e.g. E3).")
  in
  let run id trials seed jobs markdown trace metrics =
    match E.find id with
    | None ->
        Printf.eprintf "unknown experiment %S; try `fairness list`\n" id;
        exit 2
    | Some spec ->
        with_obs ~trace ~metrics (fun () ->
            let r = E.run spec ~trials ~seed ~jobs in
            print_result ~markdown r;
            if E.all_ok r then 0 else 1)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment and check its paper bounds.")
    Term.(
      const run $ id_arg $ trials_arg $ seed_arg $ jobs_arg $ markdown_arg $ trace_arg
      $ metrics_arg)

let all_cmd =
  let run trials seed jobs markdown trace metrics =
    with_obs ~trace ~metrics (fun () ->
        let failures = ref 0 in
        List.iter
          (fun (s : E.spec) ->
            let r = E.run s ~trials ~seed ~jobs in
            print_result ~markdown r;
            print_newline ();
            if not (E.all_ok r) then incr failures)
          E.registry;
        if !failures = 0 then begin
          Printf.printf "all %d experiments PASS\n" (List.length E.registry);
          0
        end
        else begin
          Printf.printf "%d experiment(s) FAILED\n" !failures;
          1
        end)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment (E1..E16).")
    Term.(
      const run $ trials_arg $ seed_arg $ jobs_arg $ markdown_arg $ trace_arg $ metrics_arg)

let sweep_cmd =
  let kind_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("q", ()) ])) None
      & info [] ~docv:"KIND"
          ~doc:
            "Sweep kind: q (the designer's bias).  The gamma and n landscapes are raced by \
             `search --grid'.")
  in
  let run () trials seed jobs markdown trace metrics =
    with_obs ~trace ~metrics (fun () ->
        E.q_sweep ~jobs
          ~qs:[ 0.0; 0.125; 0.25; 0.375; 0.5; 0.625; 0.75; 0.875; 1.0 ]
          ~trials ~seed ()
        |> E.q_table ~markdown |> print_endline;
        0)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep the designer's bias q = Pr[p1 first] in ΠOpt-2SFE and tabulate the measured \
          attack value (E13's minimax curve).")
    Term.(
      const run $ kind_arg $ trials_arg $ seed_arg $ jobs_arg $ markdown_arg $ trace_arg
      $ metrics_arg)

let search_cmd =
  let module Certificate = Fair_search.Certificate in
  let id_arg =
    let doc = "Experiment id (e.g. E2), or `all' for every targeted experiment. Ignored with --grid." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let budget_arg =
    let doc = "Total Monte-Carlo trial budget shared by all arms of one search." in
    Arg.(value & opt int 20_000 & info [ "b"; "budget" ] ~docv:"B" ~doc)
  in
  let grid_arg =
    let doc = "Instead of the registry, race the strategy space over a landscape grid (gamma or n)." in
    Arg.(
      value
      & opt (some (enum [ ("gamma", `Gamma); ("n", `N) ])) None
      & info [ "grid" ] ~docv:"KIND" ~doc)
  in
  let zoo_arg =
    let doc =
      "Race the fixed adversary zoo as extra arms (same seed derivation, same budget) and \
       record its best raced estimate in each certificate for comparison."
    in
    Arg.(value & flag & info [ "zoo" ] ~doc)
  in
  let out_arg =
    let doc = "Directory to write one certificate JSON per search (created if missing)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let sanitize s =
    String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.') as c -> c | _ -> '-')
      s
  in
  let save_cert dir (c : Certificate.t) =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path =
      Filename.concat dir (sanitize (String.lowercase_ascii c.Certificate.experiment) ^ ".json")
    in
    Certificate.save ~path c;
    Printf.eprintf "wrote %s\n%!" path
  in
  (* The racer rejects a budget below the arm count before any trial runs:
     a usage error, reported with both numbers. *)
  let usage_guard f =
    try f ()
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  in
  let run id budget grid zoo out seed jobs markdown trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    match grid with
    | Some kind ->
        let points =
          usage_guard (fun () ->
              match kind with
              | `Gamma -> E.gamma_grid ~jobs ~budget ~seed ()
              | `N -> E.n_grid ~jobs ~budget ~seed ())
        in
        print_endline (E.grid_table ~markdown points);
        Option.iter (fun dir -> List.iter (fun (_, c) -> save_cert dir c) points) out;
        if List.for_all (fun (_, c) -> c.Certificate.within_bound) points then 0 else 1
    | None ->
        let specs =
          if String.lowercase_ascii id = "all" then E.registry
          else
            match E.find id with
            | Some s when Option.is_none s.E.target ->
                prerr_endline (E.no_target s);
                exit 2
            | Some s -> [ s ]
            | None ->
                Printf.eprintf "unknown experiment %S; try `fairness list`\n" id;
                exit 2
        in
        let certs =
          usage_guard (fun () -> List.filter_map (E.searched ~budget ~zoo ~seed ~jobs) specs)
        in
        print_endline (E.search_table ~markdown certs);
        Option.iter (fun dir -> List.iter (save_cert dir) certs) out;
        if List.for_all (fun (c : Certificate.t) -> c.Certificate.within_bound) certs then 0
        else 1
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Race the declarative adversary space against an experiment's protocol under a shared \
          trial budget (successive halving) and certify the searched best response against the \
          paper bound.")
    Term.(
      const run $ id_arg $ budget_arg $ grid_arg $ zoo_arg $ out_arg $ seed_arg $ jobs_arg
      $ markdown_arg $ trace_arg $ metrics_arg)

let chaos_cmd =
  let faults_arg =
    let doc =
      "Custom fault schedule to run instead of the built-in grid.  $(docv) is a \
       semicolon-separated list of rules: KIND[@ROUNDS][:SRC->DST][%PROB] with KIND one of \
       drop, dup, flip, trunc, delay+K, plus crash[@ROUNDS]:pN[%PROB].  Example: \
       'drop@3;flip@*%0.25;crash@1:p2'."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let only_arg =
    let doc =
      "Comma-separated schedule names to keep from the built-in grid (e.g. \
       'none,drop-q,crash-p2').  Ignored with --faults."
    in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"NAMES" ~doc)
  in
  let run faults only trials seed jobs markdown trace metrics =
    let schedules =
      match faults with
      | Some spec -> (
          (* Validate up front so a typo is a usage error, not a failed run. *)
          match Fair_faults.Faults.parse spec with
          | Error e ->
              Printf.eprintf "bad --faults spec: %s\n" e;
              exit 2
          | Ok _ -> [ ("none", ""); ("custom", spec) ])
      | None -> (
          match only with
          | None -> E.chaos_schedules
          | Some names ->
              let want = String.split_on_char ',' names |> List.map String.trim in
              let kept = List.filter (fun (name, _) -> List.mem name want) E.chaos_schedules in
              if kept = [] then begin
                Printf.eprintf "no schedule matches %S; known: %s\n" names
                  (String.concat ", " (List.map fst E.chaos_schedules));
                exit 2
              end;
              kept)
    in
    with_obs ~trace ~metrics (fun () ->
        match E.chaos ~schedules ~trials ~seed ~jobs () with
        | r ->
            print_result ~markdown r;
            if E.all_ok r then 0 else 1
        | exception Fairness.Montecarlo.Fault_budget_exceeded { faulted; attempted; budget } ->
            Printf.eprintf
              "chaos: fault budget exceeded — %d of %d trials faulted (budget %.0f%%); \
               containment is no longer statistically sound\n"
              faulted attempted (100.0 *. budget);
            1)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the E16 chaos sweep: race each protocol's adversary zoo over faulty channels \
          (drop/dup/delay/flip/trunc/crash) and check the measured best-attacker utility \
          against the clean-channel fairness bound.  Exits non-zero on a bound violation or \
          a fault-budget overrun.")
    Term.(
      const run $ faults_arg $ only_arg $ trials_arg $ seed_arg $ jobs_arg $ markdown_arg
      $ trace_arg $ metrics_arg)

let demo_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROTOCOL" ~doc:"Demo name (see `fairness demos`).")
  in
  let adversary_arg =
    let doc = "Adversary strategy name (default: the demo's first strategy)." in
    Arg.(value & opt (some string) None & info [ "a"; "adversary" ] ~docv:"NAME" ~doc)
  in
  let run name adversary seed =
    match Fair_analysis.Demo.find name with
    | None ->
        Printf.eprintf "unknown demo %S; try `fairness demos`\n" name;
        exit 2
    | Some entry -> (
        match Fair_analysis.Demo.adversary_of entry adversary with
        | Error e ->
            prerr_endline e;
            exit 2
        | Ok adv ->
            Fair_analysis.Demo.run entry ~adversary:adv ~seed Format.std_formatter;
            0)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run one protocol execution and print the round-by-round trace.")
    Term.(const run $ name_arg $ adversary_arg $ seed_arg)

let demos_cmd =
  let run () =
    List.iter
      (fun (e : Fair_analysis.Demo.entry) ->
        Printf.printf "%-18s %s\n%-18s strategies: %s\n" e.Fair_analysis.Demo.dname
          e.Fair_analysis.Demo.describe ""
          (String.concat ", " (List.map fst e.Fair_analysis.Demo.adversaries)))
      Fair_analysis.Demo.registry;
    0
  in
  Cmd.v
    (Cmd.info "demos" ~doc:"List the available protocol demos and their strategies.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* The service: `fairness serve` / `fairness query`                    *)

let socket_arg =
  let doc = "Unix-domain socket path of the certificate server." in
  Arg.(value & opt string "fairness.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let qlog_arg =
    let doc =
      "Append one JSON line per completed request to $(docv) (the wide query log): trace \
       id, kind, experiment, cache tier (mem|disk|cold|coalesced), queue latency, worker \
       id, trials spent, engine counter deltas, outcome, wall time.  Flushed per line, so \
       the file can be tailed live.  Observation-only: served bytes are identical with or \
       without it."
    in
    Arg.(value & opt (some string) None & info [ "qlog" ] ~docv:"FILE" ~doc)
  in
  let flight_arg =
    let doc =
      "Keep a flight recorder and dump it to $(docv) (atomically, last-writer-wins) on \
       failed queries, malformed frames, SIGUSR1 and clean shutdown: the recent query-log \
       window, recent trace spans, and a metrics snapshot with latency percentiles."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Spill cache entries to $(docv) (created if missing): entries evicted from memory \
       stay answerable across restarts, content-addressed by query key."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let capacity_arg =
    let doc = "In-memory cache capacity (LRU-evicted beyond this)." in
    Arg.(value & opt int 256 & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let queue_limit_arg =
    let doc =
      "Bounded admission queue: past $(docv) pending queries, new ones are answered with \
       an explicit `overloaded' error instead of queueing without bound."
    in
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc =
      "Executor-pool size: up to $(docv) cold queries compute concurrently (per-key \
       ordering and coalescing preserved).  Defaults to min(4, domain-pool jobs)."
    in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)
  in
  let cost_budget_arg =
    let doc =
      "Cost-aware admission: bound the queue by $(docv) seconds of estimated work (a \
       per-kind moving average of measured compute time, warm-started from the --qlog \
       file when one exists) instead of depth alone.  --queue-limit stays as a floor — a \
       queue below it always admits.  0 disables and restores pure depth-limit admission."
    in
    Arg.(value & opt float 30.0 & info [ "cost-budget" ] ~docv:"SECONDS" ~doc)
  in
  let drain_timeout_arg =
    let doc =
      "On SIGTERM, drain gracefully: refuse new queries with a `draining' error, let \
       inflight work finish for up to $(docv) seconds, then stop.  SIGINT stops \
       immediately."
    in
    Arg.(value & opt float 30.0 & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let run socket cache_dir capacity queue_limit cost_budget drain_timeout workers jobs trace
      qlog flight =
    let module Json = Fairness.Json in
    (* Metrics stay on for the daemon's whole life: the Stats reply's
       counters and latency percentiles read from them, and qlog events
       embed per-request counter deltas.  They aggregate integers outside
       every RNG and scheduling decision, so the served bytes are the same
       either way (asserted by the obs byte-identity tests). *)
    Fair_obs.Metrics.enable ();
    if trace <> None then Fair_obs.Trace.enable ();
    (* Warm-start the cost model from the previous run's qlog file — read
       BEFORE the sink below truncates it: a restarted daemon prices a
       cold search correctly from its first admission decision instead of
       relearning from the default estimate. *)
    let costs = Fair_service.Costmodel.create () in
    let seeded =
      match qlog with
      | Some path when Sys.file_exists path ->
          Fair_service.Costmodel.seed_from_file costs path
      | _ -> 0
    in
    let qlog_oc =
      match qlog with
      | None -> None
      | Some path -> (
          match open_out path with
          | oc ->
              Fair_obs.Qlog.enable ();
              Fair_obs.Qlog.set_sink (Some oc);
              Some oc
          | exception Sys_error m ->
              Printf.eprintf "cannot open qlog file: %s\n" m;
              exit 1)
    in
    let recorder =
      match flight with
      | None -> None
      | Some path ->
          (* The recorder feeds on the qlog ring: keep it recording even
             when no JSONL sink was asked for. *)
          Fair_obs.Qlog.enable ();
          Some (Fair_service.Recorder.create ~path ())
    in
    let cache = Fair_service.Cache.create ~capacity ?dir:cache_dir () in
    let server =
      try
        Fair_service.Server.start ~socket ~cache ~queue_limit ~cost_budget ~costs ~jobs
          ?workers ?recorder ()
      with Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot listen on %s: %s\n" socket (Unix.error_message e);
        exit 1
    in
    (* One structured startup line: everything an operator (or a log
       pipeline) needs to identify this server instance, greppable as
       JSON rather than scraped from prose. *)
    let opt_str = function Some s -> Json.Str s | None -> Json.Null in
    Printf.eprintf "%s\n%!"
      (Json.to_string ~indent:false
         (Json.Obj
            [
              ("event", Json.Str "serve.start");
              ("version", Json.Str Fair_service.Version.code_version);
              ("sha256", Json.Str Fair_crypto.Sha256.kernel);
              ("socket", Json.Str socket);
              ("cache_capacity", Json.num_int capacity);
              ("cache_dir", opt_str cache_dir);
              ("queue_limit", Json.num_int queue_limit);
              ("cost_budget", Json.Num cost_budget);
              ("cost_seeded_events", Json.num_int seeded);
              ("drain_timeout", Json.Num drain_timeout);
              ( "workers",
                match workers with Some w -> Json.num_int w | None -> Json.Str "auto" );
              ("jobs", Json.num_int jobs);
              ("trace", opt_str trace);
              ("qlog", opt_str qlog);
              ("flight", opt_str flight);
              ("pid", Json.num_int (Unix.getpid ()));
            ]));
    let stop = ref false in
    let drain = ref false in
    let dump_requested = ref false in
    (* SIGINT stops immediately; SIGTERM drains: inflight work finishes
       (bounded by --drain-timeout), new queries get a structured
       `draining' refusal.  Handlers only raise flags; the actual
       drain/stop (locks, joins, file IO) runs on the main loop, where it
       cannot deadlock against whatever the interrupted thread was
       holding. *)
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> drain := true));
    Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump_requested := true));
    while not (!stop || !drain) do
      Thread.delay 0.2;
      if !dump_requested then begin
        dump_requested := false;
        match recorder with
        | Some r ->
            Fair_service.Recorder.dump r ~reason:"sigusr1";
            Printf.eprintf "flight recorder dumped to %s\n%!"
              (Fair_service.Recorder.path r)
        | None -> ()
      end
    done;
    (* [stop]/[drain] settle every reader and worker, then dump the
       recorder with reason "shutdown"; the qlog sink was flushed per
       line, so detaching and closing it afterwards loses nothing. *)
    if !drain && not !stop then begin
      prerr_endline "draining";
      let clean = Fair_service.Server.drain server ~timeout_s:drain_timeout in
      prerr_endline (if clean then "drained; shutting down" else "drain timed out; shutting down")
    end
    else begin
      prerr_endline "shutting down";
      Fair_service.Server.stop server
    end;
    Option.iter
      (fun path ->
        Fairness.Obs_json.write_trace_file ~path;
        Printf.eprintf "wrote %s\n%!" path)
      trace;
    (match qlog_oc with
    | Some oc ->
        Fair_obs.Qlog.set_sink None;
        close_out_noerr oc
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fairness certificate server: a daemon answering search/run queries over a \
          Unix-domain socket, with a content-addressed certificate cache and fair \
          (round-robin, coalescing) scheduling of cache misses onto the domain pool.  \
          Results are byte-identical to the CLI at the same seed — and to themselves with \
          --trace/--qlog/--flight on or off.")
    Term.(
      const run $ socket_arg $ cache_dir_arg $ capacity_arg $ queue_limit_arg
      $ cost_budget_arg $ drain_timeout_arg $ workers_arg $ jobs_arg $ trace_arg $ qlog_arg
      $ flight_arg)

let query_cmd =
  let module S = Fair_service in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (e.g. E2).")
  in
  let kind_arg =
    let doc =
      "What to compute: `search' races the adversary space and returns the certificate \
       (ids without a search target are usage errors); `run' executes the experiment and \
       returns its result as JSON."
    in
    Arg.(
      value
      & opt (enum [ ("search", S.Proto.Search); ("run", S.Proto.Run) ]) S.Proto.Search
      & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let budget_arg =
    let doc = "Trial budget: total racing budget for `search', trials for `run'." in
    Arg.(value & opt int 20_000 & info [ "b"; "budget" ] ~docv:"B" ~doc)
  in
  let zoo_arg =
    let doc = "Race the fixed adversary zoo as extra arms (search only)." in
    Arg.(value & flag & info [ "zoo" ] ~doc)
  in
  let fresh_arg =
    let doc = "Bypass the server's cache: recompute and overwrite the entry." in
    Arg.(value & flag & info [ "fresh" ] ~doc)
  in
  let no_daemon_arg =
    let doc =
      "Compute inline in this process instead of talking to a server — same code path the \
       daemon's executor uses, hence byte-identical output."
    in
    Arg.(value & flag & info [ "no-daemon" ] ~doc)
  in
  let progress_arg =
    let doc = "Print the Monte-Carlo convergence stream to stderr as it arrives." in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let timeout_arg =
    let doc =
      "Give up on the server after $(docv) seconds of silence (bounds connection \
       establishment and every read)."
    in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let deadline_arg =
    let doc =
      "Relative deadline in seconds, carried to the server: if the query is still queued \
       when it expires, the server sheds it with a `deadline exceeded' error instead of \
       computing an answer nobody is waiting for."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry up to $(docv) times on idempotent-safe failures only (connection lost before \
       a result, server overloaded, dead socket at connect) with capped exponential \
       backoff and decorrelated jitter.  Sleeps derive deterministically from --seed; \
       deliberate answers (unknown query, query failed, deadline exceeded, draining) are \
       never retried."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let retry_budget_arg =
    let doc = "Total backoff sleep allowed across all retries, in seconds." in
    Arg.(value & opt float 10.0 & info [ "retry-budget" ] ~docv:"SECONDS" ~doc)
  in
  let exit_of_failure = function
    | S.Failure.Unknown_query _ -> 2
    | S.Failure.Overloaded _ | S.Failure.Query_failed _ | S.Failure.Connection_lost _
    | S.Failure.Malformed_frame _ | S.Failure.Deadline_exceeded _ | S.Failure.Draining _ ->
        1
  in
  let trace_id_arg =
    let doc =
      "Echo the query's generated trace id (and the server's echo of it) to stderr — the \
       handle that stitches this request's spans out of the server's --trace export."
    in
    Arg.(value & flag & info [ "trace-id" ] ~doc)
  in
  let run id kind budget zoo fresh no_daemon progress timeout deadline retries retry_budget
      socket seed jobs echo_tid trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let q =
      {
        S.Proto.q_kind = kind;
        q_experiment = id;
        q_budget = budget;
        q_seed = seed;
        q_zoo = zoo;
        q_fresh = fresh;
        q_trace_id = "";
        q_span_id = "";
        q_deadline = (match deadline with Some d when d > 0. -> d | _ -> 0.);
        q_attempt = 0;
      }
    in
    if no_daemon then begin
      match S.Handlers.answer ~jobs q with
      | Ok (body, ok) ->
          print_string body;
          if ok then 0 else 1
      | Error f ->
          prerr_endline (S.Failure.to_string f);
          exit_of_failure f
    end
    else begin
      (* One attempt = one connection: a failed attempt's socket is dead or
         poisoned, so each retry starts from a fresh connect.  Connect
         failures are classified as Connection_lost so the retry policy
         can see them; with retries off the error keeps its original
         one-line form. *)
      let attempt ~attempt =
        match S.Client.connect ~socket ?timeout () with
        | Error msg -> Result.Error (S.Failure.Connection_lost { reason = msg })
        | Ok client ->
            (* Every daemon query carries a fresh trace context: generation
               is RNG-free and the fields are ignored by untraced servers,
               so there is no mode where sending them costs anything.  The
               attempt number rides along for the server's query log. *)
            let q = S.Client.with_trace { q with S.Proto.q_attempt = attempt } in
            if echo_tid then Printf.eprintf "trace-id: %s\n%!" q.S.Proto.q_trace_id;
            let on_progress (p : S.Proto.progress) =
              if progress then
                Printf.eprintf "progress: %d trials (+%d) mean %.4f ±%.4f\n%!"
                  p.S.Proto.p_after p.S.Proto.p_batch p.S.Proto.p_mean p.S.Proto.p_std_err
            in
            let r = S.Client.query client ~on_progress q in
            S.Client.close client;
            r
      in
      let finish res =
        if progress && res.S.Proto.r_cached then
          Printf.eprintf "cache hit (key %s)\n%!" res.S.Proto.r_key;
        if echo_tid then
          Printf.eprintf "trace-id echoed by server: %s\n%!"
            (if res.S.Proto.r_trace_id = "" then "(none — pre-trace server)"
             else res.S.Proto.r_trace_id);
        print_string res.S.Proto.r_body;
        if res.S.Proto.r_ok then 0 else 1
      in
      let policy = { S.Client.Retry.default with retries; budget_s = retry_budget } in
      match S.Client.Retry.run ~policy ~seed attempt with
      | Ok res -> finish res
      | Result.Error (`Failed (S.Failure.Connection_lost { reason } as f))
        when retries = 0 && String.length reason >= 7 && String.sub reason 0 7 = "cannot " ->
          (* A dead socket with retries off keeps its pre-retry one-line
             form ("cannot connect to ...") — an operational failure (1),
             not a usage error, and never a raw Unix_error backtrace. *)
          prerr_endline reason;
          exit_of_failure f
      | Result.Error (`Failed f) ->
          prerr_endline (S.Failure.to_string f);
          exit_of_failure f
      | Result.Error (`Exhausted (attempts, f)) ->
          (* The distinct exhaustion exit path: the failure was retryable,
             the budget was not enough. *)
          Printf.eprintf "retries exhausted after %d attempt(s): %s\n" attempts
            (S.Failure.to_string f);
          1
    end
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Ask the certificate server for a search certificate or an experiment run.  \
          Repeated queries with the same parameters are served from the content-addressed \
          cache; --fresh forces recomputation; --no-daemon computes inline without a server.")
    Term.(
      const run $ id_arg $ kind_arg $ budget_arg $ zoo_arg $ fresh_arg $ no_daemon_arg
      $ progress_arg $ timeout_arg $ deadline_arg $ retries_arg $ retry_budget_arg
      $ socket_arg $ seed_arg $ jobs_arg $ trace_id_arg $ trace_arg $ metrics_arg)

let stat_cmd =
  let module S = Fair_service in
  let module Json = Fairness.Json in
  let watch_arg =
    let doc =
      "Refresh every $(docv) seconds (default 2 when given without a value), clearing the \
       screen each time, until interrupted."
    in
    Arg.(value & opt ~vopt:(Some 2.0) (some float) None & info [ "watch" ] ~docv:"SECONDS" ~doc)
  in
  let json_arg =
    let doc = "Print the raw stats JSON instead of the pretty summary." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let timeout_arg =
    let doc = "Give up on the server after $(docv) seconds of silence." in
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  (* Tolerant readers: a field the server does not send (an older daemon)
     renders as a placeholder, never a crash — the stats screen must work
     against any server version. *)
  let get path j =
    List.fold_left
      (fun acc k -> match acc with Ok v -> Json.member k v | e -> e)
      (Ok j) path
  in
  let geti path j =
    match get path j with
    | Ok v -> ( match Json.to_int v with Ok n -> n | Error _ -> 0)
    | Error _ -> 0
  in
  let gets path j =
    match get path j with
    | Ok v -> ( match Json.to_str v with Ok s -> s | Error _ -> "?")
    | Error _ -> "?"
  in
  let getb path j = match get path j with Ok (Json.Bool b) -> b | _ -> false in
  let render socket j =
    let b = Buffer.create 1024 in
    Printf.bprintf b "fairness service @ %s — %s\n" socket (gets [ "version" ] j);
    Printf.bprintf b "cache   %d hits (%d from disk), %d misses, %d evictions, %d entries\n"
      (geti [ "cache"; "hits" ] j)
      (geti [ "cache"; "disk_hits" ] j)
      (geti [ "cache"; "misses" ] j)
      (geti [ "cache"; "evictions" ] j)
      (geti [ "cache"; "entries" ] j);
    Printf.bprintf b "queue   depth %d/%d, active %d, workers %d\n"
      (geti [ "queue"; "depth" ] j)
      (geti [ "queue"; "limit" ] j)
      (geti [ "queue"; "active" ] j)
      (geti [ "queue"; "workers" ] j);
    Printf.bprintf b "obs     tracing %s (%d spans dropped), qlog %s (%d events), flight %s\n"
      (if getb [ "observability"; "tracing" ] j then "on" else "off")
      (geti [ "observability"; "trace_dropped" ] j)
      (if getb [ "observability"; "qlog" ] j then "on" else "off")
      (geti [ "observability"; "qlog_recorded" ] j)
      (match get [ "observability"; "flight_recorder" ] j with
      | Ok (Json.Str p) -> p
      | _ -> "-");
    (match get [ "percentiles" ] j with
    | Ok (Json.Obj fields) when fields <> [] ->
        Printf.bprintf b "latency  (p50 / p90 / p99, histogram upper bounds)\n";
        List.iter
          (fun (name, v) ->
            let p k =
              match Json.member k v with
              | Ok (Json.Num x) -> Printf.sprintf "%.4g" x
              | _ -> "-"
            in
            Printf.bprintf b "  %-38s %8s %8s %8s\n" name (p "p50") (p "p90") (p "p99"))
          fields
    | _ -> ());
    (match get [ "metrics"; "counters" ] j with
    | Ok (Json.Obj fields) ->
        let live =
          List.filter (fun (_, v) -> match v with Json.Num x -> x <> 0.0 | _ -> false) fields
        in
        if live <> [] then begin
          Printf.bprintf b "counters (non-zero)\n";
          List.iter
            (fun (name, v) ->
              Printf.bprintf b "  %-38s %d\n" name
                (match Json.to_int v with Ok n -> n | Error _ -> 0))
            live
        end
    | _ -> ());
    Buffer.contents b
  in
  let fetch socket timeout =
    match S.Client.connect ~socket ?timeout () with
    | Error msg -> Error msg
    | Ok client ->
        let r = S.Client.stats client in
        S.Client.close client;
        (match r with Ok j -> Ok j | Error f -> Error (S.Failure.to_string f))
  in
  let run socket timeout watch as_json =
    match watch with
    | None -> (
        match fetch socket timeout with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok j ->
            if as_json then print_endline (Json.to_string j)
            else print_string (render socket j);
            0)
    | Some interval ->
        let interval = if interval <= 0.0 then 2.0 else interval in
        (* Reconnect per refresh so a server restart heals into the next
           frame instead of wedging the watch. *)
        let rec loop () =
          (match fetch socket timeout with
          | Error msg -> Printf.printf "\027[2J\027[H%s\n(unreachable: %s)\n%!" socket msg
          | Ok j ->
              if as_json then Printf.printf "%s\n%!" (Json.to_string ~indent:false j)
              else Printf.printf "\027[2J\027[H%s%!" (render socket j));
          Thread.delay interval;
          loop ()
        in
        loop ()
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Show the certificate server's live introspection: cache and queue state, the full \
          metrics snapshot, and p50/p90/p99 latency estimates derived from its histograms.  \
          --watch turns it into a refreshing dashboard.")
    Term.(const run $ socket_arg $ timeout_arg $ watch_arg $ json_arg)

let main =
  let doc = "Reproduction harness for 'How Fair is Your Protocol?' (PODC 2015)" in
  let man =
    [
      `S "EXIT STATUS";
      `P
        "Every subcommand follows one convention: $(b,0) — success (all paper bounds hold, \
         the query was answered); $(b,1) — a fairness bound violation, a failed check, or an \
         operational failure (server overloaded, unreachable, or lost mid-stream); $(b,2) — \
         usage error (unknown experiment id or option, malformed --faults spec, a query kind \
         the experiment does not support, a search budget below the arm count).";
    ]
  in
  Cmd.group (Cmd.info "fairness" ~version:"1.0.0" ~doc ~man)
    [
      list_cmd; run_cmd; all_cmd; search_cmd; chaos_cmd; demo_cmd; demos_cmd; sweep_cmd;
      serve_cmd; query_cmd; stat_cmd;
    ]

(* cmdliner reports a command-line parse error as 124; the table above
   calls that a usage error. *)
let () =
  let code = Cmd.eval' main in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
