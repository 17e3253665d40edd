module E = Fair_analysis.Experiments
module Certificate = Fair_search.Certificate
module Json = Fairness.Json
module Engine = Fair_exec.Engine

let unknown fmt = Printf.ksprintf (fun reason -> Error (Failure.Unknown_query { reason })) fmt

let no_target spec = unknown "%s" (E.no_target spec)

let resolve (q : Proto.query) =
  match E.find q.Proto.q_experiment with
  | None -> unknown "unknown experiment %S; try `fairness list`" q.Proto.q_experiment
  | Some spec when q.Proto.q_kind = Proto.Search && spec.E.target = None -> no_target spec
  | Some spec -> Ok spec

let answer ~jobs (q : Proto.query) =
  match resolve q with
  | Error _ as e -> e
  | Ok spec -> (
      match q.Proto.q_kind with
      | Proto.Search -> (
          match
            E.searched ~budget:q.Proto.q_budget ~zoo:q.Proto.q_zoo ~seed:q.Proto.q_seed ~jobs
              spec
          with
          | Some c -> Ok (Certificate.to_string c, c.Certificate.within_bound)
          | None -> no_target spec (* [resolve] already refused it *)
          | exception e when not (Engine.fatal e) ->
              Error (Failure.Query_failed { reason = Printexc.to_string e }))
      | Proto.Run -> (
          match E.run spec ~trials:q.Proto.q_budget ~seed:q.Proto.q_seed ~jobs with
          | r -> Ok (Json.to_string (E.result_to_json r) ^ "\n", E.all_ok r)
          | exception e when not (Engine.fatal e) ->
              Error (Failure.Query_failed { reason = Printexc.to_string e })))
