module E = Fair_analysis.Experiments
module Certificate = Fair_search.Certificate
module Json = Fairness.Json
module Engine = Fair_exec.Engine

let answer ~jobs (q : Proto.query) =
  match E.find q.Proto.q_experiment with
  | None ->
      Error
        (Failure.Unknown_query
           { reason = Printf.sprintf "unknown experiment %S; try `fairness list`" q.Proto.q_experiment })
  | Some spec -> (
      match q.Proto.q_kind with
      | Proto.Search -> (
          match
            E.searched ~budget:q.Proto.q_budget ~zoo:q.Proto.q_zoo ~seed:q.Proto.q_seed ~jobs
              spec
          with
          | Some c -> Ok (Certificate.to_string c, c.Certificate.within_bound)
          | None ->
              Error
                (Failure.Unknown_query
                   { reason =
                       Printf.sprintf
                         "%s has no search target (its number is not a supremum over adversaries)"
                         spec.E.eid })
          | exception e when not (Engine.fatal e) ->
              Error (Failure.Query_failed { reason = Printexc.to_string e }))
      | Proto.Run -> (
          match spec.E.run ~trials:q.Proto.q_budget ~seed:q.Proto.q_seed ~jobs with
          | r -> Ok (Json.to_string (E.result_to_json r) ^ "\n", E.all_ok r)
          | exception e when not (Engine.fatal e) ->
              Error (Failure.Query_failed { reason = Printexc.to_string e })))
