module Json = Fairness.Json

type t =
  | Malformed_frame of { seq : int; reason : string }
  | Unknown_query of { reason : string }
  | Overloaded of { depth : int; limit : int }
  | Query_failed of { reason : string }
  | Connection_lost of { reason : string }
  | Deadline_exceeded of { waited_s : float; deadline_s : float }
  | Draining of { reason : string }

let code = function
  | Malformed_frame _ -> "malformed-frame"
  | Unknown_query _ -> "unknown-query"
  | Overloaded _ -> "overloaded"
  | Query_failed _ -> "query-failed"
  | Connection_lost _ -> "connection-lost"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Draining _ -> "draining"

let to_string = function
  | Malformed_frame { seq; reason } -> Printf.sprintf "malformed frame #%d: %s" seq reason
  | Unknown_query { reason } -> Printf.sprintf "unknown query: %s" reason
  | Overloaded { depth; limit } ->
      Printf.sprintf "server overloaded: %d request(s) pending (limit %d); retry later" depth
        limit
  | Query_failed { reason } -> Printf.sprintf "query failed: %s" reason
  | Connection_lost { reason } -> Printf.sprintf "connection lost: %s" reason
  | Deadline_exceeded { waited_s; deadline_s } ->
      Printf.sprintf "deadline exceeded: waited %.3fs against a %.3fs deadline" waited_s
        deadline_s
  | Draining { reason } -> Printf.sprintf "draining: %s" reason

let to_json f =
  let fields =
    match f with
    | Malformed_frame { seq; reason } -> [ ("seq", Json.num_int seq); ("reason", Json.Str reason) ]
    | Unknown_query { reason } -> [ ("reason", Json.Str reason) ]
    | Overloaded { depth; limit } -> [ ("depth", Json.num_int depth); ("limit", Json.num_int limit) ]
    | Query_failed { reason } -> [ ("reason", Json.Str reason) ]
    | Connection_lost { reason } -> [ ("reason", Json.Str reason) ]
    | Deadline_exceeded { waited_s; deadline_s } ->
        [ ("waited_s", Json.Num waited_s); ("deadline_s", Json.Num deadline_s) ]
    | Draining { reason } -> [ ("reason", Json.Str reason) ]
  in
  Json.Obj (("code", Json.Str (code f)) :: fields)

let of_json j =
  let open Json in
  let* c = member "code" j in
  let* c = to_str c in
  let str k =
    let* v = member k j in
    to_str v
  in
  let int k =
    let* v = member k j in
    to_int v
  in
  let num k =
    let* v = member k j in
    to_float v
  in
  match c with
  | "malformed-frame" ->
      let* seq = int "seq" in
      let* reason = str "reason" in
      Ok (Malformed_frame { seq; reason })
  | "unknown-query" ->
      let* reason = str "reason" in
      Ok (Unknown_query { reason })
  | "overloaded" ->
      let* depth = int "depth" in
      let* limit = int "limit" in
      Ok (Overloaded { depth; limit })
  | "query-failed" ->
      let* reason = str "reason" in
      Ok (Query_failed { reason })
  | "connection-lost" ->
      let* reason = str "reason" in
      Ok (Connection_lost { reason })
  | "deadline-exceeded" ->
      let* waited_s = num "waited_s" in
      let* deadline_s = num "deadline_s" in
      Ok (Deadline_exceeded { waited_s; deadline_s })
  | "draining" ->
      let* reason = str "reason" in
      Ok (Draining { reason })
  | other -> Error (Printf.sprintf "unknown failure code %S" other)
