(* The certificate service, layer by layer: frame reassembly under
   arbitrary splits, protocol decode totality, content addressing, the
   two-tier cache, the fair scheduler, and the server's failure isolation.
   The end-to-end system behaviour (cache-hit-without-pool, chaos
   schedules against a live daemon) lives in bin/service_smoke.ml. *)

module S = Fair_service
module Frame = S.Frame
module Proto = S.Proto
module Failure = S.Failure
module Cache = S.Cache
module Sched = S.Sched
module Costmodel = S.Costmodel
module Json = Fairness.Json

let qtest name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let arb_bytes = QCheck.string_gen_of_size QCheck.Gen.(int_range 0 64) QCheck.Gen.char

(* --------------------------- framing -------------------------------- *)

(* A frame as it travels: 4-byte big-endian length, then the payload. *)
let encode_frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

let drain dec =
  let rec go acc =
    match Frame.Decoder.next dec with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  go []

(* A fully-traced query among the framing fixtures: the split-point sweep
   below then exercises every byte boundary of the trace-context fields
   too, not just of artificial payloads. *)
let traced_query =
  { Proto.q_kind = Proto.Search; q_experiment = "E2"; q_budget = 500; q_seed = 7;
    q_zoo = true; q_fresh = false;
    q_trace_id = "00112233445566778899aabbccddeeff"; q_span_id = "0123456789abcdef";
    q_deadline = 0.; q_attempt = 0 }

let payload_fixtures =
  [ "alpha"; ""; "frame|with\\escapes\nand\000nul";
    Proto.encode_request (Proto.Query traced_query); String.make 300 'x' ]

let stream_of payloads = String.concat "" (List.map encode_frame payloads)

(* Satellite check: the decoder must reassemble correctly no matter where
   the byte stream is cut.  The "table of split points" is exhaustive —
   every boundary of the 4-frame stream, header bytes included. *)
let split_point_table () =
  let stream = stream_of payload_fixtures in
  let n = String.length stream in
  for cut = 0 to n do
    let dec = Frame.Decoder.create () in
    Frame.Decoder.feed_string dec (String.sub stream 0 cut);
    let early =
      match drain dec with
      | Ok ps -> ps
      | Error e -> Alcotest.failf "cut %d: error on first half: %s" cut e
    in
    Frame.Decoder.feed_string dec (String.sub stream cut (n - cut));
    let late =
      match drain dec with
      | Ok ps -> ps
      | Error e -> Alcotest.failf "cut %d: error on second half: %s" cut e
    in
    if early @ late <> payload_fixtures then
      Alcotest.failf "cut %d: reassembled %d frames, wrong content" cut
        (List.length (early @ late));
    if Frame.Decoder.buffered dec <> 0 then
      Alcotest.failf "cut %d: %d bytes left buffered" cut (Frame.Decoder.buffered dec)
  done

let byte_at_a_time () =
  let stream = stream_of payload_fixtures in
  let dec = Frame.Decoder.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.Decoder.feed_string dec (String.make 1 c);
      match drain dec with
      | Ok ps -> got := !got @ ps
      | Error e -> Alcotest.failf "byte-at-a-time: %s" e)
    stream;
  Alcotest.(check (list string)) "all frames, in order" payload_fixtures !got

(* Random payloads through random chunkings reassemble exactly. *)
let prop_chunked_reassembly =
  qtest "decoder: any chunking reassembles the payload sequence" 500
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 6) arb_bytes)
        (list_of_size (Gen.int_range 1 12) (int_range 1 17)))
    (fun (payloads, chunk_sizes) ->
      let stream = stream_of payloads in
      let dec = Frame.Decoder.create () in
      let got = ref [] in
      let pos = ref 0 in
      let i = ref 0 in
      let sizes = Array.of_list chunk_sizes in
      let ok = ref true in
      while !pos < String.length stream do
        let len = min sizes.(!i mod Array.length sizes) (String.length stream - !pos) in
        Frame.Decoder.feed_string dec (String.sub stream !pos len);
        pos := !pos + len;
        incr i;
        match drain dec with
        | Ok ps -> got := !got @ ps
        | Error _ -> ok := false; pos := String.length stream
      done;
      !ok && !got = payloads && Frame.Decoder.buffered dec = 0)

let oversized_is_sticky () =
  let dec = Frame.Decoder.create () in
  (* a length prefix past max_frame *)
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (Frame.max_frame + 1));
  Frame.Decoder.feed_string dec (Bytes.to_string b);
  (match Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized length accepted");
  (* poisoned: even a perfectly good frame afterwards stays an error *)
  Frame.Decoder.feed_string dec (encode_frame "fine");
  match Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoder recovered from an unrecoverable stream"

(* The fixtures, then a frame larger than the decoder's first buffer, which
   [Frame.read] must grow while it reads into it. *)
let write_read_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payloads = payload_fixtures @ [ String.init 100_000 (fun i -> Char.chr (i land 0xff)) ] in
  let writer =
    Thread.create
      (fun () ->
        List.iter (Frame.write a) payloads;
        Unix.close a)
      ()
  in
  let dec = Frame.Decoder.create () in
  let rec read_all acc =
    match Frame.read b dec with
    | Ok (Some p) -> read_all (p :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "read: %s" e
  in
  let got = read_all [] in
  Thread.join writer;
  Unix.close b;
  Alcotest.(check (list string)) "frames across a real socket" payloads got

let eof_mid_frame_is_error () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let partial = String.sub (encode_frame "truncated-on-the-wire") 0 7 in
  let n = Unix.write_substring a partial 0 (String.length partial) in
  Alcotest.(check int) "partial write went out" (String.length partial) n;
  Unix.close a;
  let dec = Frame.Decoder.create () in
  (match Frame.read b dec with
  | Error _ -> ()
  | Ok None -> Alcotest.fail "EOF mid-frame reported as clean end-of-stream"
  | Ok (Some _) -> Alcotest.fail "truncated frame produced a payload");
  Unix.close b

(* --------------------------- protocol ------------------------------- *)

let sample_queries =
  [ { Proto.q_kind = Proto.Search; q_experiment = "E1"; q_budget = 2000; q_seed = 42;
      q_zoo = false; q_fresh = false; q_trace_id = ""; q_span_id = "";
      q_deadline = 0.; q_attempt = 0 };
    { Proto.q_kind = Proto.Run; q_experiment = "e16"; q_budget = 1; q_seed = 0;
      q_zoo = true; q_fresh = true; q_trace_id = ""; q_span_id = "";
      q_deadline = 1.5; q_attempt = 3 };
    traced_query ]

let sample_failures =
  [ Failure.Malformed_frame { seq = 3; reason = "bad|frame \\ with <junk>" };
    Failure.Unknown_query { reason = "unknown experiment \"E99\"" };
    Failure.Overloaded { depth = 64; limit = 64 };
    Failure.Query_failed { reason = "fault budget exceeded" };
    Failure.Connection_lost { reason = "timed out" };
    Failure.Deadline_exceeded { waited_s = 0.75; deadline_s = 0.5 };
    Failure.Draining { reason = "server is draining; not accepting work" } ]

let request_roundtrip () =
  List.iter
    (fun req ->
      match Proto.decode_request (Proto.encode_request req) with
      | Ok req' when req = req' -> ()
      | Ok _ -> Alcotest.fail "request changed across the wire"
      | Error e -> Alcotest.failf "request did not decode: %s" e)
    (Proto.Stats :: Proto.Ping :: List.map (fun q -> Proto.Query q) sample_queries)

let response_roundtrip () =
  let responses =
    [ Proto.Pong;
      Proto.Progress { Proto.p_after = 128; p_batch = 64; p_mean = 0.78125; p_std_err = 0.0625 };
      Proto.Result
        { Proto.r_cached = true; r_key = String.make 64 'a'; r_ok = false;
          r_body = "certificate|with\\pipes\nand\000nul bytes"; r_trace_id = "" };
      Proto.Result
        { Proto.r_cached = false; r_key = String.make 64 'b'; r_ok = true;
          r_body = "{}"; r_trace_id = "00112233445566778899aabbccddeeff" };
      Proto.Stats_reply (Json.Obj [ ("cache", Json.Obj [ ("hits", Json.num_int 3) ]) ]) ]
    @ List.map (fun f -> Proto.Error f) sample_failures
  in
  List.iter
    (fun resp ->
      match Proto.decode_response (Proto.encode_response resp) with
      | Ok resp' when resp = resp' -> ()
      | Ok _ -> Alcotest.fail "response changed across the wire"
      | Error e -> Alcotest.failf "response did not decode: %s" e)
    responses

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Both halves of the compatibility story.  Forward: an untraced query
   encodes byte-identically to what a pre-trace client sends (no trace keys
   on the wire at all).  Backward: frames whose trace fields are absent,
   wrong-width, wrong-case or outright garbage all decode as "no trace" —
   observability metadata can never fail an otherwise well-formed
   request. *)
let trace_tolerant_decode () =
  let q = List.hd sample_queries in
  let enc = Proto.encode_request (Proto.Query q) in
  Alcotest.(check bool) "untraced query puts no trace keys on the wire" false
    (contains enc "trace_id" || contains enc "span_id");
  (match Proto.decode_request enc with
  | Ok (Proto.Query q') ->
      Alcotest.(check string) "absent trace id reads as none" "" q'.Proto.q_trace_id;
      Alcotest.(check string) "absent span id reads as none" "" q'.Proto.q_span_id
  | Ok _ | Error _ -> Alcotest.fail "old-format query frame did not decode");
  (* the encoder passes non-empty ids through verbatim, so feeding it
     malformed ones fabricates exactly the bad frames a buggy or hostile
     peer would send *)
  let bad =
    [ ("wrong width", "abc", "0123");
      ("uppercase hex", String.uppercase_ascii traced_query.Proto.q_trace_id,
       String.uppercase_ascii traced_query.Proto.q_span_id);
      ("not hex at all", String.make 32 'z', String.make 16 'z') ]
  in
  List.iter
    (fun (label, tid, sid) ->
      let enc =
        Proto.encode_request
          (Proto.Query { q with Proto.q_trace_id = tid; q_span_id = sid })
      in
      match Proto.decode_request enc with
      | Ok (Proto.Query q') ->
          Alcotest.(check string) (label ^ ": trace id dropped") "" q'.Proto.q_trace_id;
          Alcotest.(check string) (label ^ ": span id dropped") "" q'.Proto.q_span_id
      | Ok _ | Error _ -> Alcotest.failf "%s: frame with bad trace ids must still decode" label)
    bad;
  (* same tolerance on the response side *)
  let r =
    { Proto.r_cached = false; r_key = String.make 64 'c'; r_ok = true; r_body = "{}";
      r_trace_id = "NOT-A-TRACE-ID-BUT-NON-EMPTY-...." }
  in
  match Proto.decode_response (Proto.encode_response (Proto.Result r)) with
  | Ok (Proto.Result r') ->
      Alcotest.(check string) "bad result trace id dropped" "" r'.Proto.r_trace_id
  | Ok _ | Error _ -> Alcotest.fail "result with a bad trace id must still decode"

(* Deadline and attempt follow the same wire discipline as the trace
   context: unset values put no keys on the wire at all (a deadline-free
   query encodes byte-identically to what a pre-deadline client sends),
   values the encoder's guards refuse never reach the peer, and nothing
   here touches the content address. *)
let resilience_tolerant_decode () =
  let q = List.hd sample_queries in
  let enc = Proto.encode_request (Proto.Query q) in
  Alcotest.(check bool) "unset deadline/attempt put no keys on the wire" false
    (contains enc "deadline" || contains enc "attempt");
  (match Proto.decode_request enc with
  | Ok (Proto.Query q') ->
      Alcotest.(check (float 0.)) "absent deadline reads as none" 0. q'.Proto.q_deadline;
      Alcotest.(check int) "absent attempt reads as first try" 0 q'.Proto.q_attempt
  | Ok _ | Error _ -> Alcotest.fail "deadline-free frame did not decode");
  List.iter
    (fun d ->
      let enc =
        Proto.encode_request (Proto.Query { q with Proto.q_deadline = d; q_attempt = -3 })
      in
      match Proto.decode_request enc with
      | Ok (Proto.Query q') ->
          Alcotest.(check (float 0.)) "unencodable deadline dropped" 0. q'.Proto.q_deadline;
          Alcotest.(check int) "negative attempt dropped" 0 q'.Proto.q_attempt
      | Ok _ | Error _ -> Alcotest.fail "frame with bad resilience fields must still decode")
    [ -1.5; 0.; Float.nan; Float.infinity; Float.neg_infinity ];
  (* the set case must survive the round trip (sample_queries also carries
     one through request_roundtrip) *)
  (match Proto.decode_request (Proto.encode_request (Proto.Query { q with Proto.q_deadline = 2.5; q_attempt = 7 })) with
  | Ok (Proto.Query q') ->
      Alcotest.(check (float 1e-12)) "deadline round-trips" 2.5 q'.Proto.q_deadline;
      Alcotest.(check int) "attempt round-trips" 7 q'.Proto.q_attempt
  | Ok _ | Error _ -> Alcotest.fail "deadline-carrying frame did not decode");
  Alcotest.(check string) "deadline/attempt never reach the content address"
    (Proto.cache_key q)
    (Proto.cache_key { q with Proto.q_deadline = 2.5; q_attempt = 7 })

let prop_decode_request_total =
  qtest "decode_request: arbitrary bytes never raise" 2000 arb_bytes (fun s ->
      match Proto.decode_request s with Ok _ | Error _ -> true | exception _ -> false)

let prop_decode_response_total =
  qtest "decode_response: arbitrary bytes never raise" 2000 arb_bytes (fun s ->
      match Proto.decode_response s with Ok _ | Error _ -> true | exception _ -> false)

(* decode_request pinned on a corpus: each payload's decoded fields, or its
   exact error text (JSON errors carry the byte offset a client sees in
   Malformed_frame). *)
let show_request = function
  | Ok (Proto.Query q) ->
      Printf.sprintf "%s %S budget=%d seed=%d zoo=%b fresh=%b trace=%S span=%S deadline=%g attempt=%d"
        (Proto.kind_to_string q.Proto.q_kind) q.Proto.q_experiment q.Proto.q_budget q.Proto.q_seed
        q.Proto.q_zoo q.Proto.q_fresh q.Proto.q_trace_id q.Proto.q_span_id q.Proto.q_deadline
        q.Proto.q_attempt
  | Ok Proto.Stats -> "stats"
  | Ok Proto.Ping -> "ping"
  | Error e -> "error: " ^ e

let decode_request_corpus () =
  let base = {|"kind":"search","experiment":"E1","budget":2000,"seed":42,"zoo":false,"fresh":false|} in
  let query body = Fair_exec.Wire.frame [ "query"; body ] in
  let q members = query ("{" ^ members ^ "}") in
  let with_base fields = q (base ^ "," ^ fields) in
  let e1 ?(budget = 2000) ?(seed = 42) ?(trace = "") ?(span = "") ?(deadline = "0")
      ?(attempt = 0) () =
    Printf.sprintf "search \"E1\" budget=%d seed=%d zoo=false fresh=false trace=%S span=%S deadline=%s attempt=%d"
      budget seed trace span deadline attempt
  in
  let tid = traced_query.Proto.q_trace_id and sid = traced_query.Proto.q_span_id in
  List.iter
    (fun (label, payload, expected) ->
      Alcotest.(check string) label expected (show_request (Proto.decode_request payload)))
    [ ("canonical", q ({|"v":"fair-service/1",|} ^ base), e1 ());
      ( "members reordered",
        q {|"fresh":true,"zoo":true,"seed":7,"budget":500,"experiment":"e2","kind":"run","v":"fair-service/1"|},
        "run \"e2\" budget=500 seed=7 zoo=true fresh=true trace=\"\" span=\"\" deadline=0 attempt=0" );
      ( "duplicate member: the first wins",
        q ({|"kind":"run",|} ^ base),
        "run \"E1\" budget=2000 seed=42 zoo=false fresh=false trace=\"\" span=\"\" deadline=0 attempt=0" );
      ( "whitespace",
        query
          " \n{ \"kind\" :\t\"search\" ,\r\n \"experiment\":\"E1\", \"budget\" : 2000 ,\"seed\":42,\"zoo\":false,\"fresh\":false }\n ",
        e1 () );
      ( "\\u escapes",
        q {|"kind":"se\u0061rch","experiment":"\u0045\u0031\u00e9\u20ac","budget":2000,"seed":42,"zoo":false,"fresh":false|},
        "search \"E1\\195\\169\\226\\130\\172\" budget=2000 seed=42 zoo=false fresh=false trace=\"\" span=\"\" deadline=0 attempt=0"
      );
      ( "\\/ escape",
        q {|"kind":"search","experiment":"E1\/x","budget":2000,"seed":42,"zoo":false,"fresh":false|},
        "search \"E1/x\" budget=2000 seed=42 zoo=false fresh=false trace=\"\" span=\"\" deadline=0 attempt=0" );
      ("budget 2e3", q {|"kind":"search","experiment":"E1","budget":2e3,"seed":42,"zoo":false,"fresh":false|}, e1 ());
      ( "budget 2000.0",
        q {|"kind":"search","experiment":"E1","budget":2000.0,"seed":42,"zoo":false,"fresh":false|},
        e1 () );
      ( "seed -0",
        q {|"kind":"search","experiment":"E1","budget":2000,"seed":-0,"zoo":false,"fresh":false|},
        e1 ~seed:0 () );
      ( "budget -0",
        q {|"kind":"search","experiment":"E1","budget":-0,"seed":42,"zoo":false,"fresh":false|},
        "error: budget < 1" );
      ( "budget 2000.5",
        q {|"kind":"search","experiment":"E1","budget":2000.5,"seed":42,"zoo":false,"fresh":false|},
        "error: expected integer, got number" );
      ( "budget 007, seed +5",
        q {|"kind":"search","experiment":"E1","budget":007,"seed":+5,"zoo":false,"fresh":false|},
        e1 ~budget:7 ~seed:5 () );
      ( "seed 1e400",
        q {|"kind":"search","experiment":"E1","budget":2000,"seed":1e400,"zoo":false,"fresh":false|},
        "error: expected integer, got number" );
      ( "seed -",
        q {|"kind":"search","experiment":"E1","budget":2000,"seed":-,"zoo":false,"fresh":false|},
        "error: json: malformed number at byte 57" );
      ( "optional members valid",
        with_base
          (Printf.sprintf {|"trace_id":"%s","span_id":"%s","deadline":1.5,"attempt":3|} tid sid),
        e1 ~trace:tid ~span:sid ~deadline:"1.5" ~attempt:3 () );
      ( "optional members of the wrong type",
        with_base {|"trace_id":"ABC","span_id":5,"deadline":"soon","attempt":2.5|},
        e1 () );
      ( "optional members out of range",
        with_base
          (Printf.sprintf {|"trace_id":"%s","span_id":"0123456789abcdeg","deadline":-1,"attempt":-3|}
             (String.uppercase_ascii tid)),
        e1 () );
      ("deadline 1e400, attempt null", with_base {|"deadline":1e400,"attempt":null|}, e1 ());
      ( "missing seed",
        q {|"kind":"search","experiment":"E1","budget":2000,"zoo":false,"fresh":false|},
        "error: missing key \"seed\"" );
      ( "zoo a string",
        q {|"kind":"search","experiment":"E1","budget":2000,"seed":42,"zoo":"no","fresh":false|},
        "error: expected bool, got string" );
      ( "unknown kind",
        q {|"kind":"walk","experiment":"E1","budget":2000,"seed":42,"zoo":false,"fresh":false|},
        "error: unknown query kind \"walk\" (expected search|run)" );
      ( "budget 0",
        q {|"kind":"search","experiment":"E1","budget":0,"seed":42,"zoo":false,"fresh":false|},
        "error: budget < 1" );
      ("body an array", query "[1]", "error: expected object with key \"kind\", got array");
      ( "truncated in a number",
        query {|{"kind":"search","budget":20|},
        "error: json: expected ',' or '}' at byte 28" );
      ("truncated in a string", query {|{"kind":"sea|}, "error: json: unterminated string at byte 12");
      ("truncated in a literal", query {|{"zoo":fal|}, "error: json: expected false at byte 7");
      ("truncated in an escape", query {|{"kind":"s\|}, "error: json: unterminated escape at byte 11");
      ( "truncated \\u escape",
        query {|{"kind":"\u00|},
        "error: json: truncated \\u escape at byte 11" );
      ("empty body", query "", "error: json: unexpected end of input at byte 0");
      ("trailing input", query ("{" ^ base ^ "} x"), "error: json: trailing garbage at byte 86");
      ("two objects", query ("{" ^ base ^ "}{}"), "error: json: trailing garbage at byte 85");
      ("one wire field", "query", "error: expected 2 wire fields, got 1");
      ("three wire fields", "query|{}|{}", "error: expected 2 wire fields, got 3");
      ("dangling wire escape", "query|{}\\", "error: Wire.unframe: dangling escape");
      ("unknown tag", "nope|{}", "error: unknown request tag \"nope\"");
      ("ping", "ping|{\"v\":\"fair-service/1\"}", "ping");
      ("stats with any body", "stats|not json", "stats") ]

let cache_key_semantics () =
  let q = List.hd sample_queries in
  let k = Proto.cache_key q in
  Alcotest.(check int) "key is hex sha-256" 64 (String.length k);
  Alcotest.(check string) "deterministic" k (Proto.cache_key q);
  Alcotest.(check string) "case-insensitive experiment id" k
    (Proto.cache_key { q with Proto.q_experiment = "e1" });
  Alcotest.(check string) "q_fresh changes caching, not content" k
    (Proto.cache_key { q with Proto.q_fresh = true });
  Alcotest.(check string) "trace context never reaches the content address" k
    (Proto.cache_key
       { q with
         Proto.q_trace_id = traced_query.Proto.q_trace_id;
         q_span_id = traced_query.Proto.q_span_id });
  let differs label q' =
    if Proto.cache_key q' = k then Alcotest.failf "%s did not change the key" label
  in
  differs "kind" { q with Proto.q_kind = Proto.Run };
  differs "experiment" { q with Proto.q_experiment = "E2" };
  differs "budget" { q with Proto.q_budget = q.Proto.q_budget + 1 };
  differs "seed" { q with Proto.q_seed = q.Proto.q_seed + 1 };
  differs "zoo" { q with Proto.q_zoo = true }

let failure_json_roundtrip () =
  List.iter
    (fun f ->
      match Failure.of_json (Failure.to_json f) with
      | Ok f' when f = f' -> ()
      | Ok _ -> Alcotest.fail "failure changed across JSON"
      | Error e -> Alcotest.failf "failure did not decode: %s" e)
    sample_failures

(* A hit writes the frame stored when its answer was computed, with the
   asker's trace id spliced in: the bytes must be those of encoding the
   cached result afresh, for any body bytes, either verdict, and an empty
   or a valid trace id.  The cold path splices the same way. *)
let prop_hit_frame =
  let byte =
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ '|'; '\\'; '"'; '\000'; '\n'; '\r'; '\t'; '\031'; '\127'; '\255' ]);
          (3, map Char.chr (int_range 0 255)) ])
  in
  let trace_id =
    QCheck.Gen.(
      oneof [ return ""; string_size ~gen:(oneofl (String.to_seq "0123456789abcdef" |> List.of_seq)) (return 32) ])
  in
  qtest "a hit writes the encoded cached result, trace id spliced" 300
    (QCheck.make
       ~print:QCheck.Print.(quad string bool string int)
       QCheck.Gen.(quad (string_size ~gen:byte (int_range 0 600)) bool trace_id (int_range 0 1_000_000)))
    (fun (body, ok, tid, seed) ->
      let q = { (List.hd sample_queries) with Proto.q_seed = seed; q_trace_id = tid } in
      let key = Proto.cache_key q and cache = Cache.create () in
      let frame ~cached r_trace_id =
        Proto.encode_response
          (Proto.Result { Proto.r_cached = cached; r_key = key; r_ok = ok; r_body = body; r_trace_id })
      in
      S.Server.remember cache ~key (body, ok);
      S.Server.hit cache (Proto.encode_request (Proto.Query q)) = Some (frame ~cached:true tid)
      && Proto.with_trace_id (frame ~cached:false "") tid = frame ~cached:false tid)

(* ---------------------------- cache --------------------------------- *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "fair-cache-test-%d-%d" (Unix.getpid ()) !tmp_counter)

let find c key = Option.map fst (Cache.find c key)

let cache_memory_roundtrip () =
  let c = Cache.create ~capacity:4 () in
  Alcotest.(check (option string)) "miss before store" None (find c "k1");
  Cache.store c ~key:"k1" "v1";
  Alcotest.(check (option string)) "hit after store" (Some "v1") (find c "k1");
  Cache.store c ~key:"k1" "v1'";
  Alcotest.(check (option string)) "overwrite wins" (Some "v1'") (find c "k1");
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "entries" 1 s.Cache.entries

let cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c ~key:"a" "1";
  Cache.store c ~key:"b" "2";
  ignore (Cache.find c "a");  (* promote a: b is now least-recently-used *)
  Cache.store c ~key:"c" "3";
  Alcotest.(check (option string)) "b evicted" None (find c "b");
  Alcotest.(check (option string)) "a survived (promoted)" (Some "1") (find c "a");
  Alcotest.(check (option string)) "c present" (Some "3") (find c "c");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions

let cache_disk_spill () =
  let dir = fresh_dir () in
  let c = Cache.create ~capacity:4 ~dir () in
  Cache.store c ~key:"k" "spilled-value";
  (* a different cache instance over the same directory starts warm *)
  let c2 = Cache.create ~capacity:4 ~dir () in
  Alcotest.(check (option string)) "found via disk" (Some "spilled-value") (find c2 "k");
  Alcotest.(check int) "counted as disk hit" 1 (Cache.stats c2).Cache.disk_hits;
  (* now in memory: the next hit is free *)
  ignore (Cache.find c2 "k");
  Alcotest.(check int) "promoted to memory" 1 (Cache.stats c2).Cache.disk_hits

let cache_eviction_keeps_disk () =
  let dir = fresh_dir () in
  let c = Cache.create ~capacity:1 ~dir () in
  Cache.store c ~key:"a" "va";
  Cache.store c ~key:"b" "vb";  (* evicts a from memory; disk still has it *)
  Alcotest.(check int) "a was evicted" 1 (Cache.stats c).Cache.evictions;
  Alcotest.(check (option string)) "a still answerable" (Some "va") (find c "a");
  Alcotest.(check int) "via the spill dir" 1 (Cache.stats c).Cache.disk_hits

(* What the filesystem does to a spilled entry after we wrote it is not
   ours to control: a corrupted file must read as a miss (recompute), be
   deleted, and heal on the re-spill — never be served verbatim. *)
let entry_path dir key = Filename.concat dir (key ^ ".entry")

let cache_corruption_heals corrupt () =
  let dir = fresh_dir () in
  let c = Cache.create ~capacity:4 ~dir () in
  Cache.store c ~key:"k" "precious-value";
  let path = entry_path dir "k" in
  Alcotest.(check bool) "entry spilled" true (Sys.file_exists path);
  corrupt path;
  (* A fresh instance over the same dir: memory tier empty, the poisoned
     spill is the only copy left. *)
  let c2 = Cache.create ~capacity:4 ~dir () in
  Alcotest.(check (option string)) "corrupt entry reads as a miss" None (find c2 "k");
  Alcotest.(check bool) "poisoned file deleted" false (Sys.file_exists path);
  (* the caller recomputes and stores: the slot heals on disk *)
  Cache.store c2 ~key:"k" "precious-value";
  let c3 = Cache.create ~capacity:4 ~dir () in
  Alcotest.(check (option string)) "re-spill heals the slot" (Some "precious-value")
    (find c3 "k")

let rewrite path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let cache_disk_truncated () =
  cache_corruption_heals
    (fun path ->
      let raw = In_channel.with_open_bin path In_channel.input_all in
      (* keep the digest header but lose the tail of the value *)
      rewrite path (String.sub raw 0 (String.length raw - 3)))
    ()

let cache_disk_truncated_below_header () =
  cache_corruption_heals
    (fun path ->
      let raw = In_channel.with_open_bin path In_channel.input_all in
      rewrite path (String.sub raw 0 17))
    ()

let cache_disk_garbled () =
  cache_corruption_heals
    (fun path ->
      let raw = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string raw in
      (* flip one bit of the value body: length and shape stay plausible *)
      let i = String.length raw - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      rewrite path (Bytes.to_string b))
    ()

(* -------------------------- cost model ------------------------------ *)

let costmodel_learns () =
  let m = Costmodel.create ~alpha:0.5 ~default_s:0.05 () in
  Alcotest.(check (float 1e-12)) "unobserved key estimates the default" 0.05
    (Costmodel.estimate m ~kind:"search" ~experiment:"E1");
  Costmodel.observe m ~kind:"search" ~experiment:"E1" ~wall_s:0.2;
  Alcotest.(check (float 1e-12)) "first observation replaces the default" 0.2
    (Costmodel.estimate m ~kind:"search" ~experiment:"E1");
  Costmodel.observe m ~kind:"search" ~experiment:"E1" ~wall_s:0.4;
  Alcotest.(check (float 1e-12)) "EWMA blends at alpha" 0.3
    (Costmodel.estimate m ~kind:"search" ~experiment:"E1");
  Alcotest.(check (float 1e-12)) "experiment id normalized like the content address" 0.3
    (Costmodel.estimate m ~kind:"search" ~experiment:"e1");
  Alcotest.(check (float 1e-12)) "other keys untouched" 0.05
    (Costmodel.estimate m ~kind:"run" ~experiment:"E1");
  Alcotest.(check (list (pair string (float 1e-12)))) "snapshot is name-sorted"
    [ ("search/E1", 0.3) ] (Costmodel.snapshot m)

let costmodel_floor_rejects_garbage () =
  let m = Costmodel.create ~floor_s:1e-3 () in
  List.iter
    (fun bad ->
      Costmodel.observe m ~kind:"search" ~experiment:"E1" ~wall_s:bad;
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "observation %f clamps to the floor" bad)
        1e-3
        (Costmodel.estimate m ~kind:"search" ~experiment:"E1"))
    [ 0.; -5.; Float.nan; Float.infinity; 1e-9 ];
  Alcotest.check_raises "alpha outside (0,1] rejected"
    (Invalid_argument "Costmodel.create: alpha not in (0,1]") (fun () ->
      ignore (Costmodel.create ~alpha:1.5 ()))

let costmodel_seed_from_file () =
  let path = fresh_dir () ^ ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        ("{\"tier\":\"cold\",\"kind\":\"search\",\"experiment\":\"E2\",\"wall_s\":0.25}\n"
       ^ "{\"tier\":\"mem\",\"kind\":\"search\",\"experiment\":\"E2\",\"wall_s\":0.001}\n"
       ^ "not json at all\n"
       ^ "{\"tier\":\"cold\",\"kind\":\"\",\"experiment\":\"E2\",\"wall_s\":0.25}\n"));
  let m = Costmodel.create ~alpha:1.0 () in
  Alcotest.(check int) "exactly the well-formed cold line folded in" 1
    (Costmodel.seed_from_file m path);
  Alcotest.(check (float 1e-12)) "file seeding reaches the estimate" 0.25
    (Costmodel.estimate m ~kind:"search" ~experiment:"e2");
  Sys.remove path;
  Alcotest.(check int) "missing file seeds nothing" 0 (Costmodel.seed_from_file m path)

(* -------------------------- scheduler ------------------------------- *)

type gate = { gm : Mutex.t; gc : Condition.t; mutable opened : bool }

let gate () = { gm = Mutex.create (); gc = Condition.create (); opened = false }

let gate_wait g =
  Mutex.lock g.gm;
  while not g.opened do
    Condition.wait g.gc g.gm
  done;
  Mutex.unlock g.gm

let gate_open g =
  Mutex.lock g.gm;
  g.opened <- true;
  Condition.broadcast g.gc;
  Mutex.unlock g.gm

let wait_until ?(tries = 2500) msg f =
  let rec go tries =
    if f () then ()
    else if tries = 0 then Alcotest.failf "timed out waiting for %s" msg
    else begin
      Thread.delay 0.002;
      go (tries - 1)
    end
  in
  go tries

(* Records executions; the job named "block" parks the executor until the
   resume gate opens, letting tests fill the queue deterministically. *)
let recording_sched ~queue_limit =
  let log = ref [] in
  let log_m = Mutex.create () in
  let started = gate () in
  let resume = gate () in
  let exec (job : string Sched.job) ~followers =
    Mutex.lock log_m;
    log := (job.Sched.j_payload, List.map (fun (j : string Sched.job) -> j.Sched.j_payload) followers) :: !log;
    Mutex.unlock log_m;
    if job.Sched.j_payload = "block" then begin
      gate_open started;
      gate_wait resume
    end
  in
  let sched = Sched.create ~queue_limit ~exec () in
  let executed () =
    Mutex.lock log_m;
    let l = List.rev !log in
    Mutex.unlock log_m;
    l
  in
  (sched, started, resume, executed)

let job ?(cost = 0.) ?(deadline_ns = 0) client key payload =
  { Sched.j_client = client; j_key = key; j_attrs = []; j_cost_s = cost;
    j_deadline_ns = deadline_ns; j_queue_ns = 0; j_payload = payload }

let park sched started =
  match Sched.submit sched (job 99 "key-block" "block") with
  | `Admitted -> gate_wait started
  | `Rejected _ -> Alcotest.fail "blocking job rejected"

let sched_round_robin () =
  let sched, started, resume, executed = recording_sched ~queue_limit:16 in
  park sched started;
  (* client 1 floods, then client 2 asks once — the flood must not starve it *)
  List.iter
    (fun j -> match Sched.submit sched j with `Admitted -> () | `Rejected _ -> Alcotest.fail "rejected")
    [ job 1 "ka2" "a2"; job 1 "ka3" "a3"; job 1 "ka4" "a4"; job 2 "kb1" "b1" ];
  gate_open resume;
  wait_until "queue drain" (fun () -> List.length (executed ()) = 5 && Sched.depth sched = 0);
  Sched.stop sched;
  let order = List.map fst (executed ()) in
  Alcotest.(check (list string))
    "round-robin: the late b1 overtakes the flood's tail"
    [ "block"; "a2"; "b1"; "a3"; "a4" ] order

let sched_backpressure () =
  let sched, started, resume, executed = recording_sched ~queue_limit:2 in
  park sched started;
  (match Sched.submit sched (job 1 "k1" "j1") with `Admitted -> () | `Rejected _ -> Alcotest.fail "j1");
  (match Sched.submit sched (job 1 "k2" "j2") with `Admitted -> () | `Rejected _ -> Alcotest.fail "j2");
  (match Sched.submit sched (job 2 "k3" "j3") with
  | `Rejected (depth, limit) ->
      Alcotest.(check (pair int int)) "explicit refusal with context" (2, 2) (depth, limit)
  | `Admitted -> Alcotest.fail "queue overran its limit");
  gate_open resume;
  wait_until "queue drain" (fun () -> List.length (executed ()) = 3 && Sched.depth sched = 0);
  Sched.stop sched;
  (* the refused job never ran: no silent drop, no ghost execution *)
  Alcotest.(check bool) "j3 never executed" false
    (List.exists (fun (p, _) -> p = "j3") (executed ()))

let sched_coalescing () =
  let sched, started, resume, executed = recording_sched ~queue_limit:16 in
  park sched started;
  List.iter
    (fun j -> match Sched.submit sched j with `Admitted -> () | `Rejected _ -> Alcotest.fail "rejected")
    [ job 1 "same-key" "s1"; job 2 "same-key" "s2"; job 1 "other-key" "d1" ];
  gate_open resume;
  wait_until "queue drain" (fun () -> Sched.depth sched = 0 && List.length (executed ()) = 3);
  Sched.stop sched;
  let log = executed () in
  (match List.find_opt (fun (p, _) -> p = "s1") log with
  | Some (_, followers) ->
      Alcotest.(check (list string)) "s2 rode along as a follower" [ "s2" ] followers
  | None -> Alcotest.fail "s1 never executed");
  Alcotest.(check bool) "s2 was not executed separately" false
    (List.exists (fun (p, _) -> p = "s2") log);
  Alcotest.(check bool) "the different key ran on its own" true
    (List.exists (fun (p, f) -> p = "d1" && f = []) log)

let sched_drop_client () =
  let sched, started, resume, executed = recording_sched ~queue_limit:16 in
  park sched started;
  List.iter
    (fun j -> match Sched.submit sched j with `Admitted -> () | `Rejected _ -> Alcotest.fail "rejected")
    [ job 1 "k1" "dead1"; job 1 "k2" "dead2"; job 2 "k3" "alive" ];
  Sched.drop_client sched 1;
  gate_open resume;
  wait_until "queue drain" (fun () -> Sched.depth sched = 0 && List.length (executed ()) = 2);
  Sched.stop sched;
  let ran = List.map fst (executed ()) in
  Alcotest.(check (list string)) "dead client's queue vanished" [ "block"; "alive" ] ran

(* ------------------------ executor pool ----------------------------- *)

(* A scheduler with [workers] domains behind it.  Jobs whose payload starts
   with "block" park on the shared [resume] gate; [running]/[peak] track
   true execution overlap from inside [exec]. *)
let pool_sched ~workers ~queue_limit =
  let log = ref [] in
  let log_m = Mutex.create () in
  let resume = gate () in
  let running = Atomic.make 0 in
  let peak = Atomic.make 0 in
  let exec (j : string Sched.job) ~followers =
    Mutex.lock log_m;
    log := (j.Sched.j_payload, List.map (fun (f : string Sched.job) -> f.Sched.j_payload) followers) :: !log;
    Mutex.unlock log_m;
    let r = 1 + Atomic.fetch_and_add running 1 in
    let rec bump () =
      let p = Atomic.get peak in
      if r > p && not (Atomic.compare_and_set peak p r) then bump ()
    in
    bump ();
    if String.length j.Sched.j_payload >= 5 && String.sub j.Sched.j_payload 0 5 = "block" then
      gate_wait resume;
    ignore (Atomic.fetch_and_add running (-1))
  in
  let sched = Sched.create ~queue_limit ~workers ~exec () in
  let executed () =
    Mutex.lock log_m;
    let l = List.rev !log in
    Mutex.unlock log_m;
    l
  in
  (sched, resume, executed, running, peak)

let pool_submit sched j =
  match Sched.submit sched j with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "pool job rejected"

let sched_pool_overlap () =
  let sched, resume, executed, running, peak = pool_sched ~workers:2 ~queue_limit:16 in
  pool_submit sched (job 1 "ka" "block-a");
  pool_submit sched (job 2 "kb" "block-b");
  wait_until "both workers busy" (fun () -> Atomic.get running = 2);
  Alcotest.(check int) "concurrency gauge sees both" 2 (Sched.concurrency sched);
  gate_open resume;
  wait_until "drain" (fun () ->
      Sched.depth sched = 0 && Atomic.get running = 0 && List.length (executed ()) = 2);
  Sched.stop sched;
  Alcotest.(check int) "distinct keys truly overlapped" 2 (Atomic.get peak)

let sched_pool_per_key_serialized () =
  let sched, resume, executed, running, peak = pool_sched ~workers:2 ~queue_limit:16 in
  pool_submit sched (job 1 "shared" "block-first");
  wait_until "leader in flight" (fun () -> Atomic.get running = 1);
  (* Same key arrives after the leader was dispatched: too late to coalesce,
     so it must wait for the key to leave flight — even with an idle worker
     sitting right there. *)
  pool_submit sched (job 2 "shared" "second");
  Thread.delay 0.05;
  Alcotest.(check int) "held back while its key is in flight" 1 (List.length (executed ()));
  gate_open resume;
  wait_until "drain" (fun () ->
      Sched.depth sched = 0 && Atomic.get running = 0 && List.length (executed ()) = 2);
  Sched.stop sched;
  Alcotest.(check (list string)) "per-key FIFO preserved" [ "block-first"; "second" ]
    (List.map fst (executed ()));
  Alcotest.(check int) "same key never overlapped" 1 (Atomic.get peak)

let sched_pool_coalescing () =
  let sched, resume, executed, running, _peak = pool_sched ~workers:2 ~queue_limit:16 in
  (* park both workers so the same-key pair is queued, not dispatched *)
  pool_submit sched (job 1 "ka" "block-a");
  pool_submit sched (job 2 "kb" "block-b");
  wait_until "both workers busy" (fun () -> Atomic.get running = 2);
  pool_submit sched (job 3 "kc" "c1");
  pool_submit sched (job 4 "kc" "c2");
  gate_open resume;
  wait_until "drain" (fun () ->
      Sched.depth sched = 0 && Atomic.get running = 0 && List.length (executed ()) = 3);
  Sched.stop sched;
  let log = executed () in
  (match List.find_opt (fun (p, _) -> p = "c1") log with
  | Some (_, followers) ->
      Alcotest.(check (list string)) "c2 rode along as a follower" [ "c2" ] followers
  | None -> Alcotest.fail "c1 never executed");
  Alcotest.(check bool) "c2 was not executed separately" false
    (List.exists (fun (p, _) -> p = "c2") log)

(* --------------------- scheduler resilience -------------------------- *)

(* A recording scheduler with shed/crash hooks.  Payload "block" parks the
   worker on the resume gate (as in recording_sched); payload "die" raises
   from exec, driving the real supervision path. *)
let resilient_sched ?(workers = 1) ?(cost_budget = 0.) ~queue_limit () =
  let log = ref [] and shed = ref [] and crashed = ref [] in
  let m = Mutex.create () in
  let record r v =
    Mutex.lock m;
    r := v :: !r;
    Mutex.unlock m
  in
  let view r =
    Mutex.lock m;
    let l = List.rev !r in
    Mutex.unlock m;
    l
  in
  let started = gate () in
  let resume = gate () in
  let exec (j : string Sched.job) ~followers =
    record log (j.Sched.j_payload, List.map (fun (f : string Sched.job) -> f.Sched.j_payload) followers);
    if j.Sched.j_payload = "die" then failwith "scripted worker death";
    if j.Sched.j_payload = "block" then begin
      gate_open started;
      gate_wait resume
    end
  in
  let on_shed (j : string Sched.job) = record shed (j.Sched.j_payload, j.Sched.j_queue_ns) in
  let on_crash (j : string Sched.job) ~followers exn =
    record crashed
      ( j.Sched.j_payload,
        List.map (fun (f : string Sched.job) -> f.Sched.j_payload) followers,
        Printexc.to_string exn )
  in
  let sched = Sched.create ~queue_limit ~cost_budget ~workers ~on_shed ~on_crash ~exec () in
  (sched, started, resume, (fun () -> view log), (fun () -> view shed), fun () -> view crashed)

let sched_deadline_shed () =
  let sched, started, resume, executed, shed, _ = resilient_sched ~queue_limit:16 () in
  park sched started;
  (* queued behind the parked worker with a deadline that expires there *)
  let expired = Fair_obs.Clock.now_ns () + 1_000_000 in
  (match Sched.submit sched (job ~deadline_ns:expired 1 "k1" "too-late") with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "deadline job rejected");
  (match Sched.submit sched (job 2 "k2" "lives") with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "clean job rejected");
  Thread.delay 0.02;
  gate_open resume;
  wait_until "drain" (fun () -> Sched.depth sched = 0 && List.length (shed ()) = 1);
  Sched.stop sched;
  (match shed () with
  | [ (payload, queue_ns) ] ->
      Alcotest.(check string) "the expired job was shed" "too-late" payload;
      Alcotest.(check bool) "its queue wait was stamped" true (queue_ns > 0)
  | l -> Alcotest.failf "expected exactly one shed job, saw %d" (List.length l));
  Alcotest.(check bool) "shed work never reached exec" false
    (List.exists (fun (p, _) -> p = "too-late") (executed ()));
  Alcotest.(check bool) "deadline-free work still ran" true
    (List.exists (fun (p, _) -> p = "lives") (executed ()))

let sched_cost_budget_admission () =
  let sched, started, resume, _executed, _, _ =
    resilient_sched ~queue_limit:1 ~cost_budget:1.0 ()
  in
  park sched started;
  (* depth floor: an empty queue always admits, whatever the cost *)
  (match Sched.submit sched (job ~cost:5.0 1 "k1" "expensive") with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "empty queue must admit (depth floor)");
  (* past the depth limit the budget decides, and the expensive head has
     already consumed all of it *)
  (match Sched.submit sched (job ~cost:0.4 2 "k2" "cheap-a") with
  | `Admitted -> Alcotest.fail "summed cost above budget must refuse"
  | `Rejected _ -> ());
  gate_open resume;
  wait_until "first sched drains" (fun () -> Sched.depth sched = 0);
  Sched.stop sched;
  (* rebuild with a cheap head: now the budget is what admits past depth *)
  let sched, started, resume, _executed, _, _ =
    resilient_sched ~queue_limit:1 ~cost_budget:1.0 ()
  in
  park sched started;
  (match Sched.submit sched (job ~cost:0.3 1 "k1" "a") with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "a");
  (match Sched.submit sched (job ~cost:0.3 2 "k2" "b") with
  | `Admitted -> ()  (* depth 1 ≥ limit 1, but 0.3+0.3 ≤ 1.0 *)
  | `Rejected _ -> Alcotest.fail "cost budget must admit past the depth limit");
  Alcotest.(check (float 1e-9)) "pending cost is the queued sum" 0.6
    (Sched.pending_cost sched);
  (match Sched.submit sched (job ~cost:0.5 3 "k3" "c") with
  | `Admitted -> Alcotest.fail "0.6+0.5 exceeds the budget"
  | `Rejected _ -> ());
  gate_open resume;
  wait_until "drain" (fun () -> Sched.depth sched = 0);
  Sched.stop sched;
  Alcotest.(check (float 1e-9)) "pending cost returns to zero" 0. (Sched.pending_cost sched)

let sched_supervision_respawns () =
  let sched, _, _, executed, _, crashed = resilient_sched ~queue_limit:16 () in
  (match Sched.submit sched (job 1 "k1" "die") with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "die job rejected");
  wait_until "crash handled" (fun () -> crashed () <> []);
  (match crashed () with
  | [ (leader, followers, exn) ] ->
      Alcotest.(check string) "the dying leader reached on_crash" "die" leader;
      Alcotest.(check (list string)) "no followers in this batch" [] followers;
      Alcotest.(check bool) "the crash cause is preserved" true
        (contains exn "scripted worker death")
  | l -> Alcotest.failf "expected exactly one crash, saw %d" (List.length l));
  wait_until "replacement spawned" (fun () -> Sched.restarts sched = 1);
  (* the replacement domain picks up new work *)
  (match Sched.submit sched (job 2 "k2" "after") with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "post-crash job rejected");
  wait_until "replacement executes" (fun () ->
      List.exists (fun (p, _) -> p = "after") (executed ()));
  Sched.stop sched

let sched_chaos_kill_is_supervised () =
  let sched, _, _, executed, _, crashed = resilient_sched ~queue_limit:16 () in
  Sched.chaos_kill_workers sched 1;
  (match Sched.submit sched (job 1 "k1" "victim") with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "victim rejected");
  wait_until "injected death handled" (fun () -> crashed () <> []);
  (match crashed () with
  | [ (leader, _, exn) ] ->
      Alcotest.(check string) "the kill fired with a job in hand" "victim" leader;
      Alcotest.(check bool) "the cause is the injected exception" true
        (contains exn "Chaos_worker_killed")
  | l -> Alcotest.failf "expected exactly one injected death, saw %d" (List.length l));
  Alcotest.(check bool) "the doomed dispatch never ran exec" false
    (List.exists (fun (p, _) -> p = "victim") (executed ()));
  (match Sched.submit sched (job 2 "k2" "after") with
  | `Admitted -> ()
  | `Rejected _ -> Alcotest.fail "post-kill job rejected");
  wait_until "replacement executes" (fun () ->
      List.exists (fun (p, _) -> p = "after") (executed ()));
  Sched.stop sched;
  Alcotest.(check int) "exactly one restart" 1 (Sched.restarts sched)

(* ------------------------- client retry ------------------------------ *)

let retry_policy = { S.Client.Retry.retries = 3; budget_s = 1.0; base_s = 0.001; cap_s = 0.002 }

let retry_matrix () =
  List.iter
    (fun (f, expect) ->
      Alcotest.(check bool) (Failure.code f ^ " retryable") expect (S.Client.Retry.retryable f))
    [ (Failure.Connection_lost { reason = "x" }, true);
      (Failure.Overloaded { depth = 1; limit = 1 }, true);
      (Failure.Malformed_frame { seq = 1; reason = "x" }, false);
      (Failure.Unknown_query { reason = "x" }, false);
      (Failure.Query_failed { reason = "x" }, false);
      (Failure.Deadline_exceeded { waited_s = 1.; deadline_s = 0.5 }, false);
      (Failure.Draining { reason = "x" }, false) ]

let retry_off_is_single_attempt () =
  let attempts = ref [] in
  let attempt ~attempt =
    attempts := attempt :: !attempts;
    Result.Error (Failure.Overloaded { depth = 1; limit = 1 })
  in
  (match S.Client.Retry.run ~policy:S.Client.Retry.default ~seed:1 attempt with
  | Result.Error (`Failed (Failure.Overloaded _)) -> ()
  | _ -> Alcotest.fail "retries off must fail plainly, not exhaust");
  Alcotest.(check (list int)) "one attempt, numbered 0" [ 0 ] (List.rev !attempts)

let retry_non_retryable_fails_fast () =
  let count = ref 0 in
  let attempt ~attempt:_ =
    incr count;
    Result.Error (Failure.Unknown_query { reason = "E99" })
  in
  (match S.Client.Retry.run ~policy:retry_policy ~seed:1 attempt with
  | Result.Error (`Failed (Failure.Unknown_query _)) -> ()
  | _ -> Alcotest.fail "a deliberate answer must not be retried");
  Alcotest.(check int) "single attempt" 1 !count

let retry_recovers_midway () =
  let attempts = ref [] in
  let attempt ~attempt =
    attempts := attempt :: !attempts;
    if attempt < 2 then Result.Error (Failure.Connection_lost { reason = "flaky" })
    else Ok "answer"
  in
  (match S.Client.Retry.run ~policy:retry_policy ~seed:7 attempt with
  | Ok "answer" -> ()
  | _ -> Alcotest.fail "the third attempt's success must surface");
  Alcotest.(check (list int)) "attempt numbers climb from 0" [ 0; 1; 2 ] (List.rev !attempts)

let retry_exhaustion_is_distinct_and_deterministic () =
  let run () =
    let count = ref 0 in
    let attempt ~attempt:_ =
      incr count;
      Result.Error (Failure.Connection_lost { reason = "down" })
    in
    match S.Client.Retry.run ~policy:retry_policy ~seed:42 attempt with
    | Result.Error (`Exhausted (n, Failure.Connection_lost _)) -> (n, !count)
    | _ -> Alcotest.fail "running out of retries must report exhaustion"
  in
  let n1, c1 = run () in
  Alcotest.(check int) "attempts = retries + 1" 4 n1;
  Alcotest.(check int) "the callback saw every attempt" 4 c1;
  let n2, c2 = run () in
  Alcotest.(check (pair int int)) "same seed, same schedule" (n1, c1) (n2, c2)

let retry_budget_bounds_sleeps () =
  let count = ref 0 in
  let attempt ~attempt:_ =
    incr count;
    Result.Error (Failure.Overloaded { depth = 9; limit = 8 })
  in
  match
    S.Client.Retry.run
      ~policy:{ retry_policy with S.Client.Retry.budget_s = 0. }
      ~seed:3 attempt
  with
  | Result.Error (`Exhausted (1, _)) ->
      Alcotest.(check int) "a zero budget allows exactly the first attempt" 1 !count
  | _ -> Alcotest.fail "an exhausted sleep budget must report exhaustion"

(* ---------------------- client failure surface ----------------------- *)

(* S1: [connect ~timeout] must bound connect(2) itself.  A bound socket
   with a full (zero) backlog is the listening-but-never-accepting peer:
   blocking connect would hang inside the syscall forever. *)
let client_connect_timeout () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fair-noaccept-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 0;
  (* fill whatever backlog the kernel actually granted with raw
     nonblocking connects, so the client's connect cannot complete *)
  let fillers = ref [] in
  (try
     for _ = 1 to 16 do
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Unix.set_nonblock fd;
       (try Unix.connect fd (Unix.ADDR_UNIX socket)
        with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
       fillers := fd :: !fillers
     done
   with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !fillers;
      Unix.close listener;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      match S.Client.connect ~socket ~timeout:0.3 () with
      | Result.Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error names the timeout (got %S)" e)
            true (contains e "timed out");
          Alcotest.(check bool) "returned near the bound, not hung"
            true
            (Unix.gettimeofday () -. t0 < 5.0)
      | Ok c ->
          S.Client.close c;
          Alcotest.fail "connect succeeded against a never-accepting peer")

(* S2: a poisoned reply stream (hostile length prefix) must surface as
   [Connection_lost] and close the fd eagerly — no later frame on that
   stream could be trusted. *)
let client_poisoned_reply_closes () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fair-poison-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket);
  Unix.listen listener 1;
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        (* swallow the request, answer with an impossible length prefix *)
        ignore (Unix.read fd (Bytes.create 256) 0 256);
        ignore (Unix.write fd (Bytes.of_string "\xff\xff\xff\xff") 0 4);
        Thread.delay 0.2;
        (try Unix.close fd with Unix.Unix_error _ -> ()))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close listener;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let c =
        match S.Client.connect ~socket ~timeout:5.0 () with
        | Ok c -> c
        | Result.Error e -> Alcotest.failf "connect: %s" e
      in
      (match S.Client.send_request c S.Proto.Ping with
      | Ok () -> ()
      | Result.Error f -> Alcotest.failf "send: %s" (Failure.to_string f));
      (match S.Client.read_response c with
      | Result.Error (Failure.Connection_lost _) -> ()
      | Result.Error f ->
          Alcotest.failf "expected connection-lost, got %s" (Failure.to_string f)
      | Ok _ -> Alcotest.fail "a poisoned stream produced a response");
      (* the fd is already closed: further use fails instantly, it does not
         sit on a dead socket *)
      match S.Client.send_request c S.Proto.Ping with
      | Result.Error (Failure.Connection_lost _) -> ()
      | Result.Error f -> Alcotest.failf "expected connection-lost, got %s" (Failure.to_string f)
      | Ok () -> Alcotest.fail "send succeeded on an eagerly-closed connection")

(* ------------------------ server isolation -------------------------- *)

let with_server f =
  let socket = Printf.sprintf "test-svc-%d.sock" (Unix.getpid ()) in
  let server = S.Server.start ~socket ~jobs:1 () in
  Fun.protect ~finally:(fun () -> S.Server.stop server) (fun () -> f socket)

let connect socket =
  match S.Client.connect ~socket ~timeout:30.0 () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let server_unknown_query_keeps_conn () =
  with_server @@ fun socket ->
  let c = connect socket in
  let q = { (List.hd sample_queries) with Proto.q_experiment = "E99" } in
  (match S.Client.query c q with
  | Error (Failure.Unknown_query _) -> ()
  | Error f -> Alcotest.failf "expected unknown-query, got %s" (Failure.to_string f)
  | Ok _ -> Alcotest.fail "E99 answered");
  (* a usage error must not cost the connection *)
  (match S.Client.ping c with
  | Ok () -> ()
  | Error f -> Alcotest.failf "connection died after a usage error: %s" (Failure.to_string f));
  S.Client.close c

let server_malformed_frame_closes () =
  with_server @@ fun socket ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Frame.write fd "this is|not a\\valid|request";
  let dec = Frame.Decoder.create () in
  (match Frame.read fd dec with
  | Ok (Some payload) -> (
      match Proto.decode_response payload with
      | Ok (Proto.Error (Failure.Malformed_frame { seq = 1; _ })) -> ()
      | Ok r ->
          Alcotest.failf "expected malformed-frame, got %s"
            (match r with
            | Proto.Error f -> Failure.to_string f
            | _ -> "a non-error response")
      | Error e -> Alcotest.failf "unreadable error reply: %s" e)
  | Ok None -> Alcotest.fail "server closed without the structured error"
  | Error e -> Alcotest.failf "read: %s" e);
  (match Frame.read fd dec with
  | Ok None -> ()  (* the connection is gone *)
  | Ok (Some _) -> Alcotest.fail "server kept talking on a poisoned stream"
  | Error e -> Alcotest.failf "expected clean close, got %s" e);
  Unix.close fd

let server_hostile_length_prefix () =
  with_server @@ fun socket ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (* a 4 GiB length announcement: the server must refuse, not allocate *)
  ignore (Unix.write fd (Bytes.of_string "\xff\xff\xff\xff") 0 4);
  let dec = Frame.Decoder.create () in
  (match Frame.read fd dec with
  | Ok (Some payload) -> (
      match Proto.decode_response payload with
      | Ok (Proto.Error (Failure.Malformed_frame _)) -> ()
      | _ -> Alcotest.fail "expected a malformed-frame error")
  | Ok None -> Alcotest.fail "server closed without the structured error"
  | Error e -> Alcotest.failf "read: %s" e);
  Unix.close fd

(* A spill directory written before entries held frames: under a live key,
   the old form (a verdict byte, then the bare body) reads as a miss, is
   recomputed and re-spilled as a frame, and is never served itself. *)
let server_old_entry_recomputed () =
  let dir = fresh_dir () in
  let q = { (List.hd sample_queries) with Proto.q_budget = 300 } in
  let key = Proto.cache_key q and payload = Proto.encode_request (Proto.Query q) in
  let body, ok =
    match S.Handlers.answer ~jobs:1 q with
    | Ok answer -> answer
    | Error f -> Alcotest.failf "inline answer: %s" (Failure.to_string f)
  in
  Cache.store (Cache.create ~dir ()) ~key ((if ok then "1" else "0") ^ body);
  Alcotest.(check (option string)) "an old entry is no hit" None
    (S.Server.hit (Cache.create ~dir ()) payload);
  let socket = Printf.sprintf "test-svc-old-%d.sock" (Unix.getpid ()) in
  let server = S.Server.start ~socket ~cache:(Cache.create ~dir ()) ~jobs:1 ~workers:1 () in
  let answers =
    Fun.protect
      ~finally:(fun () -> S.Server.stop server)
      (fun () ->
        let c = connect socket in
        let ask () =
          match S.Client.query c q with
          | Ok r -> (r.Proto.r_cached, r.Proto.r_body)
          | Error f -> Alcotest.failf "query: %s" (Failure.to_string f)
        in
        let first = ask () in
        let second = ask () in
        S.Client.close c;
        [ first; second ])
  in
  Alcotest.(check (list (pair bool string))) "recomputed, then a hit"
    [ (false, body); (true, body) ] answers;
  Alcotest.(check (option string)) "re-spilled as the frame a hit writes"
    (Some
       (Proto.encode_response
          (Proto.Result { Proto.r_cached = true; r_key = key; r_ok = ok; r_body = body; r_trace_id = "" })))
    (S.Server.hit (Cache.create ~dir ()) payload)

(* Every way a query can end, through a real server with the query log
   on: the reply the client gets, and the outcome, cache tier and
   answering thread (an executor domain or the connection's reader) of the
   one qlog line the server writes for it. *)
let server_outcome_table () =
  let socket = Printf.sprintf "test-svc-table-%d.sock" (Unix.getpid ()) in
  let server = S.Server.start ~socket ~jobs:1 ~workers:1 () in
  let socket0 = Printf.sprintf "test-svc-table0-%d.sock" (Unix.getpid ()) in
  let server0 = S.Server.start ~socket:socket0 ~queue_limit:0 ~jobs:1 ~workers:1 () in
  Fair_obs.Qlog.clear ();
  Fair_obs.Qlog.enable ();
  Fun.protect
    ~finally:(fun () ->
      S.Server.stop server;
      S.Server.stop server0;
      Fair_obs.Qlog.disable ();
      Fair_obs.Qlog.clear ())
  @@ fun () ->
  let search ?(experiment = "E1") ?(budget = 2000) ?(deadline = 0.) seed =
    S.Client.with_trace
      { Proto.q_kind = Proto.Search; q_experiment = experiment; q_budget = budget; q_seed = seed;
        q_zoo = false; q_fresh = false; q_trace_id = ""; q_span_id = ""; q_deadline = deadline;
        q_attempt = 0 }
  in
  let reply_name = function
    | Ok (r : Proto.result) -> if r.Proto.r_cached then "cached result" else "result"
    | Error f -> Failure.code f
  in
  (* the line is recorded just after the reply is written *)
  let row name reply matches =
    wait_until (name ^ "'s qlog line") (fun () -> List.exists matches (Fair_obs.Qlog.recent ()));
    let e = List.find matches (Fair_obs.Qlog.recent ()) in
    Printf.sprintf "%s: %s / %s / tier %S / %s" name (reply_name reply) e.Fair_obs.Qlog.outcome
      e.Fair_obs.Qlog.tier
      (if e.Fair_obs.Qlog.worker >= 0 then "executor" else "reader")
  in
  let traced (q : Proto.query) (e : Fair_obs.Qlog.event) =
    e.Fair_obs.Qlog.trace_id = q.Proto.q_trace_id
  in
  let ask ?(socket = socket) name q =
    let c = connect socket in
    let r = S.Client.query c q in
    S.Client.close c;
    row name r (traced q)
  in
  (* A long E2 search on its own connection, returned once it is computing
     on the one executor; the closure joins it. *)
  let computing seed =
    let started = gate () and result = ref None in
    let th =
      Thread.create
        (fun () ->
          let c = connect socket in
          let q = search ~experiment:"E2" ~budget:8000 seed in
          result := Some (S.Client.query c ~on_progress:(fun _ -> gate_open started) q);
          S.Client.close c;
          gate_open started)
        ()
    in
    gate_wait started;
    if !result <> None then Alcotest.fail "the long search ended before it streamed progress";
    fun () ->
      Thread.join th;
      match !result with
      | Some (Ok _) -> ()
      | Some (Error f) -> Alcotest.failf "long search: %s" (Failure.to_string f)
      | None -> Alcotest.fail "the long search left no result"
  in
  let raw () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  in
  let cold = ask "cold" (search 42) in
  let hit = ask "repeated hit" (search 42) in
  (* the asker shut its receiving side before asking, so the write fails *)
  let gone =
    let fd = raw () and q = search 42 in
    Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
    Frame.write fd (Proto.encode_request (Proto.Query q));
    let r =
      row "repeated hit, peer gone" (Error (Failure.Connection_lost { reason = "" })) (traced q)
    in
    Unix.close fd;
    r
  in
  let unknown = ask "unknown id" (search ~experiment:"E99" 1) in
  let malformed =
    let fd = raw () in
    Frame.write fd "this is|not a\\valid|request";
    let reply =
      match Frame.read fd (Frame.Decoder.create ()) with
      | Ok (Some payload) -> (
          match Proto.decode_response payload with
          | Ok (Proto.Error f) -> Error f
          | _ -> Alcotest.fail "expected an error reply to a malformed frame")
      | _ -> Alcotest.fail "no reply to a malformed frame"
    in
    Unix.close fd;
    row "malformed frame" reply (fun e -> e.Fair_obs.Qlog.kind = "malformed")
  in
  (* a 2 ms deadline queued behind a running search expires before dispatch *)
  let shed =
    let long = computing 31 in
    let r = ask "shed" (search ~experiment:"E2" ~deadline:0.002 3) in
    long ();
    r
  in
  let crashed =
    S.Server.chaos_kill_workers server 1;
    ask "worker crash" (search 5)
  in
  (* a search without a search target is a usage error, refused before
     admission: a full queue cannot turn it into a retryable Overloaded *)
  let full =
    List.map
      (fun (name, q) -> ask ~socket:socket0 ("full queue, " ^ name) q)
      [ ("E16 search", search ~experiment:"E16" 1);
        ("E12 search", search ~experiment:"E12" 1);
        ("E16 run", { (search ~experiment:"E16" 1) with Proto.q_kind = Proto.Run }) ]
  in
  (* last: the drain stops the server once the inflight search is done *)
  let drained =
    let long = computing 32 in
    let c = connect socket in
    let draining () =
      match
        Result.bind (Json.member "resilience" (S.Server.stats_json server)) (Json.member "draining")
      with
      | Ok (Json.Bool b) -> b
      | _ -> false
    in
    let drainer = Thread.create (fun () -> ignore (S.Server.drain server ~timeout_s:60.)) () in
    wait_until "the drain" draining;
    let q = search 7 in
    let r = S.Client.query c q in
    S.Client.close c;
    long ();
    Thread.join drainer;
    row "drained" r (traced q)
  in
  Alcotest.(check (list string))
    "reply / qlog outcome / tier / answering thread"
    [ "cold: result / ok / tier \"cold\" / executor";
      "repeated hit: cached result / ok / tier \"mem\" / reader";
      "repeated hit, peer gone: connection-lost / retried_by_client / tier \"mem\" / reader";
      "unknown id: unknown-query / unknown-query / tier \"\" / reader";
      "malformed frame: malformed-frame / malformed-frame / tier \"\" / reader";
      "shed: deadline-exceeded / shed / tier \"\" / executor";
      "worker crash: query-failed / query-failed / tier \"\" / executor";
      "full queue, E16 search: unknown-query / unknown-query / tier \"\" / reader";
      "full queue, E12 search: unknown-query / unknown-query / tier \"\" / reader";
      "full queue, E16 run: overloaded / overloaded / tier \"\" / reader";
      "drained: draining / drained / tier \"\" / reader" ]
    ([ cold; hit; gone; unknown; malformed; shed; crashed ] @ full @ [ drained ])

(* ---------------------- observability invariants --------------------- *)

(* The central promise of the whole observability layer: certificates are
   bit-identical with tracing + qlog on or off, at any parallelism.  A
   traced query against an instrumented server must serve the very same
   bytes as an untraced query against a dark one. *)
let server_obs_byte_identity () =
  let q = { (List.hd sample_queries) with Proto.q_budget = 300 } in
  let run ~obs ~jobs ~workers =
    if obs then begin
      Fair_obs.Trace.enable ();
      Fair_obs.Qlog.enable ()
    end;
    let socket =
      Printf.sprintf "test-svc-obs-%b-%d-%d-%d.sock" obs jobs workers (Unix.getpid ())
    in
    let server = S.Server.start ~socket ~jobs ~workers () in
    Fun.protect
      ~finally:(fun () ->
        S.Server.stop server;
        Fair_obs.Trace.disable ();
        Fair_obs.Trace.clear ();
        Fair_obs.Qlog.disable ();
        Fair_obs.Qlog.clear ())
      (fun () ->
        let c = connect socket in
        let q = if obs then S.Client.with_trace q else q in
        let r =
          match S.Client.query c q with
          | Ok r -> r
          | Error f -> Alcotest.failf "query: %s" (Failure.to_string f)
        in
        S.Client.close c;
        Alcotest.(check bool) "computed fresh, not from a previous run" false
          r.Proto.r_cached;
        r.Proto.r_body)
  in
  let dark = run ~obs:false ~jobs:1 ~workers:1 in
  List.iter
    (fun (jobs, workers) ->
      Alcotest.(check string)
        (Printf.sprintf "bytes identical with obs on at -j%d/workers=%d" jobs workers)
        dark
        (run ~obs:true ~jobs ~workers))
    [ (1, 1); (4, 4) ]

(* Two cold searches computing at once on one server: each connection
   must get exactly the progress frames, and each qlog line exactly the
   counters, that the same query produces through a scope of its own run
   alone — no frames lost to the other computation or routed to the wrong
   connection, no counts from the other computation mixed in. *)
let server_concurrent_scopes () =
  let query seed =
    S.Client.with_trace
      { Proto.q_kind = Proto.Search; q_experiment = "E2"; q_budget = 8000; q_seed = seed;
        q_zoo = false; q_fresh = false; q_trace_id = ""; q_span_id = ""; q_deadline = 0.;
        q_attempt = 0 }
  in
  let qs = [ query 21; query 22 ] in
  let interesting (name, _) =
    List.exists (fun p -> String.starts_with ~prefix:p name) [ "engine."; "mc."; "race." ]
  in
  let frame { Fair_obs.Scope.after; batch; running_mean; running_std_err } =
    { Proto.p_after = after; p_batch = batch; p_mean = running_mean; p_std_err = running_std_err }
  in
  Fair_obs.Metrics.enable ();
  Fair_obs.Qlog.enable ();
  let socket = Printf.sprintf "test-svc-scopes-%d.sock" (Unix.getpid ()) in
  let server = S.Server.start ~socket ~jobs:2 ~workers:2 () in
  Fun.protect
    ~finally:(fun () ->
      S.Server.stop server;
      Fair_obs.Metrics.disable ();
      Fair_obs.Qlog.disable ();
      Fair_obs.Qlog.clear ())
    (fun () ->
      (* the solo references, one scope each, before the server computes *)
      let solo =
        List.map
          (fun q ->
            let frames = ref [] in
            let scope =
              Fair_obs.Scope.create ~args:[] ~sink:(fun p -> frames := frame p :: !frames)
            in
            match Fair_obs.Scope.within (Some scope) (fun () -> S.Handlers.answer ~jobs:2 q) with
            | Ok (body, _) ->
                (body, List.rev !frames, List.filter interesting (Fair_obs.Metrics.scoped scope))
            | Error f -> Alcotest.failf "solo compute: %s" (Failure.to_string f))
          qs
      in
      (* both connections open first, then both queries leave at once *)
      let conns = List.map (fun _ -> connect socket) qs in
      let go = gate () in
      let served =
        List.map2
          (fun c q ->
            let frames = ref [] and result = ref None in
            let th =
              Thread.create
                (fun () ->
                  gate_wait go;
                  result :=
                    Some (S.Client.query c ~on_progress:(fun p -> frames := p :: !frames) q))
                ()
            in
            (th, frames, result))
          conns qs
      in
      gate_open go;
      let served =
        List.map
          (fun (th, frames, result) ->
            Thread.join th;
            match !result with
            | Some (Ok r) -> (r, List.rev !frames)
            | Some (Error f) -> Alcotest.failf "served query: %s" (Failure.to_string f)
            | None -> Alcotest.fail "query thread left no result")
          served
      in
      List.iter S.Client.close conns;
      (* a qlog line is recorded just after its result is delivered *)
      let lines (q : Proto.query) =
        List.filter
          (fun (e : Fair_obs.Qlog.event) -> e.Fair_obs.Qlog.trace_id = q.Proto.q_trace_id)
          (Fair_obs.Qlog.recent ())
      in
      wait_until "both qlog lines" (fun () -> List.for_all (fun q -> lines q <> []) qs);
      let evs =
        List.map
          (fun q ->
            match lines q with
            | [ e ] -> e
            | es -> Alcotest.failf "expected one qlog line per query, got %d" (List.length es))
          qs
      in
      (* compute window on the monotonic clock: dispatch to completion *)
      let window (e : Fair_obs.Qlog.event) =
        let busy = e.Fair_obs.Qlog.wall_s -. e.Fair_obs.Qlog.queue_s in
        (float_of_int e.Fair_obs.Qlog.ts_ns -. (busy *. 1e9), float_of_int e.Fair_obs.Qlog.ts_ns)
      in
      (match List.map window evs with
      | [ (a0, a1); (b0, b1) ] ->
          Alcotest.(check bool) "the two computations overlapped" true (a0 < b1 && b0 < a1)
      | _ -> assert false);
      List.iteri
        (fun i (((body, frames, counters), (r, got)), (e : Fair_obs.Qlog.event)) ->
          let name s = Printf.sprintf "seed %d: %s" (21 + i) s in
          Alcotest.(check bool) (name "computed, not cached") false r.Proto.r_cached;
          Alcotest.(check string) (name "served bytes = solo bytes") body r.Proto.r_body;
          Alcotest.(check int) (name "solo run streams 6 frames") 6 (List.length frames);
          Alcotest.(check bool) (name "progress frames = solo frames, in order") true (got = frames);
          Alcotest.(check (list (pair string int))) (name "qlog counters = solo counters")
            counters e.Fair_obs.Qlog.counters;
          match Fair_search.Certificate.of_string r.Proto.r_body with
          | Ok c ->
              Alcotest.(check int) (name "qlog trials = certificate spent")
                c.Fair_search.Certificate.spent e.Fair_obs.Qlog.trials
          | Error err -> Alcotest.failf "certificate does not parse: %s" err)
        (List.combine (List.combine solo served) evs))

(* The resilience analogue of the obs pairing: a server with the whole
   resilience layer engaged (cost-aware admission, a pre-seeded cost
   model, a generous deadline and a retry wrapper on the client) must
   serve the exact bytes a dark server with everything off serves — at
   (workers, jobs) = (1,1) and (4,4).  Deadlines, retries and cost
   estimates decide *whether/when* a query runs, never what it answers. *)
let server_resilience_byte_identity () =
  let q = { (List.hd sample_queries) with Proto.q_budget = 300 } in
  let run ~resilient ~jobs ~workers =
    let socket =
      Printf.sprintf "test-svc-res-%b-%d-%d-%d.sock" resilient jobs workers (Unix.getpid ())
    in
    let server =
      if resilient then begin
        let costs = Costmodel.create () in
        Costmodel.observe costs ~kind:"search" ~experiment:q.Proto.q_experiment ~wall_s:0.04;
        S.Server.start ~socket ~jobs ~workers ~cost_budget:5.0 ~costs ()
      end
      else S.Server.start ~socket ~jobs ~workers ()
    in
    Fun.protect
      ~finally:(fun () -> S.Server.stop server)
      (fun () ->
        let q =
          if resilient then { q with Proto.q_deadline = 60.; q_attempt = 0 } else q
        in
        let attempt ~attempt =
          let c = connect socket in
          let r = S.Client.query c { q with Proto.q_attempt = attempt } in
          S.Client.close c;
          r
        in
        let body =
          if resilient then begin
            match
              S.Client.Retry.run
                ~policy:{ S.Client.Retry.default with S.Client.Retry.retries = 2 }
                ~seed:q.Proto.q_seed attempt
            with
            | Ok r -> r.Proto.r_body
            | Result.Error (`Failed f) | Result.Error (`Exhausted (_, f)) ->
                Alcotest.failf "resilient query: %s" (Failure.to_string f)
          end
          else
            match attempt ~attempt:0 with
            | Ok r -> r.Proto.r_body
            | Result.Error f -> Alcotest.failf "dark query: %s" (Failure.to_string f)
        in
        body)
  in
  List.iter
    (fun (workers, jobs) ->
      let dark = run ~resilient:false ~jobs ~workers in
      Alcotest.(check string)
        (Printf.sprintf "bytes identical with resilience on at workers=%d/-j%d" workers jobs)
        dark
        (run ~resilient:true ~jobs ~workers))
    [ (1, 1); (4, 4) ]

(* The exit path (satellite S3): a clean [Server.stop] must leave the
   observability artifacts on disk — the flight recorder dumped with
   reason "shutdown", and every qlog line flushed through the sink. *)
let server_stop_flushes_observability () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o700;
  let flight = Filename.concat dir "flight.json" in
  let qlog_path = Filename.concat dir "q.jsonl" in
  let oc = open_out qlog_path in
  Fair_obs.Qlog.enable ();
  Fair_obs.Qlog.set_sink (Some oc);
  let recorder = S.Recorder.create ~path:flight () in
  let socket = Printf.sprintf "test-svc-exit-%d.sock" (Unix.getpid ()) in
  let server = S.Server.start ~socket ~jobs:1 ~recorder () in
  Fun.protect
    ~finally:(fun () ->
      Fair_obs.Qlog.set_sink None;
      close_out_noerr oc;
      Fair_obs.Qlog.disable ();
      Fair_obs.Qlog.clear ())
    (fun () ->
      let c = connect socket in
      let q = S.Client.with_trace { (List.hd sample_queries) with Proto.q_budget = 200 } in
      (match S.Client.query c q with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "query: %s" (Failure.to_string f));
      S.Client.close c;
      S.Server.stop server;
      (* the recorder dumped on clean shutdown, and the dump parses *)
      Alcotest.(check bool) "flight file exists after stop" true (Sys.file_exists flight);
      let raw = In_channel.with_open_bin flight In_channel.input_all in
      (match Json.of_string raw with
      | Error e -> Alcotest.failf "flight dump does not parse: %s" e
      | Ok j ->
          (match Result.bind (Json.member "schema" j) Json.to_str with
          | Ok s -> Alcotest.(check string) "flight schema" "fairness-flight/1" s
          | Error e -> Alcotest.failf "flight schema missing: %s" e);
          (match Result.bind (Json.member "reason" j) Json.to_str with
          | Ok s -> Alcotest.(check string) "dump reason" "shutdown" s
          | Error e -> Alcotest.failf "dump reason missing: %s" e));
      (* the qlog sink was flushed: at least the query's own line, and
         every line is a standalone JSON document *)
      let lines =
        In_channel.with_open_bin qlog_path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check bool) "qlog has at least one flushed line" true (lines <> []);
      List.iter
        (fun l ->
          match Json.of_string l with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "qlog line does not parse: %s: %s" e l)
        lines)

let () =
  Alcotest.run "fair_service"
    [ ( "frame",
        [ Alcotest.test_case "split-point table (every byte boundary)" `Quick split_point_table;
          Alcotest.test_case "byte-at-a-time feed" `Quick byte_at_a_time;
          prop_chunked_reassembly;
          Alcotest.test_case "oversized length is a sticky error" `Quick oversized_is_sticky;
          Alcotest.test_case "write/read round trip over a socketpair" `Quick write_read_roundtrip;
          Alcotest.test_case "EOF mid-frame is an error, not a clean end" `Quick
            eof_mid_frame_is_error ] );
      ( "proto",
        [ Alcotest.test_case "request round trip" `Quick request_roundtrip;
          Alcotest.test_case "response round trip" `Quick response_roundtrip;
          Alcotest.test_case "trace context: tolerant decode both directions" `Quick
            trace_tolerant_decode;
          prop_decode_request_total;
          prop_decode_response_total;
          Alcotest.test_case "decode_request corpus: values and error texts" `Quick
            decode_request_corpus;
          Alcotest.test_case "cache key semantics" `Quick cache_key_semantics;
          Alcotest.test_case "deadline/attempt: tolerant decode, byte-stable, key-neutral" `Quick
            resilience_tolerant_decode;
          Alcotest.test_case "failure taxonomy JSON round trip" `Quick failure_json_roundtrip;
          prop_hit_frame ] );
      ( "cache",
        [ Alcotest.test_case "memory round trip and stats" `Quick cache_memory_roundtrip;
          Alcotest.test_case "LRU eviction respects recency" `Quick cache_lru_eviction;
          Alcotest.test_case "disk spill survives a restart" `Quick cache_disk_spill;
          Alcotest.test_case "eviction keeps the disk copy answerable" `Quick
            cache_eviction_keeps_disk;
          Alcotest.test_case "truncated spill: miss, delete, heal" `Quick cache_disk_truncated;
          Alcotest.test_case "spill shorter than the digest header" `Quick
            cache_disk_truncated_below_header;
          Alcotest.test_case "bit-flipped spill: miss, delete, heal" `Quick cache_disk_garbled ] );
      ( "costmodel",
        [ Alcotest.test_case "EWMA learning and key normalization" `Quick costmodel_learns;
          Alcotest.test_case "floor clamps garbage and free work" `Quick
            costmodel_floor_rejects_garbage;
          Alcotest.test_case "warm-start from a qlog file is best-effort" `Quick
            costmodel_seed_from_file ] );
      ( "sched",
        [ Alcotest.test_case "round-robin across clients (no starvation)" `Quick sched_round_robin;
          Alcotest.test_case "bounded queue refuses explicitly" `Quick sched_backpressure;
          Alcotest.test_case "same-key jobs coalesce into one computation" `Quick sched_coalescing;
          Alcotest.test_case "drop_client forgets pending work" `Quick sched_drop_client;
          Alcotest.test_case "pool: distinct keys overlap across workers" `Quick sched_pool_overlap;
          Alcotest.test_case "pool: same key never overlaps (FIFO)" `Quick
            sched_pool_per_key_serialized;
          Alcotest.test_case "pool: coalescing unchanged with workers > 1" `Quick
            sched_pool_coalescing ] );
      ( "sched-resilience",
        [ Alcotest.test_case "expired queued work is shed, not executed" `Quick
            sched_deadline_shed;
          Alcotest.test_case "cost budget: depth floor + summed-cost ceiling" `Quick
            sched_cost_budget_admission;
          Alcotest.test_case "a dying worker is supervised and replaced" `Quick
            sched_supervision_respawns;
          Alcotest.test_case "injected chaos kill drives the same supervision" `Quick
            sched_chaos_kill_is_supervised ] );
      ( "retry",
        [ Alcotest.test_case "retry-safety matrix" `Quick retry_matrix;
          Alcotest.test_case "retries off = exactly one attempt" `Quick
            retry_off_is_single_attempt;
          Alcotest.test_case "non-retryable failures fail fast" `Quick
            retry_non_retryable_fails_fast;
          Alcotest.test_case "a mid-sequence success surfaces" `Quick retry_recovers_midway;
          Alcotest.test_case "exhaustion is distinct and seed-deterministic" `Quick
            retry_exhaustion_is_distinct_and_deterministic;
          Alcotest.test_case "the sleep budget bounds total backoff" `Quick
            retry_budget_bounds_sleeps ] );
      ( "client",
        [ Alcotest.test_case "connect timeout bounds connect(2) itself" `Quick
            client_connect_timeout;
          Alcotest.test_case "poisoned reply stream: connection-lost, fd closed eagerly" `Quick
            client_poisoned_reply_closes ] );
      ( "server",
        [ Alcotest.test_case "unknown query: structured error, connection survives" `Quick
            server_unknown_query_keeps_conn;
          Alcotest.test_case "malformed frame: structured error, then close" `Quick
            server_malformed_frame_closes;
          Alcotest.test_case "hostile length prefix refused" `Quick server_hostile_length_prefix;
          Alcotest.test_case "an entry spilled before frames: recomputed, re-spilled" `Quick
            server_old_entry_recomputed;
          Alcotest.test_case "every ending: reply and qlog line" `Quick server_outcome_table ] );
      ( "observability",
        [ Alcotest.test_case "certificates bit-identical with obs on/off, -j1/-j4" `Quick
            server_obs_byte_identity;
          Alcotest.test_case "concurrent queries: own progress and counters" `Quick
            server_concurrent_scopes;
          Alcotest.test_case "certificates bit-identical with resilience on/off, (1,1)/(4,4)"
            `Quick server_resilience_byte_identity;
          Alcotest.test_case "stop flushes qlog and dumps the flight recorder" `Quick
            server_stop_flushes_observability ] ) ]
