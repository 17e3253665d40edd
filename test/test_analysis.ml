(* Tests for the analysis layer: table rendering and the experiment
   registry (each experiment runs at a reduced trial count and must pass
   its own paper checks). *)

module E = Fair_analysis.Experiments
module Report = Fairness.Report

let test_render_plain () =
  let s = Report.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* all lines align to the same width *)
  match lines with
  | first :: _ ->
      Alcotest.(check bool) "header present" true
        (String.length first > 0 && String.sub first 0 1 = "a")
  | [] -> Alcotest.fail "empty render"

let test_render_markdown () =
  let s = Report.render ~markdown:true ~header:[ "h1"; "h2" ] [ [ "x"; "y" ] ] in
  let lines = String.split_on_char '\n' s in
  List.iter
    (fun l -> Alcotest.(check bool) ("pipe-framed: " ^ l) true (String.length l > 0 && l.[0] = '|'))
    lines

let test_fmt () =
  Alcotest.(check string) "float" "0.7500" (Report.fmt_float 0.75);
  Alcotest.(check string) "pm" "0.7500 ±0.0100" (Report.fmt_pm 0.75 0.01);
  Alcotest.(check string) "ok" "ok" (Report.check_mark true);
  Alcotest.(check string) "fail" "FAIL" (Report.check_mark false)

let test_registry_complete () =
  Alcotest.(check int) "16 experiments" 16 (List.length E.registry);
  List.iteri
    (fun i (s : E.spec) ->
      Alcotest.(check string) "ids in order" (Printf.sprintf "E%d" (i + 1)) s.E.eid)
    E.registry

let test_find () =
  (match E.find "e3" with
  | Some s -> Alcotest.(check string) "case-insensitive" "E3" s.E.eid
  | None -> Alcotest.fail "E3 not found");
  Alcotest.(check bool) "unknown" true (E.find "E99" = None)

let test_markdown_of_result () =
  let r = E.run (Option.get (E.find "E1")) ~trials:60 ~seed:1 ~jobs:1 in
  let md = E.to_markdown r in
  Alcotest.(check bool) "has heading" true (String.length md > 3 && String.sub md 0 3 = "###");
  Alcotest.(check bool) "mentions E1" true
    (String.length md > 4 && String.sub md 4 2 = "E1")

(* ----------------------------- sweep -------------------------------- *)

(* The table [fairness sweep q] prints, captured for these three points. *)
let q_sweep_golden =
  String.concat "\n"
    [ "q = Pr[p1 first]  sup_A u          distance from minimax";
      "----------------  ---------------  ---------------------";
      "0.00              1.0000 ±0.0000  0.2500               ";
      "0.50              0.7850 ±0.0175  0.0350               ";
      "1.00              1.0000 ±0.0000  0.2500               " ]

let test_q_sweep_v_shape () =
  let points = E.q_sweep ~jobs:2 ~qs:[ 0.0; 0.5; 1.0 ] ~trials:200 ~seed:6 () in
  Alcotest.(check string) "rendered table" q_sweep_golden (E.q_table points);
  match List.map (fun (_, (e : Fairness.Montecarlo.estimate)) -> e.utility) points with
  | [ a; mid; b ] ->
      if not (mid < a && mid < b) then
        Alcotest.failf "not a V: %.3f %.3f %.3f" a mid b
  | _ -> Alcotest.fail "unexpected data shape"

let test_sweep_renders () =
  let s = E.q_table (E.q_sweep ~jobs:2 ~qs:[ 0.5 ] ~trials:100 ~seed:7 ()) in
  Alcotest.(check bool) "non-empty" true (String.length s > 20)

(* ------------------------------ demo --------------------------------- *)

let test_demo_registry () =
  let module D = Fair_analysis.Demo in
  Alcotest.(check bool) "several demos" true (List.length D.registry >= 8);
  match D.find "OPT2" with
  | Some e -> Alcotest.(check string) "case-insensitive" "opt2" e.D.dname
  | None -> Alcotest.fail "opt2 demo missing"

let test_demo_adversary_lookup () =
  let module D = Fair_analysis.Demo in
  let e = Option.get (D.find "opt2") in
  (match D.adversary_of e None with Ok _ -> () | Error m -> Alcotest.fail m);
  (match D.adversary_of e (Some "greedy") with Ok _ -> () | Error m -> Alcotest.fail m);
  match D.adversary_of e (Some "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus strategy accepted"

let test_demos_run () =
  (* Every registered demo must execute without raising and render a trace. *)
  let module D = Fair_analysis.Demo in
  List.iter
    (fun (e : D.entry) ->
      match D.adversary_of e None with
      | Error m -> Alcotest.fail m
      | Ok adv ->
          let buf = Buffer.create 256 in
          let fmt = Format.formatter_of_buffer buf in
          D.run e ~adversary:adv ~seed:11 fmt;
          Format.pp_print_flush fmt ();
          if Buffer.length buf < 50 then Alcotest.failf "%s: empty demo output" e.D.dname)
    D.registry

(* SHA-256 of each result's JSON at trials 150, seed 2026.  A change that
   keeps every registry byte keeps these; one that moves a random stream
   or a tolerance updates the table and says which rows moved. *)
let result_digests =
  [ ("E1", "45c45fa0ef6847869213b239b8129c647dd22f106018802dbd149861477c1c44");
    ("E2", "12d113d5c091f2c2c6491226a394d2bdb8db6064e0161814861d2c8472a81774");
    ("E3", "0ba93c68706490e3f1ae430524491db8e6558d4f041c6f4368cedea0658eeda3");
    ("E4", "72b1604e4186d80b3cb4edf7644e3e4175b52d839731979e1164d67980d127b4");
    ("E5", "6f746edfdb29afd3ecc953221c41dff91ffd1ad632d40a8df2caf00390a0fb32");
    ("E6", "a562db2a15741c88838df000f9f1f6948b315e79843145b8d68fd9c3e27472dd");
    ("E7", "1accff809e69d303cd0bc1343431ead7aa4be8421f190962e5c9b8ed39acf794");
    ("E8", "dedba81cc43c344632078d1700127b8b782a45cc8d77b000fd7c159cdad1ef92");
    ("E9", "b9678556e501cd534871c79c82f386689bbb6c85453cbce8d724f33b7ed98922");
    ("E10", "a0fdac8fd4223cd1461b9006ecd849b5216cdbc42c040891b3f11ea3487b95f9");
    ("E11", "43ce32d1a60224546217d076c5ae4aad9db1ef41c6ebb2e0a7cd66bd93bdc504");
    ("E12", "123241eaa45892d2074be8510cd9bf9e0727f2f2ba7ec5d3e1dda173eda4eb1c");
    ("E13", "88832694882533a38db90b45c0b05a542eeff6d6aef7bf60a93f7e1fe6208620");
    ("E14", "597cbb274d384fc7176aa3bc41e0ead1cd6098de5d15c36820febab160ff5f3c");
    ("E15", "3ead312d9bc6020061f80d3ec707717b764bc6f067b1439c6f52d4aa94cd950a");
    ("E16", "5468cb763e356ca4bb3295e8f1617b17e8f17cf3327e8bceb609378d45e1f960") ]

(* Each experiment, at reduced size, still passes its own checks. *)
let experiment_case (s : E.spec) =
  Alcotest.test_case (s.E.eid ^ " passes its paper checks") `Slow (fun () ->
      (* jobs:2 exercises the domain-parallel path; by the determinism
         guarantee the numbers are the same as jobs:1. *)
      let r = E.run s ~trials:150 ~seed:2026 ~jobs:2 in
      List.iter
        (fun (c : Fairness.Check.t) ->
          if not c.ok then
            Alcotest.failf "%s / %s: measured %.4f, expected %s %.4f (tol %.4f)" s.E.eid c.label
              c.measured
              (match c.kind with `Equals -> "=" | `At_most -> "<=" | `At_least -> ">=")
              c.expected c.tolerance)
        r.E.outcome.E.checks;
      Alcotest.(check string) (s.E.eid ^ " result bytes") (List.assoc s.E.eid result_digests)
        (Fair_crypto.Sha256.hex_digest (Fairness.Json.to_string (E.result_to_json r))))

let () =
  Alcotest.run "fair_analysis"
    [ ( "report",
        [ Alcotest.test_case "plain table" `Quick test_render_plain;
          Alcotest.test_case "markdown table" `Quick test_render_markdown;
          Alcotest.test_case "formatting helpers" `Quick test_fmt ] );
      ( "registry",
        [ Alcotest.test_case "complete and ordered" `Quick test_registry_complete;
          Alcotest.test_case "lookup" `Quick test_find;
          Alcotest.test_case "markdown output" `Slow test_markdown_of_result ] );
      ( "sweep",
        [ Alcotest.test_case "q-sweep V shape" `Slow test_q_sweep_v_shape;
          Alcotest.test_case "render" `Slow test_sweep_renders ] );
      ( "demo",
        [ Alcotest.test_case "registry and lookup" `Quick test_demo_registry;
          Alcotest.test_case "adversary lookup" `Quick test_demo_adversary_lookup;
          Alcotest.test_case "every demo executes" `Slow test_demos_run ] );
      ("experiments", List.map experiment_case E.registry) ]
