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
  let r = E.e1 ~trials:60 ~seed:1 ~jobs:1 in
  let md = E.to_markdown r in
  Alcotest.(check bool) "has heading" true (String.length md > 3 && String.sub md 0 3 = "###");
  Alcotest.(check bool) "mentions E1" true
    (String.length md > 4 && String.sub md 4 2 = "E1")

(* ----------------------------- sweep -------------------------------- *)

let test_q_sweep_v_shape () =
  let module S = Fair_analysis.Sweep in
  let t = S.q_sweep ~qs:[ 0.0; 0.5; 1.0 ] ~trials:200 ~seed:6 () in
  match List.map snd t.S.data with
  | [ a; mid; b ] ->
      if not (mid < a && mid < b) then
        Alcotest.failf "not a V: %.3f %.3f %.3f" a mid b
  | _ -> Alcotest.fail "unexpected data shape"

let test_sweep_renders () =
  let module S = Fair_analysis.Sweep in
  let t = S.q_sweep ~qs:[ 0.5 ] ~trials:100 ~seed:7 () in
  let s = S.render t in
  Alcotest.(check bool) "non-empty" true (String.length s > 20)

(* data labels leave in stable natural-sorted order whatever order the
   sweep visited the grid; rows keep the sweep's own order *)
let test_sweep_data_label_order () =
  let module S = Fair_analysis.Sweep in
  Alcotest.(check bool) "digit runs compare numerically" true (S.natural_compare "n=2" "n=10" < 0);
  Alcotest.(check bool) "plain text still ordered" true (S.natural_compare "abort@3" "greedy" < 0);
  let t = S.q_sweep ~qs:[ 1.0; 0.0 ] ~trials:120 ~seed:9 () in
  Alcotest.(check (list string)) "data sorted" [ "0.00"; "1.00" ] (List.map fst t.S.data);
  Alcotest.(check (list string)) "rows keep sweep order" [ "1.00"; "0.00" ]
    (List.map List.hd t.S.rows)

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

(* Each experiment, at reduced size, still passes its own checks. *)
let experiment_case (s : E.spec) =
  Alcotest.test_case (s.E.eid ^ " passes its paper checks") `Slow (fun () ->
      (* jobs:2 exercises the domain-parallel path; by the determinism
         guarantee the numbers are the same as jobs:1. *)
      let r = s.E.run ~trials:150 ~seed:2026 ~jobs:2 in
      List.iter
        (fun (c : E.check) ->
          if not c.E.ok then
            Alcotest.failf "%s / %s: measured %.4f, expected %s %.4f (tol %.4f)" s.E.eid c.E.label
              c.E.measured
              (match c.E.kind with `Equals -> "=" | `At_most -> "<=" | `At_least -> ">=")
              c.E.expected c.E.tolerance)
        r.E.checks)

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
          Alcotest.test_case "render" `Slow test_sweep_renders;
          Alcotest.test_case "data label order" `Slow test_sweep_data_label_order ] );
      ( "demo",
        [ Alcotest.test_case "registry and lookup" `Quick test_demo_registry;
          Alcotest.test_case "adversary lookup" `Quick test_demo_adversary_lookup;
          Alcotest.test_case "every demo executes" `Slow test_demos_run ] );
      ("experiments", List.map experiment_case E.registry) ]
