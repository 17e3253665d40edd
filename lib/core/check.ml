type kind = [ `Equals | `At_most | `At_least ]

type evidence =
  | Estimate of float
  | Ratio of { std_err : float; floor : float }
  | Sum of float list
  | Sum_quadrature of float list
  | Proportion of int
  | Stated of float
  | Exact

let slack = 1e-9

let tolerance = function
  | Estimate se -> 3.0 *. se
  | Ratio { std_err; floor } -> Float.max floor (3.0 *. std_err)
  | Sum ses -> 3.0 *. List.fold_left ( +. ) 0.0 ses
  | Sum_quadrature ses -> 3.0 *. sqrt (List.fold_left (fun acc s -> acc +. (s *. s)) 0.0 ses)
  | Proportion n -> 3.0 *. 0.5 /. sqrt (float_of_int n)
  | Stated s -> s
  | Exact -> 0.0

type t = {
  label : string;
  measured : float;
  expected : float;
  tolerance : float;
  kind : kind;
  ok : bool;
}

let holds kind evidence ~measured ~expected =
  let tol = tolerance evidence +. slack in
  match kind with
  | `Equals -> abs_float (measured -. expected) <= tol
  | `At_most -> measured <= expected +. tol
  | `At_least -> measured >= expected -. tol

let make ~label ~measured ~expected kind evidence =
  let ok = holds kind evidence ~measured ~expected in
  { label; measured; expected; tolerance = tolerance evidence +. slack; kind; ok }

let within evidence ~measured ~bound = measured <= bound +. tolerance evidence +. slack

let within_bound (e : Montecarlo.estimate) ~bound =
  within (Estimate e.std_err) ~measured:e.utility ~bound

let attains_bound (e : Montecarlo.estimate) ~bound =
  e.utility >= bound -. tolerance (Estimate e.std_err) -. slack
