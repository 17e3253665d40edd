type verdict =
  | At_least_as_fair
  | Strictly_fairer
  | Less_fair
  | Equally_fair

let compare_sup ~(pi : Montecarlo.estimate) ~(pi' : Montecarlo.estimate) =
  let slack = 3.0 *. (pi.Montecarlo.std_err +. pi'.Montecarlo.std_err) +. 1e-9 in
  let u = pi.Montecarlo.utility and u' = pi'.Montecarlo.utility in
  if abs_float (u -. u') <= slack then Equally_fair
  else if u < u' -. slack then Strictly_fairer
  else if u <= u' +. slack then At_least_as_fair
  else Less_fair

let pp_verdict fmt v =
  Format.pp_print_string fmt
    (match v with
    | At_least_as_fair -> "at least as fair"
    | Strictly_fairer -> "strictly fairer"
    | Less_fair -> "less fair"
    | Equally_fair -> "equally fair")
