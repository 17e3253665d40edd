type verdict =
  | At_least_as_fair
  | Strictly_fairer
  | Less_fair
  | Equally_fair

let compare_sup ~(pi : Montecarlo.estimate) ~(pi' : Montecarlo.estimate) =
  let evidence = Check.Sum [ pi.std_err; pi'.std_err ] in
  let holds kind = Check.holds kind evidence ~measured:pi.utility ~expected:pi'.utility in
  if holds `Equals then Equally_fair
  else if not (holds `At_most) then Less_fair
  else if holds `At_least then At_least_as_fair
  else Strictly_fairer

let pp_verdict fmt v =
  Format.pp_print_string fmt
    (match v with
    | At_least_as_fair -> "at least as fair"
    | Strictly_fairer -> "strictly fairer"
    | Less_fair -> "less fair"
    | Equally_fair -> "equally fair")
