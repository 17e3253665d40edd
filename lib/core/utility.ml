type distribution = {
  p00 : float;
  p01 : float;
  p10 : float;
  p11 : float;
}

let of_counts counts =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  if total = 0 then invalid_arg "Utility.of_counts: no observations";
  let get e =
    float_of_int (try List.assoc e counts with Not_found -> 0) /. float_of_int total
  in
  { p00 = get Events.E00; p01 = get Events.E01; p10 = get Events.E10; p11 = get Events.E11 }

let expected (g : Payoff.t) d =
  (g.Payoff.g00 *. d.p00) +. (g.Payoff.g01 *. d.p01) +. (g.Payoff.g10 *. d.p10)
  +. (g.Payoff.g11 *. d.p11)

let expected_with_cost g d ~cost ~corrupted =
  expected g d -. List.fold_left (fun acc (t, p) -> acc +. (cost t *. p)) 0.0 corrupted

let pp fmt d =
  Format.fprintf fmt "E00=%.4f E01=%.4f E10=%.4f E11=%.4f" d.p00 d.p01 d.p10 d.p11
