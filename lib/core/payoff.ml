type t = { g00 : float; g01 : float; g10 : float; g11 : float }

let v (g00, g01, g10, g11) = { g00; g01; g10; g11 }

let in_gamma_fair g =
  g.g01 = 0.0
  && g.g01 <= min g.g00 g.g11
  && max g.g00 g.g11 < g.g10

let in_gamma_fair_plus g = in_gamma_fair g && g.g00 <= g.g11

let check_fair g =
  if in_gamma_fair g then g else invalid_arg "Payoff.check_fair: vector outside Gamma_fair"

let normalize g =
  { g00 = g.g00 -. g.g01; g01 = 0.0; g10 = g.g10 -. g.g01; g11 = g.g11 -. g.g01 }

let default = { g00 = 0.2; g01 = 0.0; g10 = 1.0; g11 = 0.5 }
let zero_one = { g00 = 0.0; g01 = 0.0; g10 = 1.0; g11 = 0.0 }

let sweep =
  [ default;
    zero_one;
    { g00 = 0.0; g01 = 0.0; g10 = 1.0; g11 = 0.9 };
    { g00 = 0.5; g01 = 0.0; g10 = 2.0; g11 = 0.5 };
    { g00 = 0.1; g01 = 0.0; g10 = 1.0; g11 = 0.1 } ]

let pp fmt g =
  Format.fprintf fmt "(γ00=%g, γ01=%g, γ10=%g, γ11=%g)" g.g00 g.g01 g.g10 g.g11

let to_string g = Format.asprintf "%a" pp g
