let sum_over_t per_t =
  List.fold_left (fun acc (_, e) -> acc +. e.Montecarlo.utility) 0.0 per_t

let sum_std_err per_t =
  sqrt
    (List.fold_left
       (fun acc (_, e) ->
         let s = e.Montecarlo.std_err in
         acc +. (s *. s))
       0.0 per_t)

let is_balanced ~per_t ~gamma ~n =
  let bound = Bounds.balanced_sum gamma ~n in
  let sum = sum_over_t per_t in
  abs_float (sum -. bound) <= (3.0 *. sum_std_err per_t) +. 1e-9

let exceeds_balanced_bound ~per_t ~gamma ~n =
  let bound = Bounds.balanced_sum gamma ~n in
  sum_over_t per_t > bound +. (3.0 *. sum_std_err per_t) +. 1e-9
