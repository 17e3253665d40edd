type cost = int -> float

let theorem6 gamma ~n t =
  if t = 0 then 0.0 else Bounds.balanced_cost gamma ~n ~t

let dominates ~c ~c' ~n =
  List.for_all (fun t -> c t >= c' t -. 1e-12) (List.init n (fun i -> i + 1))

let strictly_dominates ~c ~c' ~n =
  List.for_all (fun t -> c t > c' t +. 1e-12) (List.init n (fun i -> i + 1))

let phi_cost_correspondence ~phi ~gamma t =
  if t = 0 then 0.0 else phi t -. Bounds.ideal_utility gamma ~t
