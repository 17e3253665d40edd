type table = {
  designer : string array;
  attacker : string array;
  utility : float array array;
}

let make ~designer ~attacker ~utility =
  if Array.length utility <> Array.length designer then invalid_arg "Rpd.make: rows";
  Array.iter
    (fun row -> if Array.length row <> Array.length attacker then invalid_arg "Rpd.make: cols")
    utility;
  if Array.length designer = 0 || Array.length attacker = 0 then
    invalid_arg "Rpd.make: empty strategy space";
  { designer; attacker; utility }

let argmax a =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > a.(!best) then best := i) a;
  (!best, a.(!best))

let minimax t =
  let values = Array.map (fun row -> snd (argmax row)) t.utility in
  let best = ref 0 in
  Array.iteri (fun i v -> if v < values.(!best) then best := i) values;
  (!best, values.(!best))

let maximin t =
  let cols = Array.length t.attacker in
  let col_min c =
    Array.fold_left (fun acc row -> min acc row.(c)) infinity t.utility
  in
  let values = Array.init cols col_min in
  argmax values

let is_equilibrium t ~row ~col =
  let v = t.utility.(row).(col) in
  let attacker_happy = Array.for_all (fun u -> u <= v +. 1e-9) t.utility.(row) in
  let designer_happy =
    Array.for_all (fun r -> r.(col) >= v -. 1e-9) t.utility
  in
  attacker_happy && designer_happy

let has_pure_equilibrium t =
  let rows = Array.length t.designer and cols = Array.length t.attacker in
  let found = ref None in
  for row = 0 to rows - 1 do
    for col = 0 to cols - 1 do
      if !found = None && is_equilibrium t ~row ~col then found := Some (row, col)
    done
  done;
  !found

let pp fmt t =
  Format.fprintf fmt "%-24s" "";
  Array.iter (fun a -> Format.fprintf fmt " %12s" a) t.attacker;
  Format.pp_print_newline fmt ();
  Array.iteri
    (fun i row ->
      Format.fprintf fmt "%-24s" t.designer.(i);
      Array.iter (fun u -> Format.fprintf fmt " %12.4f" u) row;
      Format.pp_print_newline fmt ())
    t.utility
