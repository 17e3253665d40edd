type t = {
  name : string;
  arity : int;
  eval : string array -> string;
  default_input : string;
}

let swap =
  { name = "swap";
    arity = 2;
    eval = (fun xs -> xs.(1) ^ "," ^ xs.(0));
    default_input = "_" }

let concat ~n =
  { name = Printf.sprintf "concat%d" n;
    arity = n;
    eval = (fun xs -> String.concat "," (Array.to_list xs));
    default_input = "_" }

let bit_of_string name s =
  match s with
  | "0" -> 0
  | "1" -> 1
  | _ -> invalid_arg (name ^ ": input must be \"0\" or \"1\"")

let and_ =
  { name = "and";
    arity = 2;
    eval =
      (fun xs ->
        string_of_int (bit_of_string "Func.and_" xs.(0) land bit_of_string "Func.and_" xs.(1)));
    default_input = "0" }

let mod_sum ~m ~n =
  if m < 1 then invalid_arg "Func.mod_sum";
  { name = Printf.sprintf "mod%d_sum%d" m n;
    arity = n;
    eval =
      (fun xs ->
        let total =
          Array.fold_left
            (fun acc x ->
              match int_of_string_opt x with
              | Some v -> (acc + (v mod m) + m) mod m
              | None -> invalid_arg "Func.mod_sum: non-integer input")
            0 xs
        in
        string_of_int total);
    default_input = "0" }

let greater =
  { name = "greater";
    arity = 2;
    eval =
      (fun xs ->
        match (int_of_string_opt xs.(0), int_of_string_opt xs.(1)) with
        | Some a, Some b -> if a > b then "1" else "0"
        | _ -> invalid_arg "Func.greater: non-integer input");
    default_input = "0" }

let maximum ~n =
  { name = Printf.sprintf "max%d" n;
    arity = n;
    eval =
      (fun xs ->
        let best = ref min_int in
        Array.iter
          (fun x ->
            match int_of_string_opt x with
            | Some v -> if v > !best then best := v
            | None -> invalid_arg "Func.maximum: non-integer input")
          xs;
        string_of_int !best);
    default_input = "0" }

let contract =
  { name = "contract";
    arity = 2;
    eval = (fun xs -> "signed<" ^ xs.(0) ^ ";" ^ xs.(1) ^ ">");
    default_input = "_" }

let eval_exn t xs =
  if Array.length xs <> t.arity then invalid_arg ("Func.eval_exn: arity of " ^ t.name);
  t.eval xs
