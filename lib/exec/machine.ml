type action =
  | Send of Wire.dest * Wire.payload
  | Output of Wire.payload
  | Abort_self

type t = { step : round:int -> inbox:(Wire.party_id * Wire.payload) list -> t * action list }

let same_inbox a b =
  a == b
  || List.equal (fun (s, p) (s', p') -> Int.equal s s' && String.equal p p') a b

let rec remembered round inbox = function
  | (r, i, result) :: rest ->
      if Int.equal r round && same_inbox i inbox then result else remembered round inbox rest
  | [] -> raise_notrace Not_found

(* Each machine value keeps the (round, inbox, result) of every step taken
   from it, newest first; a step that raises stores nothing. *)
let rec make state f =
  let seen = ref [] in
  let step ~round ~inbox =
    match remembered round inbox !seen with
    | result -> result
    | exception Not_found ->
        let state', actions = f state ~round ~inbox in
        let result = (make state' f, actions) in
        seen := (round, inbox, result) :: !seen;
        result
  in
  { step }

let silent =
  let rec m = { step = (fun ~round:_ ~inbox:_ -> (m, [])) } in
  m
