module Rng = Fair_crypto.Rng
module Engine = Fair_exec.Engine
module Wire = Fair_exec.Wire
module Adversary = Fair_exec.Adversary
module Metrics = Fair_obs.Metrics

let c_drop = Metrics.counter "faults.drop"
let c_dup = Metrics.counter "faults.duplicate"
let c_delay = Metrics.counter "faults.delay"
let c_flip = Metrics.counter "faults.bitflip"
let c_trunc = Metrics.counter "faults.truncate"
let c_crash = Metrics.counter "faults.crash"
let c_adv_contained = Metrics.counter "faults.adversary_contained"

type kind = Drop | Duplicate | Delay of int | Bitflip | Truncate

type rule = {
  kind : kind;
  r_lo : int;
  r_hi : int;
  src : int option;
  dst : int option;
  prob : float;
}

type crash_rule = { party : int; c_lo : int; c_hi : int; c_prob : float }
type plan = { prules : rule list; pcrashes : crash_rule list }

let empty = { prules = []; pcrashes = [] }
let is_empty p = p.prules = [] && p.pcrashes = []
let rules p = p.prules
let crashes p = p.pcrashes

(* ------------------------------------------------------------------ *)
(* Spec parsing. *)

let kind_name = function
  | Drop -> "drop"
  | Duplicate -> "dup"
  | Delay k -> Printf.sprintf "delay+%d" k
  | Bitflip -> "flip"
  | Truncate -> "trunc"

let rounds_to_string lo hi =
  if lo = 1 && hi = max_int then "*"
  else if hi = max_int then Printf.sprintf "%d-*" lo
  else if lo = hi then string_of_int lo
  else Printf.sprintf "%d-%d" lo hi

let party_to_string = function None -> "*" | Some p -> string_of_int p

(* Print a float probability without trailing-zero noise ("0.25", not
   "0.250000"); %g is stable for the round-trip values we accept. *)
let prob_to_string q = Printf.sprintf "%g" q

let rule_to_string r =
  let b = Buffer.create 32 in
  Buffer.add_string b (kind_name r.kind);
  Buffer.add_char b '@';
  Buffer.add_string b (rounds_to_string r.r_lo r.r_hi);
  if r.src <> None || r.dst <> None then
    Buffer.add_string b
      (Printf.sprintf ":%s->%s" (party_to_string r.src) (party_to_string r.dst));
  if r.prob < 1.0 then Buffer.add_string b ("%" ^ prob_to_string r.prob);
  Buffer.contents b

let crash_to_string c =
  let b = Buffer.create 16 in
  Buffer.add_string b "crash@";
  Buffer.add_string b (rounds_to_string c.c_lo c.c_hi);
  Buffer.add_string b (Printf.sprintf ":p%d" c.party);
  if c.c_prob < 1.0 then Buffer.add_string b ("%" ^ prob_to_string c.c_prob);
  Buffer.contents b

let to_string p =
  String.concat ";" (List.map rule_to_string p.prules @ List.map crash_to_string p.pcrashes)

let trim = String.trim

let parse_rounds s =
  let s = trim s in
  if s = "*" then Ok (1, max_int)
  else
    match String.index_opt s '-' with
    | None -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok (n, n)
        | _ -> Error (Printf.sprintf "bad round %S (want N, N-M or *)" s))
    | Some i -> (
        let lo = trim (String.sub s 0 i) in
        let hi = trim (String.sub s (i + 1) (String.length s - i - 1)) in
        match (int_of_string_opt lo, hi) with
        | Some lo, "*" when lo >= 1 -> Ok (lo, max_int)
        | Some lo, _ -> (
            match int_of_string_opt hi with
            | Some hi when lo >= 1 && hi >= lo -> Ok (lo, hi)
            | _ -> Error (Printf.sprintf "bad round range %S" s))
        | None, _ -> Error (Printf.sprintf "bad round range %S" s))

let parse_party s =
  let s = trim s in
  if s = "*" then Ok None
  else
    match int_of_string_opt s with
    | Some p when p >= 0 -> Ok (Some p)
    | _ -> Error (Printf.sprintf "bad party %S (want an id or *)" s)

let split_on_arrow s =
  let len = String.length s in
  let rec find i =
    if i + 1 >= len then None
    else if s.[i] = '-' && s.[i + 1] = '>' then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 2) (len - i - 2))

let parse_edge s =
  match split_on_arrow s with
  | None -> Error (Printf.sprintf "bad edge %S (want SRC->DST)" s)
  | Some (src, dst) -> (
      match (parse_party src, parse_party dst) with
      | Ok src, Ok dst -> Ok (src, dst)
      | Error e, _ | _, Error e -> Error e)

let parse_prob s =
  match float_of_string_opt (trim s) with
  | Some q when q >= 0.0 && q <= 1.0 -> Ok q
  | _ -> Error (Printf.sprintf "bad probability %S (want a float in [0,1])" s)

let parse_kind s =
  let s = trim s in
  match s with
  | "drop" -> Ok Drop
  | "dup" -> Ok Duplicate
  | "flip" -> Ok Bitflip
  | "trunc" -> Ok Truncate
  | _ ->
      if String.length s > 6 && String.sub s 0 6 = "delay+" then
        match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some k when k >= 1 -> Ok (Delay k)
        | _ -> Error (Printf.sprintf "bad delay %S (want delay+K, K>=1)" s)
      else Error (Printf.sprintf "unknown fault kind %S" s)

(* Split one rule string into (head, rounds?, tail?, prob?):
   HEAD[@ROUNDS][:TAIL][%PROB].  '%' is searched from the right so edge and
   round segments cannot contain one. *)
let segment s =
  let s = trim s in
  let s, prob =
    match String.rindex_opt s '%' with
    | None -> (s, None)
    | Some i ->
        (trim (String.sub s 0 i), Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  let s, tail =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        (trim (String.sub s 0 i), Some (trim (String.sub s (i + 1) (String.length s - i - 1))))
  in
  let head, rounds =
    match String.index_opt s '@' with
    | None -> (trim s, None)
    | Some i ->
        (trim (String.sub s 0 i), Some (trim (String.sub s (i + 1) (String.length s - i - 1))))
  in
  (head, rounds, tail, prob)

let ( let* ) = Result.bind

let parse_one s =
  let head, rounds, tail, prob = segment s in
  let* r_lo, r_hi = match rounds with None -> Ok (1, max_int) | Some r -> parse_rounds r in
  let* prob = match prob with None -> Ok 1.0 | Some p -> parse_prob p in
  if head = "crash" then
    match tail with
    | Some t when String.length t >= 2 && t.[0] = 'p' -> (
        match int_of_string_opt (String.sub t 1 (String.length t - 1)) with
        | Some party when party >= 1 ->
            Ok (`Crash { party; c_lo = r_lo; c_hi = r_hi; c_prob = prob })
        | _ -> Error (Printf.sprintf "bad crash target %S (want pN)" t))
    | _ -> Error (Printf.sprintf "crash rule %S needs a target (crash@R:pN)" s)
  else
    let* kind = parse_kind head in
    let* src, dst =
      match tail with None -> Ok (None, None) | Some t -> parse_edge t
    in
    Ok (`Rule { kind; r_lo; r_hi; src; dst; prob })

let parse spec =
  let parts = String.split_on_char ';' spec |> List.map trim |> List.filter (( <> ) "") in
  let rec go acc_r acc_c = function
    | [] -> Ok { prules = List.rev acc_r; pcrashes = List.rev acc_c }
    | p :: rest -> (
        match parse_one p with
        | Ok (`Rule r) -> go (r :: acc_r) acc_c rest
        | Ok (`Crash c) -> go acc_r (c :: acc_c) rest
        | Error e -> Error (Printf.sprintf "fault spec: rule %S: %s" p e))
  in
  go [] [] parts

let of_spec spec =
  match parse spec with Ok p -> p | Error e -> invalid_arg ("Faults.of_spec: " ^ e)

(* ------------------------------------------------------------------ *)
(* Instantiation. *)

type applied = { at_round : int; action : string }
type instance = { injector : Engine.injector; applied : unit -> applied list }

let matches_rule r ~round ~(env : Wire.envelope) =
  round >= r.r_lo && round <= r.r_hi
  && (match r.src with None -> true | Some s -> env.Wire.src = s)
  &&
  match r.dst with
  | None -> true
  | Some d -> ( match env.Wire.dst with Wire.To p -> p = d | Wire.Broadcast -> false)

let edge_of (env : Wire.envelope) =
  Printf.sprintf "%d->%s" env.Wire.src
    (match env.Wire.dst with Wire.To p -> string_of_int p | Wire.Broadcast -> "bcast")

let flip_bit rng payload =
  let len = String.length payload in
  if len = 0 then payload
  else begin
    let pos = Rng.int rng (len * 8) in
    let b = Bytes.of_string payload in
    let byte = pos / 8 and bit = pos mod 8 in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
    Bytes.to_string b
  end

let truncate_payload rng payload =
  let len = String.length payload in
  if len = 0 then payload else String.sub payload 0 (Rng.int rng len)

let instantiate plan ~rng =
  let log = ref [] in
  let note at_round action = log := { at_round; action } :: !log in
  (* Apply one rule to one in-flight copy, returning the transformed copy
     list.  A rule that does not match (or loses its bernoulli) passes the
     copy through untouched. *)
  let apply_rule ~round r ((d, env) as copy) =
    if not (matches_rule r ~round ~env) then [ copy ]
    else if r.prob < 1.0 && not (Rng.bernoulli rng r.prob) then [ copy ]
    else
      match r.kind with
      | Drop ->
          Metrics.incr c_drop;
          note round ("drop " ^ edge_of env);
          []
      | Duplicate ->
          Metrics.incr c_dup;
          note round ("dup " ^ edge_of env);
          [ copy; copy ]
      | Delay k ->
          Metrics.incr c_delay;
          note round (Printf.sprintf "delay+%d %s" k (edge_of env));
          [ (d + k, env) ]
      | Bitflip ->
          Metrics.incr c_flip;
          note round ("flip " ^ edge_of env);
          [ (d, { env with Wire.payload = flip_bit rng env.Wire.payload }) ]
      | Truncate ->
          Metrics.incr c_trunc;
          note round ("trunc " ^ edge_of env);
          [ (d, { env with Wire.payload = truncate_payload rng env.Wire.payload }) ]
  in
  let on_envelope ~round env =
    List.fold_left
      (fun copies r -> List.concat_map (apply_rule ~round r) copies)
      [ (0, env) ] plan.prules
  in
  let crash ~round id =
    List.exists
      (fun c ->
        c.party = id && round >= c.c_lo && round <= c.c_hi
        && (c.c_prob >= 1.0 || Rng.bernoulli rng c.c_prob)
        &&
        (Metrics.incr c_crash;
         note round (Printf.sprintf "crash p%d" id);
         true))
      plan.pcrashes
  in
  let injector =
    if is_empty plan then Engine.no_faults else { Engine.on_envelope; crash }
  in
  { injector; applied = (fun () -> List.rev !log) }

(* ------------------------------------------------------------------ *)

(* Unkeyed: the wrapper counts every step it contains, and a remembered
   play (see [Engine.run_prepared]) would run none of them. *)
let harden_adversary (a : Adversary.t) =
  { a with
    Adversary.key = None;
    make =
      (fun rng ~protocol ->
        let inst = a.Adversary.make rng ~protocol in
        { inst with
          Adversary.step =
            (fun view ->
              match inst.Adversary.step view with
              | d -> d
              | exception e when not (Engine.fatal e) ->
                  Metrics.incr c_adv_contained;
                  Adversary.silent_decision) }) }
