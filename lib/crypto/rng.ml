module Field = Fair_field.Field

(* Counter-mode PRG over SHA-256: block [i] of the stream is
   [SHA256(seed ^ "|ctr|" ^ string_of_int i)].  Split-derived seeds are 32
   raw bytes, so that string fits one compression block for any counter
   below 10^18. *)

type t = {
  seed : string;
  mutable counter : int;
  mutable buffer : string; (* unconsumed bytes of the current block *)
  mutable pos : int;
}

let create ~seed = { seed; counter = 0; buffer = ""; pos = 0 }

let of_int_seed n = create ~seed:("int-seed:" ^ string_of_int n)

let split g ~label = create ~seed:(Sha256.digest (g.seed ^ "|split|" ^ label))

let copy g = { seed = g.seed; counter = g.counter; buffer = g.buffer; pos = g.pos }

let refill g =
  g.buffer <- Sha256.digest (g.seed ^ "|ctr|" ^ string_of_int g.counter);
  g.counter <- g.counter + 1;
  g.pos <- 0

let byte g =
  if g.pos >= String.length g.buffer then refill g;
  let b = Char.code g.buffer.[g.pos] in
  g.pos <- g.pos + 1;
  b

let bytes g n =
  if n < 0 then invalid_arg "Rng.bytes";
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if g.pos >= String.length g.buffer then refill g;
    let take = min (n - !filled) (String.length g.buffer - g.pos) in
    Bytes.blit_string g.buffer g.pos out !filled take;
    g.pos <- g.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

let bits g k =
  if k <= 0 || k > 62 then invalid_arg "Rng.bits";
  let nbytes = (k + 7) / 8 in
  let v = ref 0 in
  for _ = 1 to nbytes do
    v := (!v lsl 8) lor byte g
  done;
  !v land ((1 lsl k) - 1)

let bool g = byte g land 1 = 1

let int g n =
  if n < 1 then invalid_arg "Rng.int";
  if n = 1 then 0
  else begin
    (* Rejection sampling on the smallest power-of-two envelope. *)
    let k = ref 1 in
    while 1 lsl !k < n do incr k done;
    let rec draw () =
      let v = bits g !k in
      if v < n then v else draw ()
    in
    draw ()
  end

let bernoulli g q =
  if q <= 0.0 then false
  else if q >= 1.0 then true
  else
    let v = float_of_int (bits g 53) /. 9007199254740992.0 (* 2^53 *) in
    v < q

let field g =
  let rec draw () =
    let v = bits g 31 in
    if v < Field.p then Field.of_int v else draw ()
  in
  draw ()

let field_vector g n = Array.init n (fun _ -> field g)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick_array g a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  a.(int g (Array.length a))

let pick g = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | [ x ] -> x (* [int g 1] draws nothing, so this matches the list path *)
  | l -> pick_array g (Array.of_list l)
