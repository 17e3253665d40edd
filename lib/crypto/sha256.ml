(* FIPS 180-4 SHA-256.

   The compression function is C ([Sha256_block], sha256_stubs.c): the x86
   SHA extensions where the CPU has them, else a portable loop.  A digest
   is one [noalloc] call that pads and compresses the whole message in C,
   so its only allocation is the 32-byte result. *)

(* Every compression is counted: [sha256.blocks] is the deterministic work
   count behind a trial's cost (one atomic load per digest while metrics
   are off). *)
let c_blocks = Fair_obs.Metrics.counter "sha256.blocks"

let kernel = Sha256_block.kernel

(* The C digest compresses (len + 8) / 64 + 1 blocks: the message and its
   padding, a 0x80 byte and the 8-byte length. *)
let digest msg =
  Fair_obs.Metrics.add c_blocks (((String.length msg + 8) / 64) + 1);
  let out = Bytes.create 32 in
  Sha256_block.digest msg out;
  Bytes.unsafe_to_string out

let hex_chars = "0123456789abcdef"

(* Hex codecs run over multi-KiB strings on the protocol hot path (a
   Lamport key is 16 KiB of bytes, 32 KiB of hex), so both directions are
   direct byte loops — [String.init]'s per-character closure call costs
   more than the conversion itself at these sizes. *)
let to_hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_chars (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_chars (c land 0xF))
  done;
  Bytes.unsafe_to_string b

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Sha256.of_hex: bad character"

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Sha256.of_hex: odd length";
  let b = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let hi = nibble (String.unsafe_get s (2 * i)) in
    let lo = nibble (String.unsafe_get s ((2 * i) + 1)) in
    Bytes.unsafe_set b i (Char.unsafe_chr ((hi lsl 4) lor lo))
  done;
  Bytes.unsafe_to_string b

let hex_digest msg = to_hex (digest msg)
