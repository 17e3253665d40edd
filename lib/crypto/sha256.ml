(* FIPS 180-4 SHA-256.

   The compression function is C ([Sha256_block], sha256_stubs.c): the x86
   SHA extensions where the CPU has them, else a portable loop.  The
   chaining words stay in an OCaml [int array] and each block is compressed
   in place from the caller's bytes, so a block costs one [noalloc] call.
   A one-shot [digest] borrows a domain-local context, so the only per-call
   allocation is the 32-byte result itself. *)

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array;          (* 8 chaining words, each in [0, 2^32) *)
  buf : Bytes.t;          (* 64-byte partial-block buffer *)
  mutable buf_len : int;  (* bytes pending in [buf] *)
  mutable total : int;    (* message bytes absorbed so far *)
}

let create () = { h = Array.copy iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let reset c =
  Array.blit iv 0 c.h 0 8;
  c.buf_len <- 0;
  c.total <- 0

(* Every compression is counted: [sha256.blocks] is the deterministic work
   count behind a trial's cost (one atomic load per block while metrics
   are off). *)
let c_blocks = Fair_obs.Metrics.counter "sha256.blocks"

let kernel = Sha256_block.kernel

let compress h b off =
  Fair_obs.Metrics.incr c_blocks;
  Sha256_block.compress h b off

let feed_sub c b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Sha256.feed: range out of bounds";
  c.total <- c.total + len;
  let off = ref off and len = ref len in
  if c.buf_len > 0 then begin
    let take = min !len (64 - c.buf_len) in
    Bytes.blit b !off c.buf c.buf_len take;
    c.buf_len <- c.buf_len + take;
    off := !off + take;
    len := !len - take;
    if c.buf_len = 64 then begin
      compress c.h c.buf 0;
      c.buf_len <- 0
    end
  end;
  while !len >= 64 do
    compress c.h b !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit b !off c.buf 0 !len;
    c.buf_len <- !len
  end

let feed_string c s =
  (* read-only access: the unsafe cast never mutates [s] *)
  feed_sub c (Bytes.unsafe_of_string s) 0 (String.length s)

let output_digest h =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = Array.unsafe_get h i in
    Bytes.unsafe_set out (4 * i) (Char.unsafe_chr (v lsr 24));
    Bytes.unsafe_set out ((4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 3) (Char.unsafe_chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

(* Big-endian 64-bit message bit length into [buf.(56..63)]. *)
let write_bitlen buf total =
  let bitlen = total * 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set buf (56 + i) (Char.unsafe_chr ((bitlen lsr (8 * (7 - i))) land 0xff))
  done

(* Padding + final block(s); mutates [c.h] and [c.buf], so the context is
   spent afterwards. *)
let finalize c =
  Bytes.unsafe_set c.buf c.buf_len '\x80';
  let n = c.buf_len + 1 in
  if n > 56 then begin
    Bytes.fill c.buf n (64 - n) '\000';
    compress c.h c.buf 0;
    Bytes.fill c.buf 0 56 '\000'
  end
  else Bytes.fill c.buf n (56 - n) '\000';
  write_bitlen c.buf c.total;
  compress c.h c.buf 0;
  output_digest c.h

(* Domain-local scratch: [digest] is called from every worker domain of the
   Monte-Carlo pool, so the shared context must be per-domain. *)
let scratch = Domain.DLS.new_key create

let digest msg =
  let c = Domain.DLS.get scratch in
  let len = String.length msg in
  if len < 56 then begin
    (* Single-block fast path (the Lamport / PRG-refill shape): pad in the
       context buffer and compress once, skipping the streaming bookkeeping. *)
    Array.blit iv 0 c.h 0 8;
    Bytes.blit_string msg 0 c.buf 0 len;
    Bytes.unsafe_set c.buf len '\x80';
    Bytes.fill c.buf (len + 1) (55 - len) '\000';
    write_bitlen c.buf len;
    compress c.h c.buf 0;
    output_digest c.h
  end
  else begin
    reset c;
    feed_string c msg;
    finalize c
  end

module Ctx = struct
  type t = ctx

  let create = create
  let feed = feed_string
  let feed_bytes c b ~pos ~len = feed_sub c b pos len
  let digest = finalize
end

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
