(* Tests for the crypto substrate: SHA-256 (FIPS vectors, and every block
   kernel the CPU can run against a reference compression), HMAC (RFC 4231),
   the deterministic RNG, commitments, the polynomial MAC, and the
   hash-based signatures. *)

module Sha256 = Fair_crypto.Sha256
module Hmac = Fair_crypto.Hmac
module Rng = Fair_crypto.Rng
module Commit = Fair_crypto.Commit
module Poly_mac = Fair_crypto.Poly_mac
module Signature = Fair_crypto.Signature
module Field = Fair_field.Field

let qtest name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* -------------------------- SHA-256 -------------------------------- *)

let fips_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "message digest",
      "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650" );
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" ) ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, expect) ->
      Alcotest.(check string) (Printf.sprintf "sha256(%d bytes)" (String.length msg)) expect
        (Sha256.hex_digest msg))
    fips_vectors

let test_sha256_million_a () =
  Alcotest.(check string) "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex_digest (String.make 1_000_000 'a'))

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff8al" in
  Alcotest.(check string) "hex roundtrip" s (Sha256.of_hex (Sha256.to_hex s));
  Alcotest.check_raises "odd length" (Invalid_argument "Sha256.of_hex: odd length") (fun () ->
      ignore (Sha256.of_hex "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Sha256.of_hex: bad character") (fun () ->
      ignore (Sha256.of_hex "zz"))

(* The incremental API must agree with the one-shot digest for every way
   of slicing the message, including slices that straddle the 64-byte
   block boundary and the 56-byte padding threshold. *)
let test_sha256_incremental () =
  let msg = String.init 1000 (fun i -> Char.chr ((i * 7 + 13) land 0xff)) in
  let expect = Sha256.digest msg in
  List.iter
    (fun sizes ->
      let c = Sha256.Ctx.create () in
      let pos = ref 0 in
      let rec go = function
        | [] -> ()
        | k :: rest when !pos + k <= String.length msg ->
            Sha256.Ctx.feed c (String.sub msg !pos k);
            pos := !pos + k;
            go rest
        | _ :: rest -> go rest
      in
      go sizes;
      Sha256.Ctx.feed c (String.sub msg !pos (String.length msg - !pos));
      Alcotest.(check string)
        (Printf.sprintf "chunks [%s]" (String.concat ";" (List.map string_of_int sizes)))
        (Sha256.to_hex expect)
        (Sha256.to_hex (Sha256.Ctx.digest c)))
    [ [ 0 ]; [ 1; 1; 1 ]; [ 55; 1 ]; [ 56 ]; [ 63; 2 ]; [ 64 ]; [ 65; 64 ];
      [ 127; 1 ]; [ 128; 128; 128 ]; [ 3; 61; 64; 100 ] ]

let test_sha256_feed_bytes () =
  let b = Bytes.of_string "xxabcyy" in
  let c = Sha256.Ctx.create () in
  Sha256.Ctx.feed_bytes c b ~pos:2 ~len:3;
  Alcotest.(check string) "feed_bytes slice"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.to_hex (Sha256.Ctx.digest c));
  Alcotest.check_raises "bad range" (Invalid_argument "Sha256.feed: range out of bounds")
    (fun () -> Sha256.Ctx.feed_bytes (Sha256.Ctx.create ()) b ~pos:5 ~len:3)

(* ---------------------- SHA-256 block kernels ---------------------- *)

module Block = Fair_crypto.Sha256_block

(* FIPS 180-4 section 6.2.2 written loop by loop over native ints: the
   reference every C kernel must match block for block. *)
let fips_k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
     0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
     0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
     0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let reference_compress h b off =
  let ( +% ) x y = (x + y) land 0xffffffff in
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land 0xffffffff in
  let w = Array.make 64 0 in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be b (off + (4 * t))) land 0xffffffff
  done;
  for t = 16 to 63 do
    let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- w.(t - 16) +% s0 +% w.(t - 7) +% s1
  done;
  (* v = [| a; b; c; d; e; f; g; h |] *)
  let v = Array.copy h in
  for t = 0 to 63 do
    let a = v.(0) and e = v.(4) in
    let ch = (e land v.(5)) lxor (lnot e land v.(6)) in
    let t1 = v.(7) +% (rotr e 6 lxor rotr e 11 lxor rotr e 25) +% ch +% fips_k.(t) +% w.(t) in
    let maj = (a land v.(1)) lxor (a land v.(2)) lxor (v.(1) land v.(2)) in
    let t2 = (rotr a 2 lxor rotr a 13 lxor rotr a 22) +% maj in
    Array.blit v 0 v 1 7;
    v.(4) <- v.(4) +% t1;
    v.(0) <- t1 +% t2
  done;
  Array.iteri (fun i x -> h.(i) <- h.(i) +% x) v

(* 10 000 random (state, buffer, offset) cases per kernel.  Buffers run
   from 64 to 191 bytes; a quarter of the offsets are 0, a quarter the last
   64 bytes, and the rest anywhere in between (mostly unaligned).  The
   kernel must also leave the buffer as it found it. *)
let test_block_kernels () =
  let rs = Random.State.make [| 180 |] in
  let word () = Random.State.full_int rs 0x1_0000_0000 in
  let cases =
    List.init 10_000 (fun i ->
        let state =
          match i with
          | 0 -> Array.make 8 0
          | 1 -> Array.make 8 0xffffffff
          | _ -> Array.init 8 (fun _ -> word ())
        in
        let len = 64 + Random.State.int rs 128 in
        let buf = Bytes.init len (fun _ -> Char.chr (Random.State.int rs 256)) in
        let off = match i mod 4 with 0 -> 0 | 1 -> len - 64 | _ -> Random.State.int rs (len - 63) in
        (state, buf, off))
  in
  Alcotest.(check bool) "the selected kernel is listed" true (List.mem_assoc Block.kernel Block.kernels);
  Alcotest.(check string) "Sha256.kernel names it" Block.kernel Sha256.kernel;
  let differ (name, compress) =
    let mismatches = ref 0 and first = ref "" in
    List.iteri
      (fun i (state, buf, off) ->
        let expect = Array.copy state and got = Array.copy state and before = Bytes.copy buf in
        reference_compress expect buf off;
        compress got buf off;
        if got <> expect || not (Bytes.equal buf before) then begin
          if !mismatches = 0 then
            first := Printf.sprintf "case %d, offset %d of %d bytes" i off (Bytes.length buf);
          incr mismatches
        end)
      cases;
    if !mismatches = 0 then None
    else Some (Printf.sprintf "%s: %d cases differ, first %s" name !mismatches !first)
  in
  Alcotest.(check (list string)) "kernels that differ from the FIPS reference" []
    (List.filter_map differ (("compress", Block.compress) :: Block.kernels))

(* The C kernels trust their arguments, so the OCaml side must refuse any
   offset or state that would take them outside their buffers. *)
let test_block_bounds () =
  let b = Bytes.make 100 'x' in
  let bad = Invalid_argument "Sha256_block.compress" in
  List.iter
    (fun (name, compress) ->
      let h = Array.make 8 1 in
      let raises what f = Alcotest.check_raises (Printf.sprintf "%s: %s" name what) bad f in
      raises "off < 0" (fun () -> compress h b (-1));
      raises "off > length - 64" (fun () -> compress h b 37);
      raises "buffer shorter than a block" (fun () -> compress h (Bytes.make 63 'x') 0);
      raises "7-word state" (fun () -> compress (Array.make 7 1) b 0);
      raises "9-word state" (fun () -> compress (Array.make 9 1) b 0);
      Alcotest.(check (array int)) (name ^ ": state untouched") (Array.make 8 1) h;
      compress h b 36;
      Alcotest.(check bool) (name ^ ": last block accepted") true (h <> Array.make 8 1))
    (("compress", Block.compress) :: Block.kernels)

(* --------------------------- HMAC ---------------------------------- *)

(* RFC 4231 test cases 1, 2 and 3. *)
let test_hmac_rfc4231 () =
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.hex_mac ~key:(String.make 20 '\x0b') "Hi There");
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hex_mac ~key:"Jefe" "what do ya want for nothing?");
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.hex_mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
  Alcotest.(check string) "case 4"
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    (Hmac.hex_mac
       ~key:(String.init 25 (fun i -> Char.chr (i + 1)))
       (String.make 50 '\xcd'))

let test_hmac_long_key () =
  (* RFC 4231 case 6: 131-byte key is hashed first. *)
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.hex_mac
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_verify () =
  let key = "k" and msg = "m" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key ~msg ~tag);
  Alcotest.(check bool) "rejects wrong msg" false (Hmac.verify ~key ~msg:"m2" ~tag);
  Alcotest.(check bool) "rejects truncated" false
    (Hmac.verify ~key ~msg ~tag:(String.sub tag 0 16))

(* ---------------------------- RNG ----------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:"s" and b = Rng.create ~seed:"s" in
  Alcotest.(check string) "same stream" (Rng.bytes a 64) (Rng.bytes b 64)

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:"s1" and b = Rng.create ~seed:"s2" in
  Alcotest.(check bool) "different streams" false
    (String.equal (Rng.bytes a 32) (Rng.bytes b 32))

let test_rng_split_independent () =
  let g = Rng.create ~seed:"s" in
  let c1 = Rng.split g ~label:"a" and c2 = Rng.split g ~label:"b" in
  Alcotest.(check bool) "children differ" false (String.equal (Rng.bytes c1 32) (Rng.bytes c2 32));
  (* splitting does not advance the parent *)
  let g' = Rng.create ~seed:"s" in
  ignore (Rng.split g ~label:"c");
  Alcotest.(check string) "parent unaffected" (Rng.bytes g' 32) (Rng.bytes g 32)

let test_rng_int_range () =
  let g = Rng.create ~seed:"range" in
  for _ = 1 to 1000 do
    let v = Rng.int g 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of range"
  done

let test_rng_bernoulli_bias () =
  let g = Rng.create ~seed:"bern" in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Rng.bernoulli g 0.25 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  if abs_float (p -. 0.25) > 0.02 then
    Alcotest.failf "bernoulli(0.25) measured %.3f" p

let test_rng_field_uniform_smoke () =
  let g = Rng.create ~seed:"field" in
  let below_half = ref 0 in
  let n = 10000 in
  for _ = 1 to n do
    if Field.to_int (Rng.field g) < Field.p / 2 then incr below_half
  done;
  let p = float_of_int !below_half /. float_of_int n in
  if abs_float (p -. 0.5) > 0.03 then Alcotest.failf "field sampling biased: %.3f" p

(* Golden streams: every recorded experiment, table and certificate in the
   repository depends on these exact byte sequences, so the PRG must never
   drift — not across a change to the refill, not across a rewrite of the
   hash.  Block [i] of a stream is SHA256(seed ^ "|ctr|" ^ i). *)

let test_rng_golden_bytes () =
  let g = Rng.create ~seed:"golden" in
  Alcotest.(check string) "80-byte stream"
    "ee4dcb578d50301d3caca770643717902ca36f862b035479fabf05a4f43ea09c\
     c4e26587fa65ae868dcffa79549798ae3fc22ef6b453bdde4ab6aa7f46b17873\
     8d8e22a8312ced5a4c28f3896c73c27f"
    (Sha256.to_hex (Rng.bytes g 80))

let test_rng_golden_split () =
  let g = Rng.create ~seed:"s" in
  let c = Rng.split g ~label:"child" in
  Alcotest.(check string) "child stream"
    "2794dc42964612d47589653bdc069e977e4fe2955293938cdd867f31b0b559c4"
    (Sha256.to_hex (Rng.bytes c 32))

let test_rng_golden_mixed () =
  (* Interleaved draws exercise the buffer-refill boundaries (bytes, bits,
     rejection-sampled ints and field elements all pull different widths). *)
  let g = Rng.create ~seed:"mixed" in
  let xs =
    List.init 30 (fun i ->
        match i mod 5 with
        | 0 -> Rng.int g 1000
        | 1 -> Rng.bits g 13
        | 2 -> if Rng.bool g then 1 else 0
        | 3 -> Char.code (Rng.bytes g 3).[1]
        | _ -> Field.to_int (Rng.field g) mod 997)
  in
  Alcotest.(check string) "mixed draw sequence"
    "745;838;1;108;421;473;1258;1;106;65;732;4187;1;87;11;416;5695;0;81;436;\
     937;4389;1;91;318;77;3417;1;195;302"
    (String.concat ";" (List.map string_of_int xs))

let test_rng_golden_pick () =
  let g = Rng.create ~seed:"pick" in
  let l = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  let picks = List.init 20 (fun _ -> Rng.pick g l) in
  Alcotest.(check string) "pick stream" "4;3;2;7;9;2;8;9;8;6;9;9;5;3;2;1;9;9;6;5"
    (String.concat ";" (List.map string_of_int picks))

let test_rng_pick_array_agrees () =
  (* [pick] and [pick_array] consume identical stream bytes. *)
  let a = Rng.create ~seed:"pa" and b = Rng.create ~seed:"pa" in
  let arr = Array.init 7 (fun i -> 10 * i) in
  let l = Array.to_list arr in
  for _ = 1 to 50 do
    Alcotest.(check int) "same element" (Rng.pick a l) (Rng.pick_array b arr)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick_array: empty array")
    (fun () -> ignore (Rng.pick_array a [||]))

let test_rng_shuffle_permutes () =
  let g = Rng.create ~seed:"shuffle" in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

(* ------------------------- Commitments ------------------------------ *)

let test_commit_verify () =
  let g = Rng.create ~seed:"commit" in
  let c, o = Commit.commit g "secret" in
  Alcotest.(check bool) "opens" true (Commit.verify c o);
  Alcotest.(check string) "message" "secret" (Commit.message o)

let test_commit_binding_smoke () =
  let g = Rng.create ~seed:"commit2" in
  let c, _ = Commit.commit g "a" in
  let _, o' = Commit.commit g "b" in
  Alcotest.(check bool) "other opening rejected" false (Commit.verify c o')

let test_commit_hiding_smoke () =
  (* Two commitments to the same message with different randomness differ. *)
  let g = Rng.create ~seed:"commit3" in
  let c1, _ = Commit.commit g "same" in
  let c2, _ = Commit.commit g "same" in
  Alcotest.(check bool) "fresh randomness" false
    (String.equal (Commit.commitment_to_string c1) (Commit.commitment_to_string c2))

let test_commit_wire () =
  let g = Rng.create ~seed:"commit4" in
  let c, o = Commit.commit g "wire" in
  let o' = Commit.opening_of_string (Commit.opening_to_string o) in
  Alcotest.(check bool) "roundtripped opening verifies" true (Commit.verify c o')

(* --------------------------- Poly MAC ------------------------------- *)

let arb_field_list = QCheck.(list_of_size (Gen.int_bound 10) (int_bound (Field.p - 1)))

let prop_mac_verifies =
  qtest "tagged message verifies" 200 arb_field_list (fun xs ->
      let g = Rng.create ~seed:(String.concat "," (List.map string_of_int xs)) in
      let key = Poly_mac.gen g in
      let m = Array.of_list (List.map Field.of_int xs) in
      Poly_mac.verify key m (Poly_mac.tag key m))

let prop_mac_rejects_modified =
  qtest "modified message rejected" 200
    QCheck.(pair (int_bound (Field.p - 2)) (int_bound 9))
    (fun (v, pos) ->
      let g = Rng.create ~seed:("mac" ^ string_of_int v) in
      let key = Poly_mac.gen g in
      let m = Array.init 10 (fun i -> Field.of_int (i + v)) in
      let t = Poly_mac.tag key m in
      let m' = Array.copy m in
      m'.(pos) <- Field.add m'.(pos) Field.one;
      not (Poly_mac.verify key m' t))

let test_mac_string () =
  let g = Rng.create ~seed:"macstr" in
  let key = Poly_mac.gen g in
  let t = Poly_mac.tag_string key "hello" in
  Alcotest.(check bool) "verifies" true (Poly_mac.verify_string key "hello" t);
  Alcotest.(check bool) "rejects other" false (Poly_mac.verify_string key "hellp" t)

let test_mac_wire () =
  let g = Rng.create ~seed:"macwire" in
  let key = Poly_mac.gen g in
  let key' = Poly_mac.key_of_string (Poly_mac.key_to_string key) in
  let m = [| Field.of_int 7 |] in
  Alcotest.(check bool) "key roundtrip verifies" true (Poly_mac.verify key' m (Poly_mac.tag key m));
  let t = Poly_mac.tag key m in
  let t' = Poly_mac.tag_of_string (Poly_mac.tag_to_string t) in
  Alcotest.(check bool) "tag roundtrip" true (Field.equal t t')

let test_mac_double () =
  let g = Rng.create ~seed:"macdouble" in
  let key = Poly_mac.Double.gen g in
  let m = [| Field.of_int 1; Field.of_int 2 |] in
  let t = Poly_mac.Double.tag key m in
  Alcotest.(check bool) "verifies" true (Poly_mac.Double.verify key m t);
  Alcotest.(check bool) "rejects" false (Poly_mac.Double.verify key [| Field.of_int 1 |] t)

(* -------------------------- Signatures ------------------------------ *)

let test_lamport () =
  let g = Rng.create ~seed:"lamport" in
  let sk, pk = Signature.Lamport.keygen g in
  let s = Signature.Lamport.sign sk "message" in
  Alcotest.(check bool) "verifies" true (Signature.Lamport.verify pk "message" s);
  Alcotest.(check bool) "wrong message" false (Signature.Lamport.verify pk "other" s)

let test_lamport_wire () =
  let g = Rng.create ~seed:"lamport2" in
  let sk, pk = Signature.Lamport.keygen g in
  let s = Signature.Lamport.sign sk "m" in
  let pk' = Signature.Lamport.public_key_of_string (Signature.Lamport.public_key_to_string pk) in
  let s' = Signature.Lamport.signature_of_string (Signature.Lamport.signature_to_string s) in
  Alcotest.(check bool) "roundtrip verifies" true (Signature.Lamport.verify pk' "m" s')

let test_lamport_cross_key () =
  let g = Rng.create ~seed:"lamport3" in
  let sk, _ = Signature.Lamport.keygen g in
  let _, pk2 = Signature.Lamport.keygen g in
  let s = Signature.Lamport.sign sk "m" in
  Alcotest.(check bool) "other key rejects" false (Signature.Lamport.verify pk2 "m" s)

let test_merkle () =
  let g = Rng.create ~seed:"merkle" in
  let signer, root = Signature.Merkle.keygen g ~height:3 in
  Alcotest.(check int) "8 keys" 8 (Signature.Merkle.remaining signer);
  let sigs = List.init 8 (fun i -> (i, Signature.Merkle.sign signer (Printf.sprintf "m%d" i))) in
  Alcotest.(check int) "exhausted" 0 (Signature.Merkle.remaining signer);
  List.iter
    (fun (i, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "sig %d verifies" i)
        true
        (Signature.Merkle.verify root (Printf.sprintf "m%d" i) s);
      Alcotest.(check bool)
        (Printf.sprintf "sig %d wrong message" i)
        false
        (Signature.Merkle.verify root "bogus" s))
    sigs;
  Alcotest.check_raises "ninth signature" (Failure "Merkle.sign: keys exhausted") (fun () ->
      ignore (Signature.Merkle.sign signer "overflow"))

let () =
  Alcotest.run "fair_crypto"
    [ ( "sha256",
        [ Alcotest.test_case "FIPS 180-4 vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a's" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental = one-shot" `Quick test_sha256_incremental;
          Alcotest.test_case "feed_bytes slice" `Quick test_sha256_feed_bytes;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "block kernels = FIPS reference" `Quick test_block_kernels;
          Alcotest.test_case "block bounds" `Quick test_block_bounds ] );
      ( "hmac",
        [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed separation" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "bernoulli bias" `Quick test_rng_bernoulli_bias;
          Alcotest.test_case "field sampling uniform (smoke)" `Quick test_rng_field_uniform_smoke;
          Alcotest.test_case "golden 80-byte stream" `Quick test_rng_golden_bytes;
          Alcotest.test_case "golden split stream" `Quick test_rng_golden_split;
          Alcotest.test_case "golden mixed draws" `Quick test_rng_golden_mixed;
          Alcotest.test_case "golden pick stream" `Quick test_rng_golden_pick;
          Alcotest.test_case "pick_array = pick" `Quick test_rng_pick_array_agrees;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes ] );
      ( "commit",
        [ Alcotest.test_case "commit/open" `Quick test_commit_verify;
          Alcotest.test_case "binding (smoke)" `Quick test_commit_binding_smoke;
          Alcotest.test_case "hiding randomness" `Quick test_commit_hiding_smoke;
          Alcotest.test_case "wire forms" `Quick test_commit_wire ] );
      ( "poly_mac",
        [ prop_mac_verifies;
          prop_mac_rejects_modified;
          Alcotest.test_case "string MAC" `Quick test_mac_string;
          Alcotest.test_case "wire forms" `Quick test_mac_wire;
          Alcotest.test_case "double MAC" `Quick test_mac_double ] );
      ( "signature",
        [ Alcotest.test_case "lamport sign/verify" `Quick test_lamport;
          Alcotest.test_case "lamport wire forms" `Quick test_lamport_wire;
          Alcotest.test_case "lamport cross-key" `Quick test_lamport_cross_key;
          Alcotest.test_case "merkle many-time" `Quick test_merkle ] ) ]
