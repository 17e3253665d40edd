let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  key ^ String.make (block_size - String.length key) '\000'

let xor_pad key pad =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor pad))

let mac ~key msg =
  let key = normalize_key key in
  Sha256.digest (xor_pad key 0x5c ^ Sha256.digest (xor_pad key 0x36 ^ msg))

let hex_mac ~key msg = Sha256.to_hex (mac ~key msg)

let verify ~key ~msg ~tag =
  let expect = mac ~key msg in
  String.length tag = String.length expect
  &&
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code expect.[i])) tag;
  !diff = 0
