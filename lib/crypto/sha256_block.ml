(* SHA-256 in C (sha256_stubs.c): one kernel on the x86 SHA extensions, one
   portable loop, each reached as a whole digest.  Which kernel runs is
   decided here, once, while the module initialises (before any domain
   exists), from what the CPU reports; nothing changes it afterwards.

   The C stubs trust their arguments, so every call goes through a check: a
   bad output buffer would otherwise be written outside its bounds. *)

external has_sha_ni : unit -> bool = "fair_sha256_has_sha_ni"

external digest_portable : string -> Bytes.t -> unit = "fair_sha256_digest_portable"
[@@noalloc]

external digest_sha_ni : string -> Bytes.t -> unit = "fair_sha256_digest_sha_ni"
[@@noalloc]

let check_out out = if Bytes.length out <> 32 then invalid_arg "Sha256_block.digest"

let sha_ni_ok = has_sha_ni ()
let kernel = if sha_ni_ok then "sha-ni" else "portable"

let digest msg out =
  check_out out;
  if sha_ni_ok then digest_sha_ni msg out else digest_portable msg out

let digests =
  let checked k msg out = check_out out; k msg out in
  ("portable", checked digest_portable)
  :: (if sha_ni_ok then [ ("sha-ni", checked digest_sha_ni) ] else [])
