(* SHA-256 block compression in C (sha256_stubs.c): one kernel on the x86
   SHA extensions, one portable loop.  Which one runs is decided here, once,
   while the module initialises (before any domain exists), from what the
   CPU reports; nothing changes it afterwards.

   The C kernels trust their arguments, so every call goes through [check]:
   a bad offset or state would otherwise read or write outside the buffers. *)

external has_sha_ni : unit -> bool = "fair_sha256_has_sha_ni"

external portable : int array -> Bytes.t -> int -> unit = "fair_sha256_compress_portable"
[@@noalloc]

external sha_ni : int array -> Bytes.t -> int -> unit = "fair_sha256_compress_sha_ni"
[@@noalloc]

let check h b off =
  if Array.length h <> 8 || off < 0 || off > Bytes.length b - 64 then
    invalid_arg "Sha256_block.compress"

let sha_ni_ok = has_sha_ni ()
let kernel = if sha_ni_ok then "sha-ni" else "portable"

let compress h b off =
  check h b off;
  if sha_ni_ok then sha_ni h b off else portable h b off

let kernels =
  let checked k h b off = check h b off; k h b off in
  ("portable", checked portable) :: (if sha_ni_ok then [ ("sha-ni", checked sha_ni) ] else [])
