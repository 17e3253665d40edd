let max_frame = 16 * 1024 * 1024

(* One buffer per frame write: the 4-byte header and the payload go down in
   a single [Unix.write] loop, so a frame is never interleaved with another
   thread's frame as long as writers hold the connection's write lock. *)
let write fd payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Frame.write: payload exceeds max_frame";
  let buf = Bytes.create (4 + len) in
  Bytes.set_uint8 buf 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 buf 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 buf 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 buf 3 (len land 0xff);
  Bytes.blit_string payload 0 buf 4 len;
  let total = 4 + len in
  let sent = ref 0 in
  while !sent < total do
    let n = Unix.write fd buf !sent (total - !sent) in
    if n = 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", "zero-length write"));
    sent := !sent + n
  done

module Decoder = struct
  (* A growable byte accumulator with a consumed-prefix offset.  Frames are
     small relative to memory, so the simple scheme — append fragments,
     extract with [Bytes.sub_string], compact the consumed prefix when it
     crosses a threshold — is plenty; the invariants that matter are the
     split-point ones: the yielded payload sequence depends only on the
     concatenation of the fed fragments, never on where the splits fell. *)
  type t = {
    mutable data : Bytes.t;
    mutable start : int;  (* first unconsumed byte *)
    mutable fill : int;  (* one past the last valid byte *)
    mutable poisoned : string option;  (* sticky framing error *)
  }

  let create () = { data = Bytes.create 4096; start = 0; fill = 0; poisoned = None }

  let available d = d.fill - d.start

  (* Consumed bytes are dropped when nothing is live (no copy), past
     64 KiB, or when [extra] more bytes would not fit otherwise. *)
  let compact d ~extra =
    if d.start > 0 && (d.start = d.fill || d.start > 65536 || d.fill + extra > Bytes.length d.data)
    then begin
      let live = available d in
      Bytes.blit d.data d.start d.data 0 live;
      d.start <- 0;
      d.fill <- live
    end

  let ensure d extra =
    compact d ~extra;
    let need = d.fill + extra in
    if need > Bytes.length d.data then begin
      let cap = ref (max 4096 (Bytes.length d.data)) in
      while !cap < need do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit d.data 0 bigger 0 d.fill;
      d.data <- bigger
    end

  let feed_string d s =
    ensure d (String.length s);
    Bytes.blit_string s 0 d.data d.fill (String.length s);
    d.fill <- d.fill + String.length s

  let next d =
    match d.poisoned with
    | Some e -> Error e
    | None ->
        if available d < 4 then Ok None
        else begin
          let b i = Bytes.get_uint8 d.data (d.start + i) in
          let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
          if len > max_frame then begin
            let e =
              Printf.sprintf "frame length %d exceeds max_frame %d (stream unrecoverable)" len
                max_frame
            in
            d.poisoned <- Some e;
            Error e
          end
          else if available d < 4 + len then Ok None
          else begin
            let payload = Bytes.sub_string d.data (d.start + 4) len in
            d.start <- d.start + 4 + len;
            compact d ~extra:0;
            Ok (Some payload)
          end
        end

  let buffered = available
end

(* The socket is read straight into the decoder's spare capacity, at least
   4 KiB of it: a read allocates nothing unless the decoder must grow. *)
let read fd (dec : Decoder.t) =
  let rec go () =
    match Decoder.next dec with
    | Error _ as e -> e
    | Ok (Some payload) -> Ok (Some payload)
    | Ok None -> (
        Decoder.ensure dec 4096;
        match Unix.read fd dec.data dec.fill (Bytes.length dec.data - dec.fill) with
        | 0 ->
            if Decoder.buffered dec > 0 then
              Error
                (Printf.sprintf "connection closed mid-frame (%d byte(s) of a partial frame)"
                   (Decoder.buffered dec))
            else Ok None
        | n ->
            dec.fill <- dec.fill + n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (e, _, _) -> Error ("read: " ^ Unix.error_message e))
  in
  go ()
