type party_id = int

let functionality_id = 0

type dest = To of party_id | Broadcast
type payload = string
type envelope = { src : party_id; dst : dest; payload : payload }

let pp_dest fmt = function
  | To p -> Format.fprintf fmt "->%d" p
  | Broadcast -> Format.pp_print_string fmt "->*"

let pp_envelope fmt e =
  Format.fprintf fmt "%d%a: %S" e.src pp_dest e.dst e.payload

(* Framing is on the per-message hot path, and protocol payloads can be
   large (a hex-encoded Lamport key is 32 KiB), so both directions avoid
   per-character buffer writes: a field with nothing to escape is returned
   {e as-is} (no copy at all — the common case, since hex and decimal
   fields never contain '|' or '\'), and the slow path copies in chunks
   between escapes rather than character by character.  The wire format is
   unchanged. *)

(* A top-level loop: no closure to allocate on every frame and tag read. *)
let rec needs_escape_from s i =
  i < String.length s && (match s.[i] with '\\' | '|' -> true | _ -> needs_escape_from s (i + 1))

let needs_escape s = needs_escape_from s 0

let escape s =
  if not (needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    let n = String.length s in
    (* [from] is the start of the pending unescaped run. *)
    let rec go from i =
      if i >= n then Buffer.add_substring buf s from (n - from)
      else
        match s.[i] with
        | '\\' ->
            Buffer.add_substring buf s from (i - from);
            Buffer.add_string buf "\\\\";
            go (i + 1) (i + 1)
        | '|' ->
            Buffer.add_substring buf s from (i - from);
            Buffer.add_string buf "\\p";
            go (i + 1) (i + 1)
        | _ -> go from (i + 1)
    in
    go 0 0;
    Buffer.contents buf
  end

let frame fields =
  if fields = [] then invalid_arg "Wire.frame: empty field list";
  String.concat "|" (List.map escape fields)

let unframe payload =
  if not (String.contains payload '\\') then String.split_on_char '|' payload
  else begin
    let fields = ref [] in
    let buf = Buffer.create 16 in
    let n = String.length payload in
    (* [from] is the start of the pending literal run (no escapes, no
       separators), flushed in one [add_substring] at each boundary. *)
    let rec go from i =
      if i >= n then begin
        Buffer.add_substring buf payload from (n - from);
        fields := Buffer.contents buf :: !fields
      end
      else
        match payload.[i] with
        | '|' ->
            Buffer.add_substring buf payload from (i - from);
            fields := Buffer.contents buf :: !fields;
            Buffer.clear buf;
            go (i + 1) (i + 1)
        | '\\' ->
            Buffer.add_substring buf payload from (i - from);
            if i + 1 >= n then invalid_arg "Wire.unframe: dangling escape";
            (match payload.[i + 1] with
            | '\\' -> Buffer.add_char buf '\\'
            | 'p' -> Buffer.add_char buf '|'
            | _ -> invalid_arg "Wire.unframe: bad escape");
            go (i + 2) (i + 2)
        | _ -> go from (i + 1)
    in
    go 0 0;
    List.rev !fields
  end

(* [tag] is a prefix of [payload] (checked from [i]); a top-level loop,
   so that it allocates no closure, unlike [String.starts_with]. *)
let rec has_prefix tag payload i =
  i = String.length tag || (payload.[i] = tag.[i] && has_prefix tag payload (i + 1))

(* The first '|' or '\' at or after [i], or the length. *)
let rec special s i =
  if i >= String.length s then i
  else match String.unsafe_get s i with '|' | '\\' -> i | _ -> special s (i + 1)

(* Unescape [payload] from [i] into [b] from [j], copying each run between
   escapes whole; [None] at a raw '|' or a bad or dangling escape. *)
let rec unescape_rest payload i b j =
  let n = String.length payload in
  let e = special payload i in
  Bytes.blit_string payload i b j (e - i);
  let j = j + (e - i) in
  if e = n then Some (if j = Bytes.length b then Bytes.unsafe_to_string b else Bytes.sub_string b 0 j)
  else if payload.[e] = '\\' && e + 1 < n && (payload.[e + 1] = '\\' || payload.[e + 1] = 'p') then begin
    Bytes.unsafe_set b j (if payload.[e + 1] = 'p' then '|' else '\\');
    unescape_rest payload (e + 2) b (j + 1)
  end
  else None

(* A reader that wants one tag scans in place: a payload whose first field
   is not [tag] costs a prefix compare and allocates nothing.  For a tag
   with nothing to escape, the first field is [tag] exactly when the raw
   payload starts with [tag ^ "|"]: an escape in the raw first field would
   put a '|' or '\' into the field.  The rest must then be one well-formed
   field, as [unframe] reads it: no raw '|' (a third field) and every '\'
   followed by '\' or 'p'.  One pass checks and unescapes it, jumping from
   one '|' or '\' to the next, since a body can be a 48 KiB signed value
   with three escapes. *)
let tagged ~tag payload =
  if needs_escape tag then
    match unframe payload with
    | [ t; body ] when String.equal t tag -> Some body
    | _ | (exception Invalid_argument _) -> None
  else
    let k = String.length tag and n = String.length payload in
    if n <= k || payload.[k] <> '|' || not (has_prefix tag payload 0) then None
    else unescape_rest payload (k + 1) (Bytes.create (n - k - 1)) 0
