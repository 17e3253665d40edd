type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let num_int i = Num (float_of_int i)

(* --------------------------- emission ------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fmt_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_nan x then "null" (* NaN has no JSON spelling *)
  else Printf.sprintf "%.17g" x

let to_string ?(indent = true) v =
  let b = Buffer.create 256 in
  let pad d = if indent then Buffer.add_string b (String.make (2 * d) ' ') in
  let nl () = if indent then Buffer.add_char b '\n' in
  let rec go d = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num x -> Buffer.add_string b (fmt_num x)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
        Buffer.add_char b '[';
        nl ();
        List.iteri
          (fun i x ->
            if i > 0 then begin Buffer.add_char b ','; nl () end;
            pad (d + 1);
            go (d + 1) x)
          xs;
        nl ();
        pad d;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
        Buffer.add_char b '{';
        nl ();
        List.iteri
          (fun i (k, x) ->
            if i > 0 then begin Buffer.add_char b ','; nl () end;
            pad (d + 1);
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b (if indent then "\": " else "\":");
            go (d + 1) x)
          kvs;
        nl ();
        pad d;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* ---------------------------- parsing ------------------------------- *)

exception Parse of int * string

(* The parser is a wire-format boundary (service requests arrive here
   straight off a socket), so malformed input must fail with a typed
   [Error], never leak an exception.  Recursion depth is the one resource a
   hostile document controls — ["[[[[..."] recurses once per byte — so
   nesting is capped well below any stack limit.  255 is far beyond any
   document we emit (certificates nest < 10 deep). *)
let max_depth = 255

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let at c = !pos < n && s.[!pos] = c in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let rec matches word i =
    i = String.length word || (s.[!pos + i] = word.[i] && matches word (i + 1))
  in
  let literal word v =
    if !pos + String.length word <= n && matches word 0 then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  (* After an escape the rest of the string is copied through a buffer;
     a string without one is cut out of [s] in one piece. *)
  let rec escaped b =
    if !pos >= n then fail "unterminated string"
    else
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e; escaped b
          | 'n' -> Buffer.add_char b '\n'; escaped b
          | 'r' -> Buffer.add_char b '\r'; escaped b
          | 't' -> Buffer.add_char b '\t'; escaped b
          | 'b' -> Buffer.add_char b '\b'; escaped b
          | 'f' -> Buffer.add_char b '\012'; escaped b
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
              in
              (* Our own emitter only escapes control bytes; decode the
                 BMP code point as UTF-8 for foreign input. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              escaped b
          | _ -> fail "bad escape")
      | c -> Buffer.add_char b c; escaped b
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do
      incr pos
    done;
    if !pos >= n then fail "unterminated string"
    else if s.[!pos] = '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let b = Buffer.create (!pos - start + 16) in
      Buffer.add_substring b s start (!pos - start);
      escaped b
    end
  in
  (* The value of the decimal digits s.[i .. stop), or -1 if another byte
     is among them. *)
  let rec digits i stop acc =
    if i = stop then acc
    else
      match s.[i] with
      | '0' .. '9' as c -> digits (i + 1) stop ((10 * acc) + Char.code c - 48)
      | _ -> -1
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && numchar s.[!pos] do incr pos done;
    if !pos = start then fail "expected number";
    (* [-]d+ with at most 15 digits is below 2^53, so its float is exact:
       read it in place.  Anything else goes to [float_of_string_opt]. *)
    let neg = s.[start] = '-' in
    let first = if neg then start + 1 else start in
    let v = if !pos > first && !pos - first <= 15 then digits first !pos 0 else -1 in
    if v >= 0 then if neg then -.float_of_int v else float_of_int v
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin incr pos; List [] end
        else
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            if at ',' then begin incr pos; items (v :: acc) end
            else if at ']' then begin incr pos; List (List.rev (v :: acc)) end
            else fail "expected ',' or ']'"
          in
          items []
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin incr pos; Obj [] end
        else
          let pair () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value (depth + 1))
          in
          let rec items acc =
            let kv = pair () in
            skip_ws ();
            if at ',' then begin incr pos; items (kv :: acc) end
            else if at '}' then begin incr pos; Obj (List.rev (kv :: acc)) end
            else fail "expected ',' or '}'"
          in
          items []
    | _ -> Num (parse_number ())
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse (at, msg) -> Error (Printf.sprintf "json: %s at byte %d" msg at)

(* --------------------------- accessors ------------------------------ *)

let kind = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

(* [List.assoc_opt] with string equality instead of polymorphic compare. *)
let rec assoc k = function
  | [] -> None
  | (k', v) :: rest ->
      if String.length k = String.length k' && String.equal k k' then Some v else assoc k rest

let member k = function
  | Obj kvs -> (
      match assoc k kvs with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing key %S" k))
  | v -> Error (Printf.sprintf "expected object with key %S, got %s" k (kind v))

let member_opt k = function Obj kvs -> assoc k kvs | _ -> None

let to_float = function Num x -> Ok x | v -> Error ("expected number, got " ^ kind v)

let to_int = function
  | Num x when Float.is_integer x && Float.abs x <= 2. ** 53. -> Ok (int_of_float x)
  | v -> Error ("expected integer, got " ^ kind v)

let to_bool = function Bool x -> Ok x | v -> Error ("expected bool, got " ^ kind v)
let to_str = function Str x -> Ok x | v -> Error ("expected string, got " ^ kind v)
let to_list = function List x -> Ok x | v -> Error ("expected array, got " ^ kind v)

let ( let* ) = Result.bind
