type t =
  | Null
  | Bool of bool
  | Int of int
  | Ints of int array
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Keys and most string values need no escaping and are copied into the
   output whole; the others are escaped a byte at a time straight into
   the output, with no intermediate buffer. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20
let hex_digits = "0123456789abcdef"

let add_escaped buf s =
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Bytebuf.add_string buf "\\\""
    | '\\' -> Bytebuf.add_string buf "\\\\"
    | '\n' -> Bytebuf.add_string buf "\\n"
    | '\r' -> Bytebuf.add_string buf "\\r"
    | '\t' -> Bytebuf.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
        Bytebuf.add_string buf "\\u00";
        Bytebuf.add_char buf (String.unsafe_get hex_digits (Char.code c lsr 4));
        Bytebuf.add_char buf
          (String.unsafe_get hex_digits (Char.code c land 0xf))
    | c -> Bytebuf.add_char buf c
  done

let float_literal f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* Rendered into a [Bytebuf] so integers go through its allocation-free
   [add_decimal] rather than [string_of_int]: every cache miss and
   session resolve renders a result with thousands of them. List and
   object children are walked by module-level recursion, as in
   [Binval.write], instead of one [List.iteri] closure per node. *)
let add_quoted buf s =
  Bytebuf.add_char buf '"';
  if String.exists needs_escape s then add_escaped buf s
  else Bytebuf.add_string buf s;
  Bytebuf.add_char buf '"'

let rec write buf = function
  | Null -> Bytebuf.add_string buf "null"
  | Bool b -> Bytebuf.add_string buf (if b then "true" else "false")
  | Int i -> Bytebuf.add_decimal buf i
  | Ints a ->
      Bytebuf.add_char buf '[';
      for i = 0 to Array.length a - 1 do
        if i > 0 then Bytebuf.add_char buf ',';
        Bytebuf.add_decimal buf (Array.unsafe_get a i)
      done;
      Bytebuf.add_char buf ']'
  | Float f -> Bytebuf.add_string buf (float_literal f)
  | String s -> add_quoted buf s
  | List items ->
      Bytebuf.add_char buf '[';
      write_items buf items;
      Bytebuf.add_char buf ']'
  | Obj fields ->
      Bytebuf.add_char buf '{';
      write_fields buf fields;
      Bytebuf.add_char buf '}'

and write_items buf = function
  | [] -> ()
  | v :: rest ->
      write buf v;
      (match rest with [] -> () | _ :: _ -> Bytebuf.add_char buf ',');
      write_items buf rest

and write_fields buf = function
  | [] -> ()
  | (k, v) :: rest ->
      add_quoted buf k;
      Bytebuf.add_char buf ':';
      write buf v;
      (match rest with [] -> () | _ :: _ -> Bytebuf.add_char buf ',');
      write_fields buf rest

let to_string v =
  let buf = Bytebuf.create 256 in
  write buf v;
  Bytebuf.contents buf

(* ---------- parsing ----------

   One strict scanner serves [parse] and [validate], so "validates" and
   "parses" can never disagree; the server's v1 wire protocol
   (lib/server) parses request frames with it.  Scanning allocates
   nothing per byte: a peek is the byte's code ([eof] past the end), an
   integer of up to 18 digits is accumulated in place, an escape-free
   string is one [String.sub], and arrays and objects are built front
   to back (tail modulo cons) instead of reversed.  Only a fraction, an
   exponent or a 19th digit sends a number through its lexeme.

   With [int_arrays], an array whose elements are all such integers is
   read by [read_ints] into the scanner's growable [ibuf] and returned
   as one [Ints].  At the first element that is anything else the
   scanner rewinds to that element and finishes the array on the
   generic path, so the grammar, the values and every error offset are
   the generic path's. *)

type scanner = {
  text : string;
  len : int;
  mutable pos : int;
  int_arrays : bool;
  mutable ibuf : int array;
}

exception Bad of string

let eof = -1

(* Byte codes the scanner dispatches on. *)
let quote = Char.code '"'
let backslash = Char.code '\\'
let comma = Char.code ','
let minus = Char.code '-'
let dot = Char.code '.'
let zero = Char.code '0'
let nine = Char.code '9'
let lbracket = Char.code '['
let rbracket = Char.code ']'
let lbrace = Char.code '{'
let rbrace = Char.code '}'

let bad s msg = raise (Bad (Printf.sprintf "offset %d: %s" s.pos msg))

let[@inline] peek s =
  if s.pos < s.len then Char.code (String.unsafe_get s.text s.pos) else eof

let[@inline] advance s = s.pos <- s.pos + 1
let[@inline] is_digit c = c >= zero && c <= nine
let[@inline] is_exponent c = c = Char.code 'e' || c = Char.code 'E'

let rec skip_ws s =
  let c = peek s in
  if c = 0x20 || c = 0x09 || c = 0x0a || c = 0x0d then begin
    advance s;
    skip_ws s
  end

let expect s c =
  if peek s = Char.code c then advance s
  else bad s (Printf.sprintf "expected '%c'" c)

let rec matches s lit i =
  i = String.length lit
  || String.unsafe_get s.text (s.pos + i) = String.unsafe_get lit i
     && matches s lit (i + 1)

let literal s lit v =
  let l = String.length lit in
  if s.pos + l <= s.len && matches s lit 0 then begin
    s.pos <- s.pos + l;
    v
  end
  else bad s ("expected literal " ^ lit)

let hex_digit s =
  let c = peek s in
  let v =
    if is_digit c then c - zero
    else if c >= Char.code 'a' && c <= Char.code 'f' then c - Char.code 'a' + 10
    else if c >= Char.code 'A' && c <= Char.code 'F' then c - Char.code 'A' + 10
    else bad s "bad \\u escape"
  in
  advance s;
  v

let hex4 s =
  let a = hex_digit s in
  let b = hex_digit s in
  let c = hex_digit s in
  let d = hex_digit s in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

(* Encode a code point as UTF-8; lone surrogates are encoded as-is
   (WTF-8) so any escape the grammar accepts also decodes. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* The remainder of a string from its first escape (or from the byte
   that ends the escape-free prefix), decoded into [buf]. *)
let rec escaped s buf =
  let c = peek s in
  if c = eof then bad s "unterminated string"
  else if c = quote then advance s
  else if c = backslash then begin
    advance s;
    let e = peek s in
    advance s;
    (* [eof] reads as NUL, which no escape accepts. *)
    (match Char.unsafe_chr (max e 0) with
    | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'u' ->
        let cp = hex4 s in
        (* Combine a high+low surrogate pair when both are present. *)
        if
          cp >= 0xD800 && cp <= 0xDBFF
          && s.pos + 1 < s.len
          && String.unsafe_get s.text s.pos = '\\'
          && String.unsafe_get s.text (s.pos + 1) = 'u'
        then begin
          let saved = s.pos in
          s.pos <- s.pos + 2;
          let lo = hex4 s in
          if lo >= 0xDC00 && lo <= 0xDFFF then
            add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
          else begin
            s.pos <- saved;
            add_utf8 buf cp
          end
        end
        else add_utf8 buf cp
    | _ ->
        s.pos <- s.pos - 1;
        bad s "bad escape sequence");
    escaped s buf
  end
  else if c < 0x20 then bad s "control char in string"
  else begin
    Buffer.add_char buf (Char.unsafe_chr c);
    advance s;
    escaped s buf
  end

let rec plain_end s i =
  if i >= s.len then i
  else
    let c = Char.code (String.unsafe_get s.text i) in
    if c = quote || c = backslash || c < 0x20 then i else plain_end s (i + 1)

let string_body s =
  expect s '"';
  let start = s.pos in
  let stop = plain_end s start in
  s.pos <- stop;
  if peek s = quote then begin
    advance s;
    String.sub s.text start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf s.text start (stop - start);
    escaped s buf;
    Buffer.contents buf
  end

(* Digits from [s.pos] folded into [acc]; past 18 digits the sum wraps,
   so callers count the digits before trusting it. *)
let rec digits_value s acc =
  let c = peek s in
  if is_digit c then begin
    advance s;
    digits_value s ((acc * 10) + (c - zero))
  end
  else acc

(* [no_int] can never be a short integer: 18 digits stay below 10^18,
   far from [min_int]. *)
let no_int = min_int

(* An integer of at most 18 digits, no leading zero, and no fraction or
   exponent after it; [no_int] (with [s.pos] anywhere) for every other
   lexeme, which the caller rescans on the generic path. *)
let short_int s =
  let neg = peek s = minus in
  if neg then advance s;
  let first = peek s in
  if not (is_digit first) then no_int
  else begin
    let start = s.pos in
    let mag = digits_value s 0 in
    let width = s.pos - start in
    let c = peek s in
    if width > 18 || (first = zero && width > 1) || c = dot || is_exponent c
    then no_int
    else if neg then -mag
    else mag
  end

let digits s =
  if not (is_digit (peek s)) then bad s "expected digits";
  ignore (digits_value s 0)

(* The lexeme path: fractions, exponents, more than 18 digits, and the
   exact error of every malformed number. *)
let lexeme_number s =
  let start = s.pos in
  if peek s = minus then advance s;
  (* The integer part is a single 0 or starts with a nonzero digit;
     "01" is not JSON. *)
  let c = peek s in
  if c = zero then begin
    advance s;
    if is_digit (peek s) then bad s "leading zero"
  end
  else if is_digit c then digits s
  else bad s "expected number";
  let is_float = peek s = dot || is_exponent (peek s) in
  if peek s = dot then begin
    advance s;
    digits s
  end;
  if is_exponent (peek s) then begin
    advance s;
    let c = peek s in
    if c = Char.code '+' || c = minus then advance s;
    digits s
  end;
  let lexeme = String.sub s.text start (s.pos - start) in
  if is_float then Float (float_of_string lexeme)
  else
    match int_of_string_opt lexeme with
    | Some i -> Int i
    | None -> Float (float_of_string lexeme)

let number s =
  let start = s.pos in
  let v = short_int s in
  if v <> no_int then Int v
  else begin
    s.pos <- start;
    lexeme_number s
  end

let grow_ints s =
  let bigger = Array.make (max 64 (2 * Array.length s.ibuf)) 0 in
  Array.blit s.ibuf 0 bigger 0 (Array.length s.ibuf);
  s.ibuf <- bigger

(* The integer-array read loop: element [k] onward, up to and past the
   closing ']'.  Returns the element count, or [-k-1] with [s.pos] back
   at element [k] when that element is not a short integer or is not
   followed by ',' or ']'; the generic path then takes over from there
   and reports any error at the same offset. *)
let[@tlp.hot] rec read_ints s k =
  skip_ws s;
  let start = s.pos in
  let v = short_int s in
  if v = no_int then begin
    s.pos <- start;
    -k - 1
  end
  else begin
    skip_ws s;
    let c = peek s in
    if c = comma || c = rbracket then begin
      if k = Array.length s.ibuf then grow_ints s;
      Array.unsafe_set s.ibuf k v;
      advance s;
      if c = comma then read_ints s (k + 1) else k + 1
    end
    else begin
      s.pos <- start;
      -k - 1
    end
  end

let rec value s =
  skip_ws s;
  let c = peek s in
  let v =
    if c = lbrace then begin
      advance s;
      skip_ws s;
      if peek s = rbrace then begin
        advance s;
        Obj []
      end
      else Obj (fields s)
    end
    else if c = lbracket then begin
      advance s;
      skip_ws s;
      if peek s = rbracket then begin
        advance s;
        List []
      end
      else if s.int_arrays then int_array s
      else List (items s)
    end
    else if c = quote then String (string_body s)
    else if c = Char.code 't' then literal s "true" (Bool true)
    else if c = Char.code 'f' then literal s "false" (Bool false)
    else if c = Char.code 'n' then literal s "null" Null
    else if c = minus || is_digit c then number s
    else bad s "expected a JSON value"
  in
  skip_ws s;
  v

and[@tail_mod_cons] fields s =
  skip_ws s;
  let key = string_body s in
  skip_ws s;
  expect s ':';
  let v = value s in
  skip_ws s;
  let c = peek s in
  if c = comma then begin
    advance s;
    (key, v) :: fields s
  end
  else if c = rbrace then begin
    advance s;
    [ (key, v) ]
  end
  else (bad [@tailcall false]) s "expected ',' or '}'"

and[@tail_mod_cons] items s =
  let v = value s in
  skip_ws s;
  let c = peek s in
  if c = comma then begin
    advance s;
    v :: items s
  end
  else if c = rbracket then begin
    advance s;
    [ v ]
  end
  else (bad [@tailcall false]) s "expected ',' or ']'"

and int_array s =
  let k = read_ints s 0 in
  if k >= 0 then Ints (Array.sub s.ibuf 0 k) else List (int_prefix s 0 (-k - 1))

(* The integers read before the fallback element, then the rest of the
   array.  Each is read out of [ibuf] before [items] can reuse it for a
   nested array. *)
and[@tail_mod_cons] int_prefix s i k =
  if i = k then items s
  else
    let v = Int (Array.unsafe_get s.ibuf i) in
    v :: int_prefix s (i + 1) k

let parse ?(int_arrays = false) text =
  let s =
    { text; len = String.length text; pos = 0; int_arrays; ibuf = [||] }
  in
  match value s with
  | v ->
      if s.pos = s.len then Ok v
      else Error (Printf.sprintf "offset %d: trailing garbage" s.pos)
  | exception Bad msg -> Error msg

(* The document is dropped, so its integer arrays need not be nodes. *)
let validate text = Result.map ignore (parse ~int_arrays:true text)
let is_valid text = Result.is_ok (validate text)
