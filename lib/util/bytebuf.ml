(* Growable, never-shrinking byte buffer for allocation-lean I/O.

   [Buffer.t] would almost do, but it neither exposes its backing store
   (forcing a copy per use) nor lets a reader walk it in place. This
   buffer hands out the backing [Bytes.t] directly, so a pooled instance
   can absorb socket reads, be scanned for frames, compacted, and reused
   across the whole life of a connection with zero steady-state
   allocation once it has grown to the connection's working set. *)

type t = { mutable buf : Bytes.t; mutable len : int }

let create capacity = { buf = Bytes.create (max 16 capacity); len = 0 }
let length t = t.len
let clear t = t.len <- 0
let capacity t = Bytes.length t.buf
let unsafe_bytes t = t.buf

(* Module-level recursion for the doubling search, same idiom as
   [add_varint_loop]: a local ref or loop closure would allocate on
   exactly the path whose budget matters. *)
let rec grown_capacity cap need =
  if cap >= need then cap else grown_capacity (cap * 2) need

let grow t need =
  let buf' = Bytes.create (grown_capacity (max (Bytes.length t.buf) 16) need) in
  Bytes.blit t.buf 0 buf' 0 t.len;
  t.buf <- buf'

(* Inlined into every writer here, with growth out of line: the check
   is all that runs once the buffer has reached its working set. *)
let[@tlp.hot] [@inline] reserve t extra =
  let need = t.len + extra in
  if need > Bytes.length t.buf then grow t need

let[@tlp.hot] add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.buf t.len c;
  t.len <- t.len + 1

let[@tlp.hot] add_u8 t v = add_char t (Char.chr (v land 0xff))

let[@tlp.hot] add_string t s =
  let n = String.length s in
  reserve t n;
  Bytes.blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

let[@tlp.hot] add_subbytes t src pos len =
  reserve t len;
  Bytes.blit src pos t.buf t.len len;
  t.len <- t.len + len

(* Digits are written back-to-front into space reserved once, two at a
   time from a 00-99 table, so rendering an int costs zero allocation —
   the whole point versus [add_string (string_of_int v)] on
   digest-per-request hot paths. The width search multiplies instead
   of dividing. Both loops are module-level recursion over plain ints
   (same idiom as [add_varint_loop]); [min_int] has no positive
   negation, so that one value is delegated. *)
let digit_pairs =
  String.init 200 (fun i ->
      Char.unsafe_chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* 10^18 is the largest power of ten below [max_int] (19 digits). *)
let rec decimal_width v width pow =
  if v < pow then width
  else if width = 18 then 19
  else decimal_width v (width + 1) (pow * 10)

let rec write_digits_back buf last v =
  if v >= 100 then begin
    let q = v / 100 in
    let pair = 2 * (v - (q * 100)) in
    Bytes.unsafe_set buf last (String.unsafe_get digit_pairs (pair + 1));
    Bytes.unsafe_set buf (last - 1) (String.unsafe_get digit_pairs pair);
    write_digits_back buf (last - 2) q
  end
  else if v >= 10 then begin
    Bytes.unsafe_set buf last (String.unsafe_get digit_pairs ((2 * v) + 1));
    Bytes.unsafe_set buf (last - 1) (String.unsafe_get digit_pairs (2 * v))
  end
  else Bytes.unsafe_set buf last (Char.unsafe_chr (48 + v))

let[@inline] digits v =
  if v < 10 then 1 else if v < 100 then 2 else decimal_width v 3 1000

let[@inline] decimal_length v =
  if v = min_int then 20 else if v < 0 then 1 + digits (-v) else digits v

(* Values in [0, 99] — most weights — skip both digit-count branches,
   which mispredict on such data: the pair is written whole (the byte
   past a one-digit value lands in reserved slack beyond [len]) and
   [(v - 10) asr 8], over [-10, 89], is -1 exactly when [v < 10]. *)
let[@tlp.hot] add_decimal t v =
  if v >= 0 && v < 100 then begin
    reserve t 2;
    let width = 2 + ((v - 10) asr 8) in
    let start = t.len in
    Bytes.unsafe_set t.buf start
      (String.unsafe_get digit_pairs ((2 * v) + 2 - width));
    Bytes.unsafe_set t.buf (start + 1)
      (String.unsafe_get digit_pairs ((2 * v) + 1));
    t.len <- start + width
  end
  else if v = min_int then add_string t (string_of_int v)
  else begin
    let width = decimal_length v in
    reserve t width;
    let start = t.len in
    if v < 0 then Bytes.unsafe_set t.buf start '-';
    write_digits_back t.buf (start + width - 1) (abs v);
    t.len <- start + width
  end

(* One row of canonical instance text, [add_decimal] per element with
   the separators written in the same step. The loop lives here, not in
   its caller, because under [-opaque] every cross-module call stays an
   indirect call: per element that was an [add_decimal] and an
   [add_char] call, about half the instance digest's render time. Each
   int gets one [reserve] for its widest rendering plus the separator,
   which always lands right after the digits (overwriting the slack
   byte a one-digit value leaves); the last separator becomes the
   newline. *)
let[@tlp.hot] add_decimal_line t a =
  let n = Array.length a in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get a i in
    if v >= 0 && v < 100 then begin
      reserve t 3;
      let width = 2 + ((v - 10) asr 8) in
      let start = t.len in
      Bytes.unsafe_set t.buf start
        (String.unsafe_get digit_pairs ((2 * v) + 2 - width));
      Bytes.unsafe_set t.buf (start + 1)
        (String.unsafe_get digit_pairs ((2 * v) + 1));
      Bytes.unsafe_set t.buf (start + width) ' ';
      t.len <- start + width + 1
    end
    else begin
      add_decimal t v;
      add_char t ' '
    end
  done;
  if n = 0 then add_char t '\n'
  else Bytes.unsafe_set t.buf (t.len - 1) '\n'

let[@tlp.hot] add_u32_be t v =
  reserve t 4;
  Bytes.set_uint8 t.buf t.len ((v lsr 24) land 0xff);
  Bytes.set_uint8 t.buf (t.len + 1) ((v lsr 16) land 0xff);
  Bytes.set_uint8 t.buf (t.len + 2) ((v lsr 8) land 0xff);
  Bytes.set_uint8 t.buf (t.len + 3) (v land 0xff);
  t.len <- t.len + 4

let[@tlp.hot] patch_u32_be t ~pos v =
  if pos < 0 || pos + 4 > t.len then invalid_arg "Bytebuf.patch_u32_be";
  Bytes.set_uint8 t.buf pos ((v lsr 24) land 0xff);
  Bytes.set_uint8 t.buf (pos + 1) ((v lsr 16) land 0xff);
  Bytes.set_uint8 t.buf (pos + 2) ((v lsr 8) land 0xff);
  Bytes.set_uint8 t.buf (pos + 3) (v land 0xff)

(* Module-level recursion for the same reason as [Reader.varint_loop]:
   a local [let rec] would allocate a closure per varint written. *)
let[@tlp.hot] rec add_varint_loop t v =
  if v < 0x80 then add_u8 t v
  else begin
    add_u8 t (0x80 lor (v land 0x7f));
    add_varint_loop t (v lsr 7)
  end

let[@tlp.hot] add_varint t v =
  if v < 0 then invalid_arg "Bytebuf.add_varint: negative";
  add_varint_loop t v

let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag v = (v lsr 1) lxor (-(v land 1))
let[@tlp.hot] add_zigzag t v = add_varint t (zigzag v)
let unsafe_advance t n =
  if n < 0 || t.len + n > Bytes.length t.buf then
    invalid_arg "Bytebuf.unsafe_advance";
  t.len <- t.len + n

let contents t = Bytes.sub_string t.buf 0 t.len

let[@tlp.hot] shift_left t ~pos =
  if pos < 0 || pos > t.len then invalid_arg "Bytebuf.shift_left";
  let rest = t.len - pos in
  if pos > 0 && rest > 0 then Bytes.blit t.buf pos t.buf 0 rest;
  t.len <- rest

(* Bounds-checked reader over an externally owned byte range. Every
   accessor raises [Short] instead of reading past [limit]; decoding
   layers catch it once at the frame boundary. *)

module Reader = struct
  type r = { src : Bytes.t; mutable pos : int; limit : int }

  exception Short

  let make src ~pos ~limit =
    if pos < 0 || limit > Bytes.length src || pos > limit then
      invalid_arg "Bytebuf.Reader.make";
    { src; pos; limit }

  let pos r = r.pos
  let remaining r = r.limit - r.pos

  let[@tlp.hot] u8 r =
    if r.pos >= r.limit then raise Short;
    let v = Bytes.get_uint8 r.src r.pos in
    r.pos <- r.pos + 1;
    v

  let bytes r n =
    if n < 0 || r.limit - r.pos < n then raise Short;
    let s = Bytes.sub_string r.src r.pos n in
    r.pos <- r.pos + n;
    s

  (* 10 groups of 7 bits cover the 63-bit payload of an OCaml int; an
     11th continuation byte can only be an attack or corruption. The
     loop lives at module level so each call is a direct jump — a local
     [let rec] closes over [r] and costs a heap closure per varint,
     which at hundreds of varints per decoded instance dominated the
     whole decode path. *)
  let[@tlp.hot] rec varint_loop r acc shift count =
    if count > 10 then raise Short;
    let b = u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_loop r acc (shift + 7) (count + 1)

  (* Single-byte values (below 0x80) are most of every instance on the
     wire; [make] guarantees [limit <= Bytes.length src], so the byte
     under [pos < limit] is read unchecked. Everything else takes the
     loop, with its truncation, length and sign-bit checks. *)
  let[@tlp.hot] [@inline] varint r =
    let pos = r.pos in
    let b =
      if pos < r.limit then Char.code (Bytes.unsafe_get r.src pos) else 0x80
    in
    if b < 0x80 then begin
      r.pos <- pos + 1;
      b
    end
    else begin
      let v = varint_loop r 0 0 1 in
      if v < 0 then raise Short;
      v
    end

  let[@tlp.hot] zigzag r = unzigzag (varint r)

  (* Here rather than in the caller's loop so [varint] inlines: one
     cross-module call per array instead of one per element. *)
  let varint_array r n =
    let a = Array.make n 0 in
    for i = 0 to n - 1 do
      a.(i) <- varint r
    done;
    a
end
