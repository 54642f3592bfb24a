(* Compact binary codec for {!Json_out.t} values — the payload encoding
   of [tlp.rpc/v2] frames. One tag byte per value:

     0 null   1 false   2 true
     3 int    (zigzag varint)
     4 float  (8 IEEE-754 bytes, big-endian; NaN allowed — it decodes
               back to NaN, mirroring Json_out rendering NaN as null)
     5 string (varint length + bytes)
     6 list   (varint count + values)
     7 object (varint count + (string key, value) pairs)

   Decoding is defensive: every read is bounds-checked, nesting depth is
   capped, and a claimed element count is checked against the remaining
   byte budget *before* anything is allocated — each element costs at
   least one tag byte, so [count > remaining] proves corruption without
   trusting the count. Malformed input yields [Error], never an
   exception and never an attacker-sized allocation. *)

type t = Json_out.t

let max_depth = 512

(* The list/object children are written by mutually recursive loops
   rather than [List.iter (write buf)]: the partial application and the
   field lambda were one closure allocation per aggregate node, on the
   frame-encoding hot path. *)
let rec write buf (v : Json_out.t) =
  match v with
  | Json_out.Null -> Bytebuf.add_u8 buf 0
  | Json_out.Bool false -> Bytebuf.add_u8 buf 1
  | Json_out.Bool true -> Bytebuf.add_u8 buf 2
  | Json_out.Int i ->
      Bytebuf.add_u8 buf 3;
      Bytebuf.add_zigzag buf i
  | Json_out.Ints a ->
      Bytebuf.add_u8 buf 6;
      Bytebuf.add_varint buf (Array.length a);
      for i = 0 to Array.length a - 1 do
        Bytebuf.add_u8 buf 3;
        Bytebuf.add_zigzag buf (Array.unsafe_get a i)
      done
  | Json_out.Float f ->
      Bytebuf.add_u8 buf 4;
      let bits = Int64.bits_of_float f in
      for shift = 7 downto 0 do
        Bytebuf.add_u8 buf
          (Int64.to_int (Int64.shift_right_logical bits (shift * 8)) land 0xff)
      done
  | Json_out.String s ->
      Bytebuf.add_u8 buf 5;
      Bytebuf.add_varint buf (String.length s);
      Bytebuf.add_string buf s
  | Json_out.List items ->
      Bytebuf.add_u8 buf 6;
      Bytebuf.add_varint buf (List.length items);
      write_items buf items
  | Json_out.Obj fields ->
      Bytebuf.add_u8 buf 7;
      Bytebuf.add_varint buf (List.length fields);
      write_fields buf fields

and write_items buf = function
  | [] -> ()
  | v :: rest ->
      write buf v;
      write_items buf rest

and write_fields buf = function
  | [] -> ()
  | (key, value) :: rest ->
      Bytebuf.add_varint buf (String.length key);
      Bytebuf.add_string buf key;
      write buf value;
      write_fields buf rest

let to_string v =
  let buf = Bytebuf.create 256 in
  write buf v;
  Bytebuf.contents buf

exception Bad of string

let read_value r =
  let module R = Bytebuf.Reader in
  let checked_count r what =
    let count = R.varint r in
    if count > R.remaining r then
      raise (Bad (Printf.sprintf "%s count %d exceeds remaining bytes" what count));
    count
  in
  let rec value r depth =
    if depth > max_depth then raise (Bad "nesting too deep");
    match R.u8 r with
    | 0 -> Json_out.Null
    | 1 -> Json_out.Bool false
    | 2 -> Json_out.Bool true
    | 3 -> Json_out.Int (R.zigzag r)
    | 4 ->
        let bits = ref 0L in
        for _ = 1 to 8 do
          bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (R.u8 r))
        done;
        Json_out.Float (Int64.float_of_bits !bits)
    | 5 -> Json_out.String (R.bytes r (R.varint r))
    | 6 ->
        let count = checked_count r "list" in
        Json_out.List (List.init count (fun _ -> value r (depth + 1)))
    | 7 ->
        let count = checked_count r "object" in
        Json_out.Obj
          (List.init count (fun _ ->
               let key = R.bytes r (R.varint r) in
               (key, value r (depth + 1))))
    | tag -> raise (Bad (Printf.sprintf "unknown tag %d" tag))
  in
  value r 0

let read r =
  match read_value r with
  | v -> Ok v
  | exception Bytebuf.Reader.Short -> Error "truncated value"
  | exception Bad msg -> Error msg

let of_string s =
  let module R = Bytebuf.Reader in
  let r = R.make (Bytes.unsafe_of_string s) ~pos:0 ~limit:(String.length s) in
  match read r with
  | Error _ as e -> e
  | Ok v -> if R.remaining r = 0 then Ok v else Error "trailing garbage"
