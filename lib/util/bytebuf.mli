(** Growable, never-shrinking byte buffer plus bounds-checked readers.

    The buffer exposes its backing [Bytes.t] so socket loops can read
    into it and frame decoders can scan it in place; once grown to a
    connection's working set it is reused with zero steady-state
    allocation. Writers append at the end; [shift_left] compacts
    consumed prefixes. Not thread-safe — one owner at a time. *)

type t

val create : int -> t
(** [create capacity] makes an empty buffer with at least [capacity]
    bytes of backing store (minimum 16). *)

val length : t -> int
(** Bytes currently held. *)

val capacity : t -> int
(** Current backing-store size; grows geometrically, never shrinks. *)

val clear : t -> unit
(** Drop the contents, keep the backing store. *)

val unsafe_bytes : t -> Bytes.t
(** The backing store itself (no copy). Only indices
    [0 .. length t - 1] hold data; the reference is invalidated by any
    write that grows the buffer. *)

val reserve : t -> int -> unit
(** [reserve t extra] ensures [extra] more bytes fit without growth. *)

val add_char : t -> char -> unit
val add_u8 : t -> int -> unit
val add_string : t -> string -> unit
val add_subbytes : t -> Bytes.t -> int -> int -> unit
val add_u32_be : t -> int -> unit

val add_decimal : t -> int -> unit
(** Append the decimal rendering of an int — the same bytes as
    [add_string t (string_of_int v)] without allocating the string. *)

val add_decimal_line : t -> int array -> unit
(** [add_decimal_line t a] appends the elements of [a] with
    {!add_decimal}, separated by single spaces, then a newline — the
    same bytes as that loop of [add_decimal] and [add_char] calls, a
    lone newline for an empty array.  Allocation-free like
    {!add_decimal}. *)

val decimal_length : int -> int
(** [decimal_length v] is the number of bytes {!add_decimal} writes for
    [v], i.e. [String.length (string_of_int v)]; lets a caller presize. *)

val patch_u32_be : t -> pos:int -> int -> unit
(** Overwrite 4 already-written bytes — used to back-fill a frame
    length once the payload size is known. *)

val add_varint : t -> int -> unit
(** Unsigned LEB128. Raises [Invalid_argument] on negative input. *)

val add_zigzag : t -> int -> unit
(** Signed value via zigzag mapping, then LEB128. *)

val zigzag : int -> int
val unzigzag : int -> int

val unsafe_advance : t -> int -> unit
(** [unsafe_advance t n] extends the length by [n] after external code
    (e.g. [Unix.read]) wrote into [unsafe_bytes t] at offset
    [length t]. The caller must have {!reserve}d the room first;
    raises [Invalid_argument] past the current capacity. *)

val contents : t -> string
(** Copy of the current contents. *)

val shift_left : t -> pos:int -> unit
(** [shift_left t ~pos] discards the first [pos] bytes, moving the
    remainder to the front. *)

(** Bounds-checked sequential reader over a byte range. All accessors
    raise [Short] rather than read past the limit, so a decoder can
    catch truncation once at the frame boundary. *)
module Reader : sig
  type r

  exception Short

  val make : Bytes.t -> pos:int -> limit:int -> r
  val pos : r -> int
  val remaining : r -> int
  val u8 : r -> int

  val bytes : r -> int -> string
  (** [bytes r n] reads exactly [n] bytes; raises [Short] if fewer
      remain (including when [n] is negative, i.e. a corrupt length). *)

  val varint : r -> int
  (** Unsigned LEB128; raises [Short] on truncation, on more than 10
      groups, and on overflow into the sign bit. *)

  val zigzag : r -> int

  val varint_array : r -> int -> int array
  (** [varint_array r n] reads [n] {!varint}s into a fresh array.  The
      caller bounds [n] first: the array is allocated before any
      element is read. *)
end
