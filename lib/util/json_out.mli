(** Minimal dependency-free JSON construction for metrics and benchmark
    output.

    Values are built as an explicit tree and rendered with proper string
    escaping, so every consumer (metrics sinks, the bench runner, the
    CLI) emits structurally valid JSON from the same code path. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Ints of int array
      (** An array of integers, rendered (by {!to_string} and
          [Binval.write]) byte for byte as the [List] of [Int] it stands
          for.  Only [parse ~int_arrays:true] produces it, for an
          all-integer array; the array is fresh and belongs to the
          caller, who may keep or mutate it. *)
  | Float of float  (** NaN renders as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val parse : ?int_arrays:bool -> string -> (t, string) result
(** Strict parse of a complete JSON document into {!t}: no leading
    zeros, no trailing garbage, no raw control characters in strings.
    String escapes are decoded, and a number lexeme becomes [Int] when
    it has no fraction/exponent and fits in [int], [Float] otherwise.
    Object key order is preserved.  [Error] carries a byte-offset
    diagnostic.

    With [~int_arrays:true] (default [false]) a non-empty array whose
    elements are all integers of at most 18 digits is returned as one
    [Ints] rather than a [List] of [Int]; an empty array, or one with
    any other element (a float, a string, a longer integer), is the
    same [List] as without the flag, and so is every error.  The
    [tlp.rpc/v1] request reader ([Protocol.parse_frame]) asks for it,
    so a long [alpha] or [weights] array costs one int array rather than
    a node and a cons cell per element; every other caller gets plain
    documents. *)

val validate : string -> (unit, string) result
(** [parse] with the document dropped: same grammar, same [Error]
    diagnostics.  Used by tests, the lint driver, and CI smoke checks to
    validate emitted files. *)

val is_valid : string -> bool
(** [is_valid s] is [Result.is_ok (validate s)]. *)
