(** Linear (chain) task graphs.

    A chain has vertices [v_0 .. v_{n-1}] with positive computation weights
    [alpha] and edges [e_0 .. e_{n-2}] with positive communication weights
    [beta], where [e_i] joins [v_i] and [v_{i+1}].  This is the input of
    the paper's bandwidth-minimization problem (§2.3) and of the
    chain-onto-processors baselines.

    A {e cut} is a strictly increasing list of edge indices; removing those
    edges splits the chain into contiguous components. *)

type t = private {
  alpha : int array;  (** vertex weights, length [n >= 1], all positive *)
  beta : int array;   (** edge weights, length [n-1], all positive *)
}

val make : alpha:int array -> beta:int array -> t
(** Validates lengths and positivity.  Raises [Invalid_argument].
    Copies both arrays, so the caller may go on mutating its own. *)

val of_owned : alpha:int array -> beta:int array -> t
(** Same validation and the same [Invalid_argument] messages as
    {!make}, but takes ownership of both arrays instead of copying
    them: the caller must not mutate them afterwards.  For arrays the
    caller has just built, such as a decoded request. *)

val of_lists : int list -> int list -> t
(** [of_lists alphas betas]. *)

val n : t -> int
(** Number of vertices. *)

val n_edges : t -> int

val total_weight : t -> int
(** Sum of all vertex weights. *)

val max_alpha : t -> int

val prefix_sums : t -> int array
(** [prefix_sums c] has length [n+1]; element [i] is the sum of
    [alpha.(0..i-1)].  Segment [i..j] (inclusive, 0-based) weighs
    [prefix.(j+1) - prefix.(i)]. *)

val segment_weight : t -> int -> int -> int
(** [segment_weight c i j] = vertex weight of the inclusive vertex range
    [i..j].  Requires [0 <= i <= j < n]. *)

(** {1 Cuts} *)

type cut = int list
(** Strictly increasing edge indices in [\[0, n-2\]]. *)

val cut_weight : t -> cut -> int
(** Total beta weight of the cut edges. *)

val max_cut_edge : t -> cut -> int
(** Maximum beta weight of a cut edge; 0 on the empty cut. *)

val components : t -> cut -> (int * int) list
(** Inclusive vertex ranges of the components, left to right. *)

val assignment : t -> cut -> int array
(** Component index of every vertex: component [b] (counting from 0,
    left to right) holds the vertices of its inclusive range — the
    block-per-processor placement of the simulators and the DOT
    colouring. *)

val component_weights : t -> cut -> int list

val is_valid_cut : t -> cut -> bool
(** Indices strictly increasing and in range. *)

val is_feasible : t -> k:int -> cut -> bool
(** Every component weight is [<= k] (and the cut is valid). *)

val reverse : t -> t
(** The chain read right-to-left (weights mirrored); used by symmetry
    property tests. *)

val sub : t -> int -> int -> t
(** [sub c i j] is the chain restricted to vertices [i..j] inclusive. *)

val pp : Format.formatter -> t -> unit
