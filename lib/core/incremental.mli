(** Incremental chain re-solving under point weight updates — the core
    of the streaming-repartitioning sessions (PROTOCOL.md section 9).

    A value of type {!t} owns a mutable copy of one chain's weights plus
    the index structures that make point updates cheap: a Fenwick tree
    over the vertex weights (prefix sums and lower bounds), a max
    segment tree (first vertex exceeding a bound, for O(log n)
    feasibility checks), and a min segment tree over the edge weights
    (group representatives: short ranges are scanned off its leaves,
    long ones queried bottom-up, so streaming the groups is linear and
    allocation-free).  Per bound K it caches the prime subpaths
    discovered at that K and repairs them under updates instead of
    rediscovering them from scratch.

    {b Repair.} An update at vertex [v] can only change the prime
    candidate of starts [l] with [weight(l..v-1) <= k] — a sum that
    excludes [alpha v] itself, so the dirty window [\[lo(v), v\]] is
    identical under old and new weights and everything outside the
    window union is provably untouched.  Repair recomputes the
    candidates inside the merged windows by Fenwick lower bounds and
    merges them with the kept primes in one dominance pass.  Groups are
    then streamed off the prime array by an open/close event sweep and
    fed into {!Bandwidth_hitting.dp} — the same DP the one-shot solver
    runs, which is what makes incremental and from-scratch answers
    byte-identical (property-tested over random delta streams).

    {b Fallback.} Both plans stream the same groups through the same
    DP, so [Auto] prices only the prime rebuild: when the repair's work
    (window span x log n, plus its merge pass over the p kept primes)
    reaches the O(n) rescan, or the update log wrapped past a state's
    position, [resolve] takes the full-rescan path instead; the
    returned {!mode} reports which plan ran.  Values are not
    thread-safe; callers serialize access (the session store holds one
    lock per session). *)

type t

type mode = Incremental | Full

type plan = Auto | Prefer_incremental | Force_full
(** Plan override for {!resolve}.  [Auto] (the default) repairs
    incrementally only when the cost model predicts it beats the O(n)
    rescan.  [Prefer_incremental] always repairs when the state is
    fresh enough (differential tests use it to exercise the repair path
    on small instances); [Force_full] always rescans.  The answer is
    identical under every plan — only the work differs. *)

type delta =
  | Vertex of int * int  (** [Vertex (i, d)]: add [d] to [alpha i] *)
  | Edge of int * int  (** [Edge (j, d)]: add [d] to [beta j] *)

val create : Tlp_graph.Chain.t -> t
(** Copies the chain's weights; the argument is not aliased. *)

val n : t -> int
val total_weight : t -> int

val component_weights : t -> Tlp_graph.Chain.cut -> int list
(** Same integers as [Chain.component_weights] on the materialized
    chain, computed from the Fenwick prefix sums in O(cut x log n). *)

val chain : t -> Tlp_graph.Chain.t
(** Materialize the current instance (O(n) copy) — the full-recompute
    and digest paths; the incremental path never calls it. *)

val apply : t -> delta list -> (unit, string) result
(** Apply a delta batch in order.  Every step must keep the touched
    weight positive and in range; on the first offender the applied
    prefix is rolled back and [Error] describes the rejected delta, so
    a batch is all-or-nothing. *)

val resolve :
  ?metrics:Tlp_util.Metrics.t ->
  ?plan:plan ->
  ?workspace:Bandwidth_hitting.Workspace.t ->
  t ->
  k:int ->
  (Bandwidth_hitting.solution * mode, Infeasible.t) result
(** Re-solve at bound [k].  [Error] names the first vertex exceeding
    [k], exactly as [Infeasible.check_chain] would.  The solution is
    byte-identical to [Bandwidth_hitting.solve] on the materialized
    chain (same cut, weight, and stats), whichever {!mode} ran. *)

module Min_tree : sig
  (** The edge-weight index behind group representatives, exposed for
      its differential test. *)

  type t

  val scan_max : int
  (** Ranges of at most this many edges are scanned directly. *)

  val create : int array -> t
  val set : t -> int -> int -> unit

  val leftmost_min : t -> int -> int -> int
  (** [leftmost_min t l r] is the smallest index of a minimum weight in
      the half-open range [\[l, r)], [l < r]; it does not allocate. *)
end

val prime_ranges :
  ?plan:plan -> t -> k:int -> ((int * int) array, Infeasible.t) result
(** The maintained prime subpaths at [k] (resolving first), for
    differential tests against {!Bandwidth_hitting.prime_ranges}. *)
