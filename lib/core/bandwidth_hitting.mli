(** The paper's improved bandwidth-minimization algorithm
    (§2.3.1 / Appendix A): O(n + p log q) where [p] is the number of
    prime subpaths and [q] the average number of primes a non-redundant
    edge belongs to.

    The problem is cast as a minimum-weight hitting set over the prime
    subpaths (contiguous edge intervals).  Edges are processed left to
    right at the granularity of non-redundant groups; the TEMP_S
    double-ended structure keeps, for every currently open prime, the
    minimum W-value seen so far, with one row per run of primes sharing
    the same minimum.  The W column is sorted, so each update is a binary
    search over at most [q_i] rows plus O(1) amortized row edits. *)

type stats = {
  p : int;                (** prime subpaths *)
  r : int;                (** non-redundant edge groups *)
  q_mean : float;         (** paper's q = (Σ q_i) / r *)
  q_max : int;
  temps_mean_len : float; (** mean TEMP_S row count per processed group *)
  temps_max_len : int;
  search_steps : int;     (** total binary-search probes *)
}

type solution = {
  cut : Tlp_graph.Chain.cut;
  weight : int;
  stats : stats;
}

type search = Binary | Galloping
(** Row-lookup strategy inside TEMP_S.  [Binary] is the paper's
    algorithm.  [Galloping] implements the k-ary-search idea the paper
    leaves as future work (§2.3.2: W-values "have a tendency to grow
    towards end"): probe from the bottom of the queue in doubling steps,
    then finish with binary search on the bracketed range — O(log d)
    where d is the distance of the answer from the bottom, which the
    skew makes small. *)

(** Reusable solver scratch.  The solver's working state is a fixed set
    of O(n) int arrays (prime endpoints, per-prime optima and choice
    links, the TEMP_S rows as struct-of-arrays); a workspace owns one
    copy of each so repeated solves — in particular a K-sweep over one
    chain — allocate nothing beyond the returned cut.  A workspace must
    not be shared between concurrently running solves: give each domain
    its own. *)
module Workspace : sig
  type t

  val create : int -> t
  (** [create n] preallocates scratch for chains of up to [n] vertices.
      Solving a larger chain grows the workspace automatically. *)

  val ensure : t -> int -> unit
  (** [ensure t n] grows [t] to support chains of [n] vertices (no-op
      when already large enough).  Callers driving {!dp} directly must
      ensure the workspace before streaming groups into it. *)
end

val dp :
  ?metrics:Tlp_util.Metrics.t ->
  ?search:search ->
  Workspace.t ->
  p:int ->
  each_group:((rep:int -> beta_g:int -> c:int -> d:int -> unit) -> unit) ->
  solution
(** The TEMP_S dynamic program over an already-discovered prime set of
    size [p].  [each_group emit] must call
    [emit ~rep ~beta_g ~c ~d] once per non-redundant edge group in
    left-to-right order: [c]/[d] are the inclusive prime-index coverage
    of the group (both nondecreasing across calls), [rep] the group's
    leftmost cheapest member edge, [beta_g] that edge's weight.  {!solve}
    is [dp] fed by an edge-array sweep; the incremental session resolver
    feeds it from maintained prime state — one DP, so both paths return
    byte-identical solutions.  The workspace must have been
    {!Workspace.ensure}d for the underlying chain size; only the cost /
    choice / TEMP_S row arrays are used. *)

val solve :
  ?metrics:Tlp_util.Metrics.t ->
  ?search:search ->
  ?workspace:Workspace.t ->
  Tlp_graph.Chain.t ->
  k:int ->
  (solution, Infeasible.t) result
(** Minimum-weight cut leaving every component [<= k].  [Error] iff some
    single vertex exceeds [k].  Returns the empty cut when the whole
    chain fits.  [search] defaults to [Binary]; both strategies return
    identical solutions (property-tested), differing only in probe
    counts.  Without [workspace] a fresh one is allocated for the call. *)

val scan_primes :
  int array -> n:int -> k:int -> pa:int array -> pb:int array -> int
(** [scan_primes alpha ~n ~k ~pa ~pb] writes the prime subpaths of the
    vertex weights [alpha.(0 .. n-1)] at [k] into [pa]/[pb] (first and
    last edge of each, left to right) and returns their count.  The
    one monotone two-pointer behind {!solve}, {!prime_ranges} and the
    incremental resolver's full rescan; it allocates nothing.  [pa] and
    [pb] need room for [n] entries; no vertex may exceed [k]. *)

val prime_ranges :
  ?workspace:Workspace.t ->
  Tlp_graph.Chain.t ->
  k:int ->
  ((int * int) array, Infeasible.t) result
(** The prime subpaths the solver's zero-allocation two-pointer discovers
    at [k], as inclusive (first edge, last edge) ranges in left-to-right
    order.  Exposed so differential tests can check the workspace path
    against the reference {!Prime_subpaths.compute}. *)
