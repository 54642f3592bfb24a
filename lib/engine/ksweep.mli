(** Incremental K-sweep: solve one chain at many K values with shared
    scratch, so each additional K costs O(n + p) work and near-zero
    allocation.

    A sweep state owns the reusable workspaces of both solvers.  The
    chain's prefix sums are computed once (cached inside the deque
    workspace); every per-K pass is a monotone two-pointer over them —
    window lows for the deque DP, prime-subpath discovery for the
    hitting solver — writing into preallocated int buffers.  The only
    per-K allocations are the returned cut and entry.

    A sweep state is single-domain scratch; {!sweep_parallel} gives each
    worker its own. *)

type t

type algorithm = Deque | Hitting

type entry = {
  k : int;
  weight : int;  (** optimal cut weight at [k] *)
  cut : Tlp_graph.Chain.cut;
  stats : Tlp_core.Bandwidth_hitting.stats option;
      (** hitting-solver structure counts; [None] for {!Deque} *)
}

val create : Tlp_graph.Chain.t -> t
(** Allocate the sweep scratch (prefix sums, window buffers) for one
    chain. *)

val chain : t -> Tlp_graph.Chain.t
(** The chain this sweep state was created for. *)

val solve : ?metrics:Tlp_util.Metrics.t -> t -> algorithm:algorithm -> k:int ->
  (entry, Tlp_core.Infeasible.t) result
(** Solve at one K, reusing the sweep scratch. *)

val sweep :
  ?metrics:Tlp_util.Metrics.t ->
  t ->
  algorithm:algorithm ->
  int list ->
  (entry, Tlp_core.Infeasible.t) result list
(** [sweep t ~algorithm ks] solves at every K of [ks], deduplicated and
    sorted ascending; results are in that ascending-K order.  Infeasible
    Ks (some vertex heavier than K) yield [Error] entries without
    aborting the rest of the sweep. *)

val sweep_parallel :
  ?metrics:Tlp_util.Metrics.t ->
  ?pool:Pool.t ->
  ?jobs:int ->
  Tlp_graph.Chain.t ->
  algorithm:algorithm ->
  int list ->
  (entry, Tlp_core.Infeasible.t) result list
(** Same results as {!sweep} (tested identical), with the sorted Ks
    split into contiguous chunks, one sweep state per chunk, run across
    a domain pool.  Per-chunk metrics sinks are merged into [metrics] in
    K order after the workers join. *)

val sorted_ks : int list -> int list
(** The Ks a sweep solves, in the order of its results: deduplicated
    and ascending. *)

val algorithm_name : algorithm -> string
(** ["deque"] or ["hitting"], as the [sweep] results name it. *)

val entries_json :
  int list -> (entry, Tlp_core.Infeasible.t) result list -> Tlp_util.Json_out.t
(** [entries_json ks (sweep t ~algorithm ks)] renders the sweep's
    [entries] array: [{"k", "weight", "cut"}] plus the hitting stats
    ([primes], [groups], [q_mean]) for a solved K, [{"k", "infeasible"}]
    for an infeasible one.  The one rendering behind both the [sweep]
    RPC and [tlp_cli sweep]. *)

val decomposition :
  t -> k:int -> ((int * int) array, Tlp_core.Infeasible.t) result
(** Prime subpaths of the chain at [k] as inclusive (first edge, last
    edge) ranges, via the zero-allocation two-pointer over the sweep
    scratch.  Differentially testable against
    {!Tlp_core.Prime_subpaths.compute}. *)
