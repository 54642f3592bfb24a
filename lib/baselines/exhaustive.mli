(** Brute-force exact solvers by cut enumeration.

    Exponential in the edge count — these exist solely as oracles for the
    property-based tests of every polynomial algorithm in [tlp_core].
    All functions raise [Invalid_argument] above {!max_edges} edges. *)

val max_edges : int
(** Hard limit (20) on enumerable edge counts. *)

(** {1 Chains} *)

val chain_min_bandwidth :
  ?metrics:Tlp_util.Metrics.t ->
  Tlp_graph.Chain.t -> k:int -> (Tlp_graph.Chain.cut * int) option
(** Minimum-weight feasible cut and its weight; [None] when infeasible. *)

val chain_min_bottleneck :
  ?metrics:Tlp_util.Metrics.t ->
  Tlp_graph.Chain.t -> k:int -> (Tlp_graph.Chain.cut * int) option
(** Feasible cut minimizing the maximum cut-edge weight. *)

val chain_min_cardinality :
  ?metrics:Tlp_util.Metrics.t ->
  Tlp_graph.Chain.t -> k:int -> (Tlp_graph.Chain.cut * int) option
(** Feasible cut of minimum size; returns the cut and its size. *)

(** {1 Trees} *)

val tree_min_bandwidth :
  ?metrics:Tlp_util.Metrics.t ->
  Tlp_graph.Tree.t -> k:int -> (Tlp_graph.Tree.cut * int) option

val tree_min_bottleneck :
  ?metrics:Tlp_util.Metrics.t ->
  Tlp_graph.Tree.t -> k:int -> (Tlp_graph.Tree.cut * int) option

val tree_min_cardinality :
  ?metrics:Tlp_util.Metrics.t ->
  Tlp_graph.Tree.t -> k:int -> (Tlp_graph.Tree.cut * int) option

(** {1 Differential fuzz} *)

val fuzz : Tlp_util.Rng.t -> rounds:int -> int * string list
(** [fuzz rng ~rounds] draws [rounds] random instances of up to 12
    vertices and checks every solver against its oracle above: the four
    chain bandwidth solvers ([Bandwidth.deque], [Bandwidth.heap],
    [Bandwidth_hitting], [Bandwidth_primes_naive]) against
    {!chain_min_bandwidth}, [Bottleneck.fast] against
    {!tree_min_bottleneck} and [Proc_min] against
    {!tree_min_cardinality}.  Returns the instance count and one
    message per mismatch, in draw order.  Deterministic in [rng]'s
    state; the [verify] RPC and [tlp_cli verify] both run it. *)
