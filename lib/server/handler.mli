(** Request dispatch: from a parsed {!Protocol.request} to rendered
    result bytes, through the result cache.

    The solver-facing entry points ({!partition_result},
    {!sweep_result}, {!verify_result}) are pure functions of the request
    — exactly the direct library calls a CLI user would make, with no
    server state in the signature.  The end-to-end loopback test uses
    them as the reference: a response served over TCP (cached or not)
    must carry byte-identical result JSON.

    Infeasibility (a vertex heavier than [K]) is a domain answer, not a
    protocol error: it renders as [{"infeasible": ...}] inside an
    [ok:true] response, matching the per-K entries of [sweep]. *)

val partition_result :
  ?metrics:Tlp_util.Metrics.t ->
  ?workspace:Tlp_core.Bandwidth_hitting.Workspace.t ->
  Tlp_graph.Instance_io.instance ->
  k:int ->
  algorithm:Protocol.partition_algorithm ->
  (Tlp_util.Json_out.t, Protocol.error) result
(** {!Tlp_engine.Partition.solve}, the dispatch [tlp_cli partition]
    also runs, mapped to the wire: an infeasible [k] is an
    [{"infeasible": ...}] document, and the one structurally unsolvable
    combination (bandwidth objective on a non-star tree — Theorem 1) is
    a [bad_request] [Error].
    [workspace] is reusable solver scratch for the chain-bandwidth
    path (ignored by the other solvers); the server checks one out of
    its {!Workspaces} pool per request. *)

val sweep_result :
  ?metrics:Tlp_util.Metrics.t ->
  Tlp_graph.Chain.t ->
  ks:int list ->
  algorithm:Tlp_engine.Ksweep.algorithm ->
  Tlp_util.Json_out.t
(** Incremental K-sweep over shared scratch; per-K infeasibilities are
    embedded as entries. *)

val verify_result : rounds:int -> seed:int -> Tlp_util.Json_out.t
(** Differential fuzz of the solvers against the exhaustive oracles on
    [rounds] random instances ([Tlp_baselines.Exhaustive.fuzz]).  Streams are derived from [seed] (not
    from the server's master RNG) so the response is a pure function of
    the request — admission order cannot leak into result bytes. *)

type payload =
  | Rendered of Cache.entry
      (** a cacheable result, rendered once for both protocols — the
          caller splices [entry.v1] into a v1 envelope or [entry.v2]
          into a v2 frame *)
  | Doc of Tlp_util.Json_out.t
      (** an uncached result tree; the caller renders it for whichever
          protocol the connection speaks *)

val solo_cluster_doc :
  host:string -> port:int -> unit -> Tlp_util.Json_out.t
(** The [cluster] document of a lone shard (PROTOCOL.md §8): a
    degenerate single-member ring — [ring_epoch] 0, no virtual nodes,
    one shard named ["self"] at [host:port].  The server passes this as
    {!handle}'s [cluster] thunk; a router substitutes its real ring. *)

val cache_key :
  ?scratch:Tlp_util.Bytebuf.t -> Protocol.request -> Cache.key option
(** The result-cache key of a [partition] or [sweep] request (canonical
    instance digest, K, objective, solver); [None] for other methods.
    The server builds it once per request, on the connection thread,
    with that connection's [scratch] for {!Protocol.instance_digest}. *)

val lookup : State.t -> Cache.key -> Cache.entry option
(** Probe the result cache under the {!State} lock, counting one hit or
    one miss. *)

val handle :
  state:State.t ->
  queue_depth:(unit -> int) ->
  cluster:(unit -> Tlp_util.Json_out.t) ->
  debug:bool ->
  metrics:Tlp_util.Metrics.t ->
  key:Cache.key option ->
  Protocol.request ->
  (payload, Protocol.error) result
(** Execute one request, returning the result {!payload}.  [cluster]
    is the [cluster] method's ring document, a thunk (see
    {!solo_cluster_doc}).  [partition] and [sweep] do no lookup: [key]
    is the {!cache_key} whose {!lookup} missed, and the result is
    stored under it ([None] stores nothing).  Solves run unlocked — two
    concurrent misses on one key may both compute, never block each
    other — the chain-bandwidth ones on a workspace from the {!State}'s
    {!Workspaces} pool.  [metrics] is the request's private sink.
    [debug] gates the [sleep] test method. *)
