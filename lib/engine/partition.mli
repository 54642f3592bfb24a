(** The one partition dispatch: (instance kind x objective) -> solver ->
    result document.  The [partition] RPC ([Handler.partition_result])
    and [tlp_cli partition] both call {!solve}, so the server's result
    and the CLI's output are the same document by construction.  Each
    caller maps the two non-answers itself: the server as an
    [{"infeasible": ...}] document and a [bad_request], the CLI as
    [error: ...] and exit status 1. *)

type objective = Bandwidth | Bottleneck | Procmin | Pipeline

val objective_name : objective -> string
(** ["bandwidth"], ["bottleneck"], ["procmin"] or ["pipeline"]: the one
    place the names are written. *)

val objectives : (string * objective) list
(** Every objective with its name, in that order: the table behind the
    v1 [algorithm] field, its error message and the CLI's
    [--algorithm]. *)

type outcome =
  | Solved of { cut : int list; doc : Tlp_util.Json_out.t }
  | Infeasible of Tlp_core.Infeasible.t  (** a vertex heavier than [k] *)
  | Unsupported of string
      (** bandwidth on a tree that is not a star: NP-complete
          (Theorem 1), so there is no exact solver *)

val solve :
  ?metrics:Tlp_util.Metrics.t ->
  ?workspace:Tlp_core.Bandwidth_hitting.Workspace.t ->
  Tlp_graph.Instance_io.instance ->
  k:int ->
  objective:objective ->
  outcome
(** Chain: TEMP_S for [Bandwidth], {!Tlp_core.Chain_bottleneck}, and the
    tree pipeline for [Procmin] and [Pipeline].  Tree: Algorithm 2.1,
    Algorithm 2.2, {!Tlp_core.Tree_pipeline}, and the knapsack reduction
    for a star's [Bandwidth].  The document starts with [algorithm], [k]
    and [cut].  [workspace] is scratch for the chain-bandwidth solver. *)

val bandwidth_chain_doc :
  k:int ->
  component_weights:int list ->
  Tlp_core.Bandwidth_hitting.solution ->
  Tlp_util.Json_out.t
(** The chain-bandwidth document, shared with the session [resolve]
    path so both emit the same bytes for one solution.
    [component_weights] is passed in because the callers derive it from
    different sources (the chain, or an incremental state's prefix
    sums). *)
