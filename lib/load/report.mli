(** [tlp.load/v1] benchmark reports.

    One {!Runner.result} renders to one JSON document
    ([BENCH_load.json]): config echo, replay digest, outcome counts,
    and latency quantiles overall and per method.  The schema is
    documented in [EXPERIMENTS.md] §Benchmark artifacts; {!render}
    output always passes [Tlp_util.Json_out.validate] (and {!write}
    asserts so before touching the file). *)

val schema : string
(** ["tlp.load/v1"]. *)

val to_json : Runner.result -> Tlp_util.Json_out.t
(** The full report tree.  Cluster runs ([result.per_shard] non-empty)
    additionally carry a [shards] array with per-member
    [throughput_rps] and latency quantiles (EXPERIMENTS.md §Cluster). *)

val render : Runner.result -> string
(** Compact one-line JSON with a trailing newline. *)

val write : path:string -> Runner.result -> unit
(** Validate {!render} output and write it to [path].  Raises
    [Invalid_argument] if the rendering fails validation (which would
    indicate a bug in this module, not in the run). *)

val summary : Runner.result -> string
(** Human-readable multi-line digest for the CLI: digest, throughput,
    outcome counts, latency quantiles per method. *)
