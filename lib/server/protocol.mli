(** Wire protocol of the partition service: [tlp.rpc/v1].

    Framing is newline-delimited JSON: each request is one complete
    JSON object on one line; each response is one JSON object on one
    line.  The full field-by-field specification, error-code catalogue,
    and worked transcripts live in [PROTOCOL.md]; this module is the
    single codec both the server and the tests go through, built on
    [Tlp_util.Json_out]'s strict parser/writer so emitted and accepted
    grammars cannot drift apart. *)

val schema : string
(** ["tlp.rpc/v1"], stamped on every response. *)

(** {1 Errors} *)

type error_code = Bad_request | Overloaded | Timeout | Internal | Unavailable

type error = { code : error_code; message : string }

val error_code_string : error_code -> string
(** ["bad_request"], ["overloaded"], ["timeout"], ["internal"],
    ["unavailable"]. *)

val bad_request : string -> error
val overloaded : string -> error
val timeout : string -> error
val internal : string -> error

val unavailable : string -> error
(** Routing-tier error (PROTOCOL.md §8): every replica of the request's
    shard failed, so the router answers structurally instead of
    hanging.  A lone [tlp_serve] never emits it. *)

(** {1 Requests} *)

type priority = Interactive | Batch
(** Admission class.  [Interactive] (the default) preempts [Batch] in
    the EDF admission queue's ordering, subject to the queue's
    anti-starvation aging bound; see [Admission]. *)

val priority_string : priority -> string
(** ["interactive"] / ["batch"], the wire spellings. *)

type partition_algorithm = Tlp_engine.Partition.objective =
  | Bandwidth
  | Bottleneck
  | Procmin
  | Pipeline
(** The partition objectives, re-exported from
    {!Tlp_engine.Partition}, whose dispatch the [partition] and
    [resolve] methods share with [tlp_cli partition]. *)

val partition_algorithm_string : partition_algorithm -> string
(** The wire name, from {!Tlp_engine.Partition.objectives}. *)

type request =
  | Partition of {
      instance : Tlp_graph.Instance_io.instance;
      k : int;
      algorithm : partition_algorithm;
    }
  | Sweep of {
      chain : Tlp_graph.Chain.t;
      ks : int list;
      algorithm : Tlp_engine.Ksweep.algorithm;
    }
  | Verify of { rounds : int; seed : int }
  | Stats
  | Health
  | Cluster
      (** Ring discovery (PROTOCOL.md §8): answered inline, like
          [Stats]/[Health].  A router returns its full consistent-hash
          ring; a lone shard returns a degenerate single-member ring
          with [ring_epoch] 0, so cluster-aware clients can bootstrap
          from any address. *)
  | Sleep of { ms : int }
      (** Debug-only (server must be started with [enable_debug]); makes
          backpressure and deadline tests deterministic. *)
  | Open of {
      instance : Tlp_graph.Instance_io.instance;
      session : string option;
    }
      (** Register a long-lived session holding the instance
          (PROTOCOL.md §9).  [session] lets the client pick a replayable
          name; omitted, the server generates one. *)
  | Update of { session : string; deltas : Tlp_core.Incremental.delta list }
      (** Apply one atomic batch of weight deltas to an open session,
          bumping its version (and thereby re-keying its cache
          entries). *)
  | Resolve of { session : string; k : int; algorithm : partition_algorithm }
      (** Partition the session's current instance.  The result document
          is byte-identical to a [partition] of the materialized
          instance; chain sessions under [Bandwidth] re-solve
          incrementally when profitable. *)

type frame = {
  id : Tlp_util.Json_out.t;
      (** Echoed verbatim in the response; [Null] when absent.  Must be
          a string, integer, or null. *)
  request : request;
  timeout_ms : int option;
      (** Per-request deadline override, milliseconds from admission.
          [Some 0] means "already expired": the server answers a
          structured [timeout] without queuing the request. *)
  priority : priority;
      (** Admission class from the optional [priority] field; defaults
          to [Interactive] when absent. *)
  trace : bool;
      (** [true] when the frame carried a true [trace] field: the
          server assigns a request id, spans the request's lifecycle,
          attaches a [trace] object to the success envelope, and
          records the request in the [stats]-reported slow ring.
          Defaults to [false], which leaves every emitted byte
          identical to a server without tracing. *)
}

val method_name : request -> string
(** The wire method, e.g. ["partition"] — used for stats counters. *)

val max_verify_rounds : int
(** Upper bound on [verify]'s [rounds] (10000) — shared by the v1
    parser and the v2 decoder so the two framings reject identically. *)

val max_sleep_ms : int
(** Upper bound on [sleep]'s [ms] (60000); same sharing rationale. *)

val parse_request :
  Tlp_util.Json_out.t -> (frame, Tlp_util.Json_out.t * error) result
(** Validate one request document (a parsed v1 line).  On error,
    returns the request [id] when it could be recovered from the
    malformed frame ([Null] otherwise) so the error response can still
    be correlated.  The v2 client encoder runs its arguments through
    this same function, so both framings accept and refuse the same
    requests with the same messages. *)

val parse_frame :
  string -> (frame, Tlp_util.Json_out.t * error) result
(** Parse one request line: {!parse_request} of its JSON, or a
    [bad_request] for text that is not JSON. *)

(** {1 Instances} *)

val canonical_instance : Tlp_graph.Instance_io.instance -> string
(** Canonical text of an instance ([Instance_io.to_string]): two
    requests with structurally equal instances canonicalize to the same
    bytes regardless of how the client spelled them. *)

val instance_digest :
  ?scratch:Tlp_util.Bytebuf.t -> Tlp_graph.Instance_io.instance -> string
(** Hex MD5 of {!canonical_instance} — the cache-key component.  The
    canonical text is rendered into [scratch] (cleared first) when
    given, else into a fresh buffer. *)

(** {1 Responses} *)

val render_ok : id:Tlp_util.Json_out.t -> result:string -> string
(** Response envelope around a {e pre-rendered} result value.  Taking
    the result as bytes (not a tree) is what lets a cache hit replay the
    stored rendering verbatim.  No trailing newline. *)

val render_ok_traced :
  id:Tlp_util.Json_out.t ->
  result:string ->
  trace:Tlp_util.Json_out.t ->
  string
(** {!render_ok} with a [trace] member appended after [result] — the
    result bytes are spliced unchanged, so a traced response differs
    from the untraced one only by the appended trace object. *)

val render_error : id:Tlp_util.Json_out.t -> error -> string
