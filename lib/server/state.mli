(** Shared mutable state of a running server, behind one mutex.

    {b Design note (tlp-lint R1).}  The server is the one place in the
    tree where mutable state is genuinely shared across domains: worker
    domains execute queued requests while connection threads on the
    main domain answer cache hits and the control plane, and both sides
    touch the result cache and the stats counters.  Rather than scatter
    that state over module-toplevel refs (which R1 forbids, and which
    would be invisible at call sites), every mutable piece lives in this
    record, created per-server by {!create} and accessed {e only}
    through {!with_lock} — one lock, coarse-grained on purpose: every
    critical section is a few hashtable probes or counter bumps,
    microseconds against the milliseconds of a solve, so contention is
    negligible and the single-lock discipline is trivially
    deadlock-free.

    Determinism (PR 2's byte-identical contract) survives concurrency
    because nothing behind this lock feeds the solvers: requests carry
    their own seeds, per-request metrics sinks are {!Metrics.merge}d
    here only after the solve completes, and the cache stores rendered
    result bytes keyed by canonical instance digest — replaying a hit is
    byte-identical to re-solving by construction. *)

type t

type trace_entry = {
  request_id : int;  (** server-assigned serial from {!record_request} *)
  client_id : Tlp_util.Json_out.t;  (** the frame's [id], echoed *)
  meth : string;  (** wire method *)
  ok : bool;  (** whether the response was [ok:true] *)
  accept_ms : float;  (** parse + admission, read to queue push *)
  queue_ms : float;  (** waiting in the admission queue *)
  solve_ms : float;  (** handler execution (dispatch to result bytes) *)
  mutable render_ms : float;  (** envelope construction *)
  mutable write_ms : float;  (** socket write of the response line *)
  mutable total_ms : float;  (** read to write, end to end *)
}
(** One traced request's span log — the full
    accept [->] queue [->] dispatch [->] solve [->] render [->] write
    lifecycle.  Only requests that asked [trace:true] are recorded,
    before their reply is written; the last three fields are [0.0] or
    end at the solve until the server sets them after the write. *)

val slow_ring_capacity : int
(** Ring bound: the [stats] response reports at most this many recent
    traced requests (16). *)

val create :
  cache_capacity:int ->
  queue_capacity:int ->
  session_ttl_s:float ->
  unit ->
  t
(** Fresh state.  [queue_capacity] is recorded for [stats] reporting.
    [session_ttl_s] is the idle-eviction threshold of the session store
    ([<= 0.0] disables eviction). *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run a critical section under the state mutex (released on raise).
    Do not solve, sleep, or block inside. *)

(** All accessors below must be called under {!with_lock} unless noted. *)

val cache : t -> Cache.t

val workspaces : t -> Workspaces.t
(** Pooled solver scratch.  The pool carries its own mutex, so checkout
    does {e not} require {!with_lock} — solves must never run under the
    state lock. *)

val sessions : t -> Tlp_session.Session.t
(** Open partitioning sessions (PROTOCOL.md §9).  The store carries its
    own mutex; never touch it under {!with_lock} — session locks are
    acquired {e before} the state lock on the resolve path. *)

val metrics : t -> Tlp_util.Metrics.t
val started_at : t -> float
(** [Timer.now] at creation (immutable; safe without the lock). *)

val queue_capacity : t -> int
(** Immutable; safe without the lock. *)

val record_request : t -> meth:string -> int
(** Count one parsed request under its wire method and return the
    server-assigned request id (a serial starting at 1).  The serial
    advances for every request, traced or not, so ids are stable
    whether or not the client asks for tracing. *)

val record_error : t -> code:string -> unit
(** Count one error response under its wire code. *)

val record_trace : t -> trace_entry -> unit
(** Append a traced request to the slow ring, evicting the oldest entry
    beyond {!slow_ring_capacity}. *)

val merge_request_metrics : t -> Tlp_util.Metrics.t -> unit
(** Fold a completed request's private sink into the server sink. *)

type overrun_stat = { count : int; total_ns : float; max_ns : float }
(** Per-method tally of requests that finished past their deadline:
    how many, and the total and worst overrun in nanoseconds (the
    ProbTime convention — overrun is reported as ns past deadline). *)

val observe_service : t -> meth:string -> ns:float -> unit
(** Feed one completed request's service time into the per-method
    {!Estimator} consulted by admission-time shedding. *)

val predict_service_ns : t -> meth:string -> float
(** Estimated service time for [meth]; [0.0] until a request of that
    method has completed (a cold server never sheds on a guess). *)

val record_overrun : t -> meth:string -> ns:float -> unit
(** Tally one deadline overrun of [ns] nanoseconds for [meth]. *)

val overruns : t -> (string * overrun_stat) list
(** Current overrun tallies, sorted by method. *)

val record_shed : t -> unit
(** Count one request shed at admission: answered [overloaded]
    immediately because its deadline was unmeetable. *)

val sheds : t -> int
(** Number of requests shed so far. *)

val snapshot :
  t ->
  queue_depth:int ->
  uptime_s:float ->
  sessions:Tlp_util.Json_out.t ->
  Tlp_util.Json_out.t
(** The [stats] result document (see PROTOCOL.md).  Takes the lock
    itself; do not call under {!with_lock}.  [sessions] is the
    pre-rendered [Session.stats_json] section — rendered by the caller
    so the session locks are never taken under the state lock. *)
