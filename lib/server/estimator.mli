(** Decaying per-method service-time estimate, in nanoseconds.

    An exponentially weighted moving average per wire method, fed by
    completed requests and consulted at admission time: a request whose
    deadline cannot be met given the queue depth and the estimated
    service time is shed immediately instead of queuing doomed work.

    The estimator is deliberately optimistic about the unknown: a
    method with no completed sample predicts [0.0] ns, so shedding
    only ever kicks in once real service times have been observed —
    a cold server never sheds on a guess.

    Not thread-safe; callers serialize access (the server keeps its
    instance inside {!State} and touches it only under the state
    lock). *)

type t

val create : unit -> t
(** Fresh estimator.  The EWMA weight of the newest sample is 0.2: each
    sample contributes a fifth of the new mean, so the estimate tracks
    drift without being yanked around by one outlier. *)

val observe : t -> meth:string -> ns:float -> unit
(** Fold one completed request's service time (negative values clamp
    to 0).  The first sample seeds the mean directly. *)

val predict_ns : t -> meth:string -> float
(** Current estimate for one request of [meth]; [0.0] when the method
    has never completed. *)
