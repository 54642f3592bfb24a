(** Bounded earliest-deadline-first admission queue: the server's
    backpressure and scheduling point.

    Connection threads [try_push] parsed requests (cache misses and
    uncacheable solver work) with their absolute deadline and priority
    class; worker domains [pop] the most urgent admitted request — earliest deadline first within a class, FIFO
    among equal deadlines, and deadline-free requests (encoded as
    deadline [+inf]) after all deadlined ones in admission order.

    Two priority classes: [Interactive] preempts [Batch] in ordering,
    but a batch head bypassed [aging_bound] consecutive times is popped
    next regardless of interactive pressure, so batch requests cannot
    starve — their lag behind an interactive burst is bounded by
    [aging_bound] pops.

    The storage is fixed-capacity and preallocated ({!Tlp_util.Fixed_heap}
    plus a recycled node pool), so steady-state push/pop does not grow
    arrays: when the queue is full, [try_push] fails without blocking
    and the connection thread answers [overloaded] itself.

    [close] begins graceful drain: further pushes are refused, but
    queued items remain poppable (still in EDF order) until the queue
    is empty — so every admitted request is answered before shutdown
    completes. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** [capacity] is clamped to at least 1. *)

val capacity : 'a t -> int

val aging_bound : 'a t -> int
(** The batch anti-starvation bound, the same for every queue: at most
    8 consecutive interactive pops while a batch request waits. *)

val length : 'a t -> int
(** Current depth across both classes (racy snapshot, for stats). *)

val try_push :
  'a t -> priority:Protocol.priority -> deadline:float option -> 'a -> bool
(** Non-blocking.  [deadline] is absolute ([Tlp_util.Timer.now] clock);
    [None] orders after every deadlined request.  [false] when the
    queue is full or closed. *)

val pop : 'a t -> 'a option
(** Blocks until an item is available or the queue is closed and
    drained; [None] means "closed and empty" — the worker should
    exit. *)

val close : 'a t -> unit
(** Refuse new pushes and wake every blocked popper.  Idempotent. *)

val closed : 'a t -> bool
