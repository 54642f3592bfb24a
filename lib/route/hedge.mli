(** Hedged execution of one request against up to two replicas.

    {!race} runs a [primary] thunk immediately and arms an optional
    [secondary] behind a delay: if the primary produces a [Good]
    answer before [delay_s] elapses, the secondary never runs (the
    common case — hedging costs nothing when the shard is healthy).
    If the delay expires first, the secondary {e fires} and the first
    [Good] answer wins.  If the primary fails outright ([Bad]) before
    the delay, the secondary starts at once — that is {e failover},
    accounted separately from hedging (DESIGN.md §9).

    The coordinator blocks on a per-race pipe rather than polling:
    completion threads write one byte, and [Unix.select] with the
    remaining delay as timeout gives an exact trigger with prompt
    wakeups.  The losing arm is never interrupted — thunks must be
    self-bounding (the router's are: every proxy call carries a
    deadline) — but its completion is discarded, the race's pipe is
    closed by whichever of the coordinator and the arms finishes last,
    and the verdict counts it as [cancelled]. *)

type outcome = Good | Bad
(** How an arm's answer should steer the race: [Good] settles it,
    [Bad] defers to the other arm (and triggers failover when the
    primary reports it first). *)

type 'a verdict = {
  value : 'a;  (** the settled answer (primary's on a double failure) *)
  winner : [ `Primary | `Secondary ];
  fired : bool;
      (** the secondary was launched by delay expiry — a true hedge *)
  failover : bool;
      (** the secondary was launched by a primary failure instead *)
  cancelled : int;
      (** arms still in flight when the race settled ([0] or [1]);
          their results were discarded *)
}

val race :
  ?secondary:(unit -> outcome * 'a) ->
  delay_s:float ->
  (unit -> outcome * 'a) ->
  'a verdict
(** [race ?secondary ~delay_s primary] — run the race to a verdict.
    Without a [secondary] this is a plain call: [primary] runs on the
    caller's thread (no pipe, no thread), whatever its outcome.
    [delay_s <= 0.] with a secondary launches both arms immediately.
    With a secondary, thunks run on their own threads and must not
    raise; wrap failures into [Bad] values. *)
