(* A two-way hedged race with a timed trigger.

   The stdlib's [Condition] has no timed wait, and polling a flag
   would tax every request with the poll period.  Instead each race
   owns a pipe: completion threads write one byte when they finish,
   and the coordinator [Unix.select]s on the read end with the hedge
   delay as the timeout — a wakeup that is prompt for completions and
   exact for the trigger.  The pipe is closed by its last holder (the
   coordinator and each started arm hold it once), so a loser finishing
   after the race settles never writes to a closed descriptor, and no
   descriptor is written or closed under the race mutex. *)

type outcome = Good | Bad

type 'a verdict = {
  value : 'a;
  winner : [ `Primary | `Secondary ];
  fired : bool;
  failover : bool;
  cancelled : int;
}

type 'a slot = Pending | Done of outcome * 'a

type 'a race = {
  mutex : Mutex.t;
  mutable primary : 'a slot;
  mutable secondary : 'a slot;
  mutable holders : int;  (** coordinator + arms not yet finished *)
  notify_r : Unix.file_descr;
  notify_w : Unix.file_descr;
}

(* Drop one hold on the pipe; the last holder closes it. *)
let release race =
  if
    Mutex.protect race.mutex (fun () ->
        race.holders <- race.holders - 1;
        race.holders = 0)
  then begin
    (try Unix.close race.notify_r with Unix.Unix_error _ -> ());
    try Unix.close race.notify_w with Unix.Unix_error _ -> ()
  end

let start_arm race ~secondary thunk =
  Mutex.protect race.mutex (fun () -> race.holders <- race.holders + 1);
  let t =
    Thread.create
      (fun () ->
        let outcome, value = thunk () in
        Mutex.protect race.mutex (fun () ->
            if secondary then race.secondary <- Done (outcome, value)
            else race.primary <- Done (outcome, value));
        (* One byte per completion: never blocks (a race writes at most
           two bytes against a pipe buffer of at least 4 KiB), and this
           arm's hold keeps the descriptor open. *)
        (try ignore (Unix.write race.notify_w (Bytes.make 1 '!') 0 1 : int)
         with Unix.Unix_error _ -> ());
        release race)
      ()
  in
  ignore (t : Thread.t)

(* Block until a completion byte arrives or [timeout_s] elapses
   ([timeout_s < 0.] = wait indefinitely).  Returns [true] on a
   completion byte. *)
let await race ~timeout_s =
  let rec go () =
    match Unix.select [ race.notify_r ] [] [] timeout_s with
    | [], _, _ -> false
    | _ :: _, _, _ -> (
        let b = Bytes.create 1 in
        match Unix.read race.notify_r b 0 1 with
        | _ -> true
        | exception Unix.Unix_error (EINTR, _, _) -> go ())
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

let pending = function Pending -> 1 | Done _ -> 0

let settle race ~fired ~failover ~winner value =
  let cancelled =
    Mutex.protect race.mutex (fun () ->
        (* Only arms that actually started can be cancelled. *)
        pending race.primary
        + if fired || failover then pending race.secondary else 0)
  in
  release race;
  { value; winner; fired; failover; cancelled }

(* Both arms race on their own threads; the caller coordinates. *)
let race_two ~secondary ~delay_s primary =
  let notify_r, notify_w = Unix.pipe ~cloexec:true () in
  let race =
    {
      mutex = Mutex.create ();
      primary = Pending;
      secondary = Pending;
      holders = 1;
      notify_r;
      notify_w;
    }
  in
  start_arm race ~secondary:false primary;
  let read_slots () =
    Mutex.protect race.mutex (fun () -> (race.primary, race.secondary))
  in
  (* Phase 1: primary alone, up to the hedge delay. *)
  let rec before_delay deadline =
    match read_slots () with
    | Done (Good, v), _ -> settle race ~fired:false ~failover:false ~winner:`Primary v
    | Done (Bad, _), _ ->
        (* Primary failed outright: this is failover, not a hedge —
           fire the secondary immediately. *)
        start_arm race ~secondary:true secondary;
        failover_wait ()
    | Pending, _ ->
        let left = deadline -. Tlp_util.Timer.now () in
        if left <= 0.0 then begin
          start_arm race ~secondary:true secondary;
          hedged_wait ()
        end
        else begin
          ignore (await race ~timeout_s:left : bool);
          before_delay deadline
        end
  (* Primary already failed; the secondary's answer is the answer. *)
  and failover_wait () =
    match read_slots () with
    | _, Done (_, v) -> settle race ~fired:false ~failover:true ~winner:`Secondary v
    | _, Pending ->
        ignore (await race ~timeout_s:(-1.0) : bool);
        failover_wait ()
  (* Both arms in flight: first Good settles; a Bad arm defers to the
     other; both Bad settles on the primary's answer. *)
  and hedged_wait () =
    match read_slots () with
    | Done (Good, v), _ -> settle race ~fired:true ~failover:false ~winner:`Primary v
    | _, Done (Good, v) -> settle race ~fired:true ~failover:false ~winner:`Secondary v
    | Done (Bad, v), Done (Bad, _) ->
        settle race ~fired:true ~failover:false ~winner:`Primary v
    | _ ->
        ignore (await race ~timeout_s:(-1.0) : bool);
        hedged_wait ()
  in
  if delay_s <= 0.0 then begin
    (* Zero delay: both arms launch together. *)
    start_arm race ~secondary:true secondary;
    hedged_wait ()
  end
  else before_delay (Tlp_util.Timer.now () +. delay_s)

let race ?secondary ~delay_s primary =
  match secondary with
  | Some secondary -> race_two ~secondary ~delay_s primary
  | None ->
      (* Nothing to hedge against: run the primary here, on the
         caller's thread — no pipe, no thread. *)
      let _, value = primary () in
      { value; winner = `Primary; fired = false; failover = false; cancelled = 0 }
