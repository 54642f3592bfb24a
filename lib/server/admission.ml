module Fixed_heap = Tlp_util.Fixed_heap

(* Queued entries live in preallocated, recycled nodes (the incudine
   EDF-scheduler discipline): [create] allocates [capacity] nodes once,
   [try_push] takes one off the free pool and mutates it in place,
   [pop] returns it — so the steady state allocates nothing beyond the
   [Some item] box.  [item = None] marks a free node. *)
type 'a node = {
  mutable item : 'a option;
  mutable deadline : float;  (* absolute; [infinity] = no deadline *)
  mutable seq : int;  (* admission order: FIFO tie-break *)
}

type 'a t = {
  cap : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  (* Two EDF heaps, one per priority class.  Interactive preempts batch
     in ordering; [batch_bypass] bounds how long. *)
  interactive : 'a node Fixed_heap.t;
  batch : 'a node Fixed_heap.t;
  pool : 'a node array;  (* free nodes in [0, free) *)
  mutable free : int;
  mutable seq : int;
  mutable batch_bypass : int;
      (* consecutive interactive pops taken while batch head waited *)
  mutable is_closed : bool;
}

(* Batch anti-starvation bound: at most this many consecutive
   interactive pops while a batch request waits. *)
let aging_bound_pops = 8

let fresh_node () = { item = None; deadline = infinity; seq = 0 }

(* Earliest deadline first; equal deadlines pop in admission order, so
   deadline-free streams degrade to exactly the old FIFO behavior. *)
let cmp_node a b =
  match Float.compare a.deadline b.deadline with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let create ~capacity () =
  let cap = Stdlib.max capacity 1 in
  let dummy = fresh_node () in
  {
    cap;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    interactive = Fixed_heap.create ~capacity:cap ~cmp:cmp_node ~dummy;
    batch = Fixed_heap.create ~capacity:cap ~cmp:cmp_node ~dummy;
    pool = Array.init cap (fun _ -> fresh_node ());
    free = cap;
    seq = 0;
    batch_bypass = 0;
    is_closed = false;
  }

let capacity t = t.cap
let aging_bound (_ : 'a t) = aging_bound_pops

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let depth t = Fixed_heap.size t.interactive + Fixed_heap.size t.batch

let length t = with_lock t (fun () -> depth t)

(* [try_push] and [pop] lock directly instead of going through
   [with_lock]: the closure plus [Fun.protect] cell were two heap
   blocks per admitted request, and neither body can raise (pure field
   and array mutation on preallocated nodes), so the unwind protection
   bought nothing. *)
let[@tlp.hot] try_push t ~priority ~deadline item =
  Mutex.lock t.mutex;
  let admitted =
    if t.is_closed || t.free = 0 then false
    else begin
      let node = t.pool.(t.free - 1) in
      t.free <- t.free - 1;
      node.item <- Some item;
      node.deadline <-
        (match deadline with Some d -> d | None -> infinity);
      node.seq <- t.seq;
      t.seq <- t.seq + 1;
      let heap =
        match (priority : Protocol.priority) with
        | Protocol.Interactive -> t.interactive
        | Protocol.Batch -> t.batch
      in
      if Fixed_heap.push heap node then begin
        Condition.signal t.nonempty;
        true
      end
      else begin
        (* Unreachable: each heap's capacity equals the pool size. *)
        node.item <- None;
        t.pool.(t.free) <- node;
        t.free <- t.free + 1;
        false
      end
    end
  in
  Mutex.unlock t.mutex;
  admitted

(* Pop policy: the interactive head wins unless the batch head has
   already been bypassed [aging_bound] times in a row — then the batch
   head goes regardless of deadlines, so batch lag behind interactive
   bursts is bounded by [aging_bound] pops, not wall-clock luck. *)
let choose t =
  let next =
    if Fixed_heap.is_empty t.batch then begin
      t.batch_bypass <- 0;
      Fixed_heap.pop t.interactive
    end
    else if
      Fixed_heap.is_empty t.interactive || t.batch_bypass >= aging_bound_pops
    then begin
      t.batch_bypass <- 0;
      Fixed_heap.pop t.batch
    end
    else begin
      t.batch_bypass <- t.batch_bypass + 1;
      Fixed_heap.pop t.interactive
    end
  in
  match next with
  | None -> None
  | Some node ->
      let item = node.item in
      node.item <- None;
      node.deadline <- infinity;
      t.pool.(t.free) <- node;
      t.free <- t.free + 1;
      item

let[@tlp.hot] pop t =
  Mutex.lock t.mutex;
  while depth t = 0 && not t.is_closed do
    Condition.wait t.nonempty t.mutex
  done;
  (* Closed queues still drain: admitted requests get answered. *)
  let item = if depth t = 0 then None else choose t in
  Mutex.unlock t.mutex;
  item

let close t =
  with_lock t (fun () ->
      t.is_closed <- true;
      Condition.broadcast t.nonempty)

let closed t = with_lock t (fun () -> t.is_closed)
