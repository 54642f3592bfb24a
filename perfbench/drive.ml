(* The closed-loop load generator: [conns] connections in this one
   process, each sending its next op only after the previous reply
   arrived.  Ops are numbered by one shared counter, so the plan's send
   order is the same however many connections interleave. *)

type sample = {
  op : int;
  start : float;
  latency_s : float;
  response : string option;  (** [None]: the transport failed *)
}

type phase = { samples : sample array; wall_s : float; t_start : float }

(* Run ops until [seconds] elapse (or [exec] declines an op number, for
   a finite plan).  [exec conn op] performs op [op] on connection
   [conn] and returns its raw reply; [None] means the transport
   failed.  [tick j], when given, runs on its own thread at each whole
   second [j] of the phase, from 0 to [seconds]. *)
let phase ?tick ~conns ~seconds ~next
    (exec : int -> int -> string option option) =
  let t_start = Clock.now () in
  let deadline = t_start +. seconds in
  let ticker =
    Option.map
      (fun tick ->
        Thread.create
          (fun () ->
            for j = 0 to int_of_float seconds do
              Clock.sleep (t_start +. float j -. Clock.now ());
              tick j
            done)
          ())
      tick
  in
  let per_conn = Array.make conns [] in
  let worker conn =
    let rec loop acc =
      let start = Clock.now () in
      if start >= deadline then acc
      else
        let op = Atomic.fetch_and_add next 1 in
        match exec conn op with
        | None -> acc
        | Some response ->
            let latency_s = Clock.now () -. start in
            loop ({ op; start; latency_s; response } :: acc)
    in
    per_conn.(conn) <- loop []
  in
  let threads = List.init conns (fun c -> Thread.create worker c) in
  List.iter Thread.join threads;
  Option.iter Thread.join ticker;
  let wall_s = Clock.now () -. t_start in
  let samples = Array.of_list (List.concat (Array.to_list per_conn)) in
  Array.sort (fun a b -> compare a.op b.op) samples;
  { samples; wall_s; t_start }

(* Linear-interpolated quantile of a sorted array (q in [0, 1]). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  quantile a 0.5

(* Per-second slices of a timed window: for each whole second, the ok
   ops that started in it, their latencies, and the server CPU ticks
   spent in it ([ticks.(j)] is the reading at second [j]).  The
   end-to-end figures are medians over the slices, so a burst of host
   steal in one second moves one slice, not the reported value. *)
type slice = {
  ok_ops : int;
  rate : float;
      (** ok ops per second, from the slice's first start to its last
          end *)
  latencies : float array;
  cpu_ticks : int;
}

let slices phase ~seconds ~ok ~ticks =
  let n = max 1 seconds in
  let buckets = Array.make n [] in
  Array.iteri
    (fun i s ->
      let j = int_of_float (s.start -. phase.t_start) in
      if ok.(i) && j >= 0 && j < n then buckets.(j) <- s :: buckets.(j))
    phase.samples;
  Array.mapi
    (fun j l ->
      let a = Array.of_list (List.map (fun s -> s.latency_s) l) in
      Array.sort compare a;
      let first = List.fold_left (fun m s -> Float.min m s.start) infinity l in
      let last =
        List.fold_left
          (fun m s -> Float.max m (s.start +. s.latency_s))
          neg_infinity l
      in
      let ok_ops = Array.length a in
      {
        ok_ops;
        rate = (if ok_ops = 0 then 0.0 else float ok_ops /. (last -. first));
        latencies = a;
        cpu_ticks = ticks.(j + 1) - ticks.(j);
      })
    buckets
