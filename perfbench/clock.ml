(* Monotonic time for every interval the benchmark reports: an NTP step
   during a run must not show up as latency. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9

(* Elapsed microseconds of [f ()], with its result. *)
let time_us f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-3)

let sleep s = if s > 0.0 then Thread.delay s
