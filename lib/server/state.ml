module Metrics = Tlp_util.Metrics
module Json = Tlp_util.Json_out
module Timer = Tlp_util.Timer

type trace_entry = {
  request_id : int;
  client_id : Json.t;
  meth : string;
  ok : bool;
  accept_ms : float;
  queue_ms : float;
  solve_ms : float;
  mutable render_ms : float;
  mutable write_ms : float;
  mutable total_ms : float;
}

let slow_ring_capacity = 16

(* ProbTime-style overrun accounting: a request that finishes past its
   deadline is still answered, but the overrun (in ns past deadline) is
   tallied per method so operators can see missed periods. *)
type overrun_stat = { count : int; total_ns : float; max_ns : float }

type t = {
  mutex : Mutex.t;
  cache : Cache.t;
  metrics : Metrics.t;
  started_at : float;
  queue_capacity : int;
  requests : (string, int) Hashtbl.t;  (* wire method -> count *)
  errors : (string, int) Hashtbl.t;  (* error code -> count *)
  mutable request_serial : int;  (* server-assigned per-request id *)
  slow_ring : trace_entry Queue.t;  (* last <= 16 traced requests *)
  estimator : Estimator.t;  (* per-method service-time EWMA, ns *)
  workspaces : Workspaces.t;  (* pooled solver scratch, own mutex *)
  sessions : Tlp_session.Session.t;  (* open sessions, own mutex *)
  overruns : (string, overrun_stat) Hashtbl.t;  (* wire method -> tally *)
  mutable shed : int;  (* doomed requests answered [overloaded] unqueued *)
}

let create ~cache_capacity ~queue_capacity ~session_ttl_s () =
  {
    mutex = Mutex.create ();
    cache = Cache.create ~capacity:cache_capacity;
    metrics = Metrics.create ();
    started_at = Timer.now ();
    queue_capacity;
    requests = Hashtbl.create 8;
    errors = Hashtbl.create 8;
    request_serial = 0;
    slow_ring = Queue.create ();
    estimator = Estimator.create ();
    workspaces = Workspaces.create ();
    sessions = Tlp_session.Session.create ~ttl_s:session_ttl_s ();
    overruns = Hashtbl.create 8;
    shed = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let cache t = t.cache
let workspaces t = t.workspaces
let sessions t = t.sessions
let metrics t = t.metrics
let started_at t = t.started_at
let queue_capacity t = t.queue_capacity

let bump table key =
  Hashtbl.replace table key
    (1 + Option.value ~default:0 (Hashtbl.find_opt table key))

let record_request t ~meth =
  bump t.requests meth;
  t.request_serial <- t.request_serial + 1;
  t.request_serial

let record_error t ~code = bump t.errors code

let record_trace t entry =
  Queue.push entry t.slow_ring;
  if Queue.length t.slow_ring > slow_ring_capacity then
    ignore (Queue.pop t.slow_ring)

let merge_request_metrics t request_metrics =
  Metrics.merge t.metrics request_metrics

let observe_service t ~meth ~ns = Estimator.observe t.estimator ~meth ~ns
let predict_service_ns t ~meth = Estimator.predict_ns t.estimator ~meth

let record_overrun t ~meth ~ns =
  let ns = Stdlib.max 0.0 ns in
  let prev =
    Option.value
      ~default:{ count = 0; total_ns = 0.0; max_ns = 0.0 }
      (Hashtbl.find_opt t.overruns meth)
  in
  Hashtbl.replace t.overruns meth
    {
      count = prev.count + 1;
      total_ns = prev.total_ns +. ns;
      max_ns = Stdlib.max prev.max_ns ns;
    }

let overruns t =
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.overruns [])

let record_shed t = t.shed <- t.shed + 1
let sheds t = t.shed

let sorted_counts table =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let trace_entry_json e =
  Json.Obj
    [
      ("request_id", Json.Int e.request_id);
      ("id", e.client_id);
      ("method", Json.String e.meth);
      ("ok", Json.Bool e.ok);
      ("total_ms", Json.Float e.total_ms);
      ( "spans",
        Json.Obj
          [
            ("accept_ms", Json.Float e.accept_ms);
            ("queue_ms", Json.Float e.queue_ms);
            ("solve_ms", Json.Float e.solve_ms);
            ("render_ms", Json.Float e.render_ms);
            ("write_ms", Json.Float e.write_ms);
          ] );
    ]

(* [sessions] arrives pre-rendered: [Session.stats_json] takes the
   store and per-session locks, and resolve paths acquire those before
   the state lock — rendering it here, under [with_lock], would invert
   that order and deadlock against an in-flight resolve. *)
let snapshot t ~queue_depth ~uptime_s ~sessions =
  with_lock t (fun () ->
      let requests = sorted_counts t.requests in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 requests in
      Json.Obj
        [
          ("uptime_s", Json.Float uptime_s);
          ( "requests",
            Json.Obj
              (("total", Json.Int total)
              :: List.map (fun (m, c) -> (m, Json.Int c)) requests) );
          ( "errors",
            Json.Obj
              (List.map (fun (c, n) -> (c, Json.Int n)) (sorted_counts t.errors))
          );
          ( "cache",
            Json.Obj
              [
                ("capacity", Json.Int (Cache.capacity t.cache));
                ("size", Json.Int (Cache.length t.cache));
                ("hits", Json.Int (Cache.hits t.cache));
                ("misses", Json.Int (Cache.misses t.cache));
                ("evictions", Json.Int (Cache.evictions t.cache));
              ] );
          ( "queue",
            Json.Obj
              [
                ("capacity", Json.Int t.queue_capacity);
                ("depth", Json.Int queue_depth);
                ("shed", Json.Int t.shed);
              ] );
          (* Deprecated duplicate of queue.depth; kept emitted for one
             release (see PROTOCOL.md §2.5). *)
          ("queue_depth", Json.Int queue_depth);
          ("sessions", sessions);
          ( "overruns",
            Json.Obj
              (List.map
                 (fun (m, o) ->
                   ( m,
                     Json.Obj
                       [
                         ("count", Json.Int o.count);
                         ("total_ns", Json.Int (int_of_float o.total_ns));
                         ("max_ns", Json.Int (int_of_float o.max_ns));
                       ] ))
                 (overruns t)) );
          ( "slow_ring",
            (* Newest first: the interesting request is the recent one. *)
            Json.List
              (Queue.fold (fun acc e -> trace_entry_json e :: acc) []
                 t.slow_ring) );
          ("metrics", Metrics.to_json t.metrics);
        ])
