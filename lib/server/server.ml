module Json = Tlp_util.Json_out
module Metrics = Tlp_util.Metrics
module Timer = Tlp_util.Timer
module Bytebuf = Tlp_util.Bytebuf

type config = {
  host : string;
  port : int;
  jobs : int;
  queue_capacity : int;
  cache_capacity : int;
  default_timeout_ms : int option;
  max_frame_bytes : int;
  enable_debug : bool;
  session_ttl_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7171;
    jobs = 4;
    queue_capacity = 64;
    cache_capacity = 256;
    default_timeout_ms = Some 30_000;
    max_frame_bytes = 4 * 1024 * 1024;
    enable_debug = false;
    session_ttl_s = Tlp_session.Session.default_ttl_s;
  }

(* A job is an admitted frame plus everything needed to answer it from a
   worker domain: the absolute deadline, the cache key its connection
   thread looked up and missed, the connection's serialized reply writer
   (returning the render-done and write-done timestamps), and for
   tracing the request id and the accept/enqueue timestamps. *)
type job = {
  frame : Protocol.frame;
  deadline : float option;
  key : Cache.key option;
  reply : Conn.response -> float * float;
  request_id : int;
  t_accept : float;  (* read off the socket, before parsing *)
  t_queued : float;  (* pushed onto the admission queue *)
}

type t = {
  config : config;
  listener : Conn.listener;
  server_state : State.t;
  queue : job Admission.t;
  mutable workers : unit Domain.t list;
}

let port t = Conn.port t.listener
let state t = t.server_state

let record_error t err =
  State.with_lock t.server_state (fun () ->
      State.record_error t.server_state
        ~code:(Protocol.error_code_string err.Protocol.code))

let send_error t ~reply ~id err =
  record_error t err;
  ignore (reply { Conn.resp_id = id; body = Error err } : float * float)

(* ---------- tracing ---------- *)

let ms a b = (b -. a) *. 1000.0

(* Render the outcome into a response and write it.  A traced frame's
   span log enters the slow ring *before* the write, so a client holding
   the reply always finds it in [stats]; render, write and total spans
   are filled in after.  Success envelopes carry the accept/queue/solve
   spans; untraced requests render exactly as before tracing existed.
   [executed] marks jobs that ran the handler (not hits, control-plane
   inlines or queued-deadline expiries): only those feed the estimator,
   and only an executed success finishing at or past its deadline is an
   overrun — answered, tallied per method, and traced as [overrun_ms]. *)
let finish t job ~t_dispatch ~executed outcome =
  let frame = job.frame in
  let t_solved = Timer.now () in
  let meth = Protocol.method_name frame.Protocol.request in
  let overrun_ms_opt =
    match (outcome, job.deadline) with
    | Ok _, Some d when executed && t_solved >= d -> Some (ms d t_solved)
    | _ -> None
  in
  if executed || Result.is_error outcome then
    State.with_lock t.server_state (fun () ->
        if executed then begin
          State.observe_service t.server_state ~meth
            ~ns:((t_solved -. t_dispatch) *. 1e9);
          Option.iter
            (fun o_ms ->
              State.record_overrun t.server_state ~meth ~ns:(o_ms *. 1e6))
            overrun_ms_opt
        end;
        match outcome with
        | Error err ->
            State.record_error t.server_state
              ~code:(Protocol.error_code_string err.Protocol.code)
        | Ok _ -> ());
  let entry =
    if frame.Protocol.trace then begin
      let entry =
        {
          State.request_id = job.request_id;
          client_id = frame.Protocol.id;
          meth;
          ok = Result.is_ok outcome;
          accept_ms = ms job.t_accept job.t_queued;
          queue_ms = ms job.t_queued t_dispatch;
          solve_ms = ms t_dispatch t_solved;
          render_ms = 0.0;
          write_ms = 0.0;
          total_ms = ms job.t_accept t_solved;
        }
      in
      State.with_lock t.server_state (fun () ->
          State.record_trace t.server_state entry);
      Some entry
    end
    else None
  in
  let trace (e : State.trace_entry) =
    let overrun =
      Option.to_list
        (Option.map (fun o -> ("overrun_ms", Json.Float o)) overrun_ms_opt)
    in
    Json.Obj
      [
        ("request_id", Json.Int e.request_id);
        ( "spans",
          Json.Obj
            (("accept_ms", Json.Float e.accept_ms)
            :: ("queue_ms", Json.Float e.queue_ms)
            :: ("solve_ms", Json.Float e.solve_ms)
            :: overrun) );
      ]
  in
  let body = Result.map (fun p -> (p, Option.map trace entry)) outcome in
  let t_rendered, t_written =
    job.reply { Conn.resp_id = frame.Protocol.id; body }
  in
  Option.iter
    (fun (e : State.trace_entry) ->
      State.with_lock t.server_state (fun () ->
          e.render_ms <- ms t_solved t_rendered;
          e.write_ms <- ms t_rendered t_written;
          e.total_ms <- ms job.t_accept t_written))
    entry

(* ---------- worker domains ---------- *)

let cluster_doc t =
  Handler.solo_cluster_doc ~host:t.config.host ~port:(port t)

(* The body of each of the [jobs] worker domains: the domain that pops
   a job checks its deadline, solves it and writes the reply itself —
   no further hand-off.  The job's private metrics sink is written only
   here, then merged into the server sink — the same single-writer
   discipline as Batch.solve_batch. *)
let rec worker_loop t =
  match Admission.pop t.queue with
  | None -> () (* closed and drained *)
  | Some job ->
      let t_dispatch = Timer.now () in
      (match job.deadline with
      | Some d when t_dispatch >= d ->
          (* [>=]: a deadline hit exactly at dispatch is already
             missed — work only counts if it finishes inside it. *)
          finish t job ~t_dispatch ~executed:false
            (Error (Protocol.timeout "deadline expired while queued"))
      | _ ->
          let metrics = Metrics.create () in
          let outcome =
            match
              Handler.handle ~state:t.server_state
                ~queue_depth:(fun () -> Admission.length t.queue)
                ~cluster:(cluster_doc t) ~debug:t.config.enable_debug
                ~metrics ~key:job.key job.frame.Protocol.request
            with
            | outcome -> outcome
            | exception e -> Error (Protocol.internal (Printexc.to_string e))
          in
          State.with_lock t.server_state (fun () ->
              State.merge_request_metrics t.server_state metrics);
          finish t job ~t_dispatch ~executed:true outcome);
      worker_loop t

(* ---------- connection threads ---------- *)

(* Control-plane methods are answered on the connection thread itself:
   health checks and stats must respond even when the solve queue is
   saturated — that is what they are for. *)
let control_plane (request : Protocol.request) =
  match request with
  | Protocol.Stats | Protocol.Health | Protocol.Cluster -> true
  | Protocol.Partition _ | Protocol.Sweep _ | Protocol.Verify _
  | Protocol.Sleep _ | Protocol.Open _ | Protocol.Update _
  | Protocol.Resolve _ ->
      false

type client = {
  conn : Conn.conn;
  dbuf : Bytebuf.t;  (* instance-digest text; connection thread only *)
  inflight_mutex : Mutex.t;
  inflight_done : Condition.t;
  mutable inflight : int;  (* admitted jobs not yet replied to *)
}

let add_inflight c d =
  Mutex.lock c.inflight_mutex;
  c.inflight <- c.inflight + d;
  if c.inflight = 0 then Condition.broadcast c.inflight_done;
  Mutex.unlock c.inflight_mutex

let job_reply c response =
  let stamps = Conn.respond ~drain:false c.conn response in
  add_inflight c (-1);
  stamps

let drain_inflight c =
  Mutex.lock c.inflight_mutex;
  while c.inflight > 0 do
    Condition.wait c.inflight_done c.inflight_mutex
  done;
  Mutex.unlock c.inflight_mutex

(* Admission of one parsed frame — shared by both framings; only the
   parse/decode step and the reply rendering differ per protocol.
   Control-plane methods and cache hits are answered right here on the
   connection thread; only misses and uncacheable solver work cross to
   a worker domain. *)
let handle_parsed t c ~t_accept parsed =
  let reply = Conn.respond ~drain:true c.conn in
  match parsed with
  | Error (id, err) -> send_error t ~reply ~id err
  | Ok frame ->
      let request = frame.Protocol.request in
      let meth = Protocol.method_name request in
      let request_id =
        State.with_lock t.server_state (fun () ->
            State.record_request t.server_state ~meth)
      in
      let refuse err =
        send_error t ~reply ~id:frame.Protocol.id err
      in
      let job ~deadline ~key ~reply =
        let t_queued = Timer.now () in
        { frame; deadline; key; reply; request_id; t_accept; t_queued }
      in
      (* Answered inline: queue time is zero by construction. *)
      let inline answer =
        let job = job ~deadline:None ~key:None ~reply in
        finish t job ~t_dispatch:job.t_queued ~executed:false (answer ())
      in
      if control_plane request then
        inline (fun () ->
            Handler.handle ~state:t.server_state
              ~queue_depth:(fun () -> Admission.length t.queue)
              ~cluster:(cluster_doc t) ~debug:t.config.enable_debug
              ~metrics:(Metrics.create ()) ~key:None request)
      else if Conn.stopping t.listener then
        refuse (Protocol.overloaded "server is draining")
      else begin
        let now = Timer.now () in
        let deadline =
          Option.map
            (fun ms -> now +. (float_of_int ms /. 1000.0))
            (match frame.Protocol.timeout_ms with
            | None -> t.config.default_timeout_ms
            | ms -> ms)
        in
        (* Early shedding: an already expired deadline (timeout_ms 0) is
           a structured [timeout]; one the queue depth and the method's
           service-time estimate say is unmeetable is [overloaded] (no
           sample yet predicts 0: never shed).  A cache hit is answered
           between the two checks — it takes no queue slot or solve. *)
        let doomed () =
          match deadline with
          | None -> false
          | Some d ->
              let est_ns =
                State.with_lock t.server_state (fun () ->
                    State.predict_service_ns t.server_state ~meth)
              in
              est_ns > 0.0
              && (let depth = Admission.length t.queue in
                  now +. (float_of_int (depth + 1) *. est_ns *. 1e-9) > d)
        in
        match deadline with
        | Some d when d <= now ->
            refuse (Protocol.timeout "deadline already expired on arrival")
        | _ -> (
            let key = Handler.cache_key ~scratch:c.dbuf request in
            match Option.bind key (Handler.lookup t.server_state) with
            | Some entry -> inline (fun () -> Ok (Handler.Rendered entry))
            | None when doomed () ->
                State.with_lock t.server_state (fun () ->
                    State.record_shed t.server_state);
                refuse (Protocol.overloaded "deadline unmeetable at current load")
            | None ->
                let job = job ~deadline ~key ~reply:(job_reply c) in
                add_inflight c 1;
                if
                  not
                    (Admission.try_push t.queue
                       ~priority:frame.Protocol.priority ~deadline job)
                then begin
                  (* Undo the optimistic inflight count: the error reply
                     below goes through [reply], not job_reply. *)
                  add_inflight c (-1);
                  refuse
                    (Protocol.overloaded
                       (if Admission.closed t.queue then "server is draining"
                        else "admission queue full"))
                end)
      end

(* The connection core's callbacks for one client. *)
let handler t conn =
  let c =
    {
      conn;
      dbuf = Bytebuf.create 4096;
      inflight_mutex = Mutex.create ();
      inflight_done = Condition.create ();
      inflight = 0;
    }
  in
  {
    Conn.on_v1_line =
      (fun line ->
        let t_accept = Timer.now () in
        handle_parsed t c ~t_accept (Protocol.parse_frame line));
    on_v2_frame =
      (fun bytes ~pos ~len ->
        let t_accept = Timer.now () in
        handle_parsed t c ~t_accept
          (Frame.decode_request bytes ~pos:(pos + 4) ~len:(len - 4)));
    on_refused = record_error t;
    (* Answer everything this connection admitted before hanging up. *)
    on_close = (fun () -> drain_inflight c);
  }

(* ---------- lifecycle ---------- *)

let start config =
  let jobs = Stdlib.max 1 config.jobs in
  let listener = Conn.listen ~host:config.host ~port:config.port in
  let t =
    {
      config = { config with jobs };
      listener;
      server_state =
        State.create ~cache_capacity:config.cache_capacity
          ~queue_capacity:config.queue_capacity
          ~session_ttl_s:config.session_ttl_s ();
      queue = Admission.create ~capacity:config.queue_capacity ();
      workers = [];
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  (* No new connections once the accept loop returns, so no new pushes
     after the queue drains: closing it there starts the worker drain. *)
  Conn.serve listener ~max_frame_bytes:config.max_frame_bytes
    ~finally:(fun () -> Admission.close t.queue)
    (handler t);
  t

let stop t = Conn.stop t.listener

(* The accept loop closed the queue on its way out; worker domains
   drain every admitted job, answer it, and exit. *)
let wait t =
  Conn.wait t.listener ~joined:(fun () -> List.iter Domain.join t.workers)

let run config =
  let t = start config in
  Conn.stop_on_signals t.listener;
  t
