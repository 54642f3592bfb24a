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
  seed : int;
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
    seed = 0;
    enable_debug = false;
    session_ttl_s = Tlp_session.Session.default_ttl_s;
  }

(* A fully-formed response, rendered by the reply writer for whichever
   protocol the connection negotiated: the v1 path splices [Rendered]
   entries' JSON text into a newline-terminated envelope, the v2 path
   splices their Binval bytes into a length-prefixed frame — both out
   of the same handler outcome. *)
type response = {
  resp_id : Json.t;
  body : (Handler.payload * Json.t option, Protocol.error) result;
      (* Ok (payload, trace) | Error err *)
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
  reply : response -> float * float;
  rng : Tlp_util.Rng.t;
  request_id : int;
  t_accept : float;  (* read off the socket, before parsing *)
  t_queued : float;  (* pushed onto the admission queue *)
}

type t = {
  config : config;
  listener : Unix.file_descr;
  actual_port : int;
  server_state : State.t;
  queue : job Admission.t;
  stop_flag : bool Atomic.t;
  conn_mutex : Mutex.t;
  conn_done : Condition.t;
  mutable live_conns : int;
  mutable accepter : Thread.t option;
  mutable workers : unit Domain.t list;
  mutable waited : bool;
}

let port t = t.actual_port
let state t = t.server_state

let send_error t ~reply ~id err =
  State.with_lock t.server_state (fun () ->
      State.record_error t.server_state
        ~code:(Protocol.error_code_string err.Protocol.code));
  ignore (reply { resp_id = id; body = Error err } : float * float)

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
  let t_rendered, t_written = job.reply { resp_id = frame.Protocol.id; body } in
  Option.iter
    (fun (e : State.trace_entry) ->
      State.with_lock t.server_state (fun () ->
          e.render_ms <- ms t_solved t_rendered;
          e.write_ms <- ms t_rendered t_written;
          e.total_ms <- ms job.t_accept t_written))
    entry

(* ---------- worker domains ---------- *)

let cluster_doc t =
  Handler.solo_cluster_doc ~host:t.config.host ~port:t.actual_port

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
                ~rng:job.rng ~metrics ~key:job.key job.frame.Protocol.request
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

(* The framing a connection speaks, decided by its first byte: 0xf2
   (which can never begin a JSON document) opens the v2 hello, anything
   else is a v1 JSON line already in flight. *)
type wire = Undecided | V1 | V2

type conn = {
  fd : Unix.file_descr;
  write_mutex : Mutex.t;
  inflight_mutex : Mutex.t;
  inflight_done : Condition.t;
  wbuf : Bytebuf.t;
      (* pooled write buffer, guarded by [write_mutex]; grown to the
         connection's working set once, then reused per response *)
  dbuf : Bytebuf.t;  (* instance-digest text; connection thread only *)
  rbuf : Bytebuf.t;
      (* pooled read buffer: the socket reads straight into its backing
         store and the frame scans walk it in place; only the connection
         thread touches it *)
  drain_cap : int;  (* read-ahead bound while a reply waits to be sent *)
  mutable wire : wire;
  mutable inflight : int;  (* admitted jobs not yet replied to *)
  mutable alive : bool;  (* peer still reachable for writes *)
}

(* A socket timeout tick or an interrupted call: nothing is wrong. *)
let transient = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

(* Append what the socket holds to [rbuf]; 0 at end of input. *)
let read_some conn =
  Bytebuf.reserve conn.rbuf 4096;
  let bytes = Bytebuf.unsafe_bytes conn.rbuf in
  let off = Bytebuf.length conn.rbuf in
  let n = Unix.read conn.fd bytes off (Bytes.length bytes - off) in
  Bytebuf.unsafe_advance conn.rbuf n;
  n

(* Read the client's pending input into [rbuf], up to [drain_cap]. *)
let rec read_ahead conn =
  if Bytebuf.length conn.rbuf < conn.drain_cap then
    match read_some conn with
    | n when n > 0 && Bytebuf.length conn.rbuf = Bytebuf.capacity conn.rbuf
      ->
        read_ahead conn (* filled the buffer: more may be waiting *)
    | _ | (exception Unix.Unix_error (_, _, _)) -> ()

(* Module-level recursion keeps the short-write retry loop free of the
   per-call ref the old [while] needed.  A send-timeout tick with
   nothing sent means the client is not reading.  A worker domain just
   retries.  The connection thread ([drain]) is also the connection's
   only reader, and it writes its own replies (control plane, refusals,
   cache hits): if it only retried, a client that pipelines requests
   and reads no reply until all are sent would wait on it while it
   waits on the client.  So it first reads that pending input into
   [rbuf], to be served after this reply. *)
let rec write_all conn ~drain bytes pos len =
  if len > 0 then
    match Unix.single_write conn.fd bytes pos len with
    | n -> write_all conn ~drain bytes (pos + n) (len - n)
    | exception Unix.Unix_error (e, _, _) when transient e ->
        if drain then read_ahead conn;
        write_all conn ~drain bytes pos len

(* Write [wbuf] to the socket. Caller holds [write_mutex]. *)
let flush_wbuf ~drain conn =
  try
    if conn.alive then
      write_all conn ~drain (Bytebuf.unsafe_bytes conn.wbuf) 0
        (Bytebuf.length conn.wbuf)
  with Unix.Unix_error _ -> conn.alive <- false

let conn_send_raw conn s =
  Mutex.lock conn.write_mutex;
  Bytebuf.clear conn.wbuf;
  Bytebuf.add_string conn.wbuf s;
  flush_wbuf ~drain:false conn;
  Mutex.unlock conn.write_mutex

(* Render one response into the pooled write buffer for the
   connection's protocol and write it. Returns the (render-done,
   write-done) timestamps for the trace spans. The v1 rendering is
   byte-for-byte the pre-v2 server's ([render_ok]/[render_error] plus
   newline); the v2 rendering splices the same payload into a
   length-prefixed binary frame. *)
let[@tlp.hot] conn_respond ~drain conn response =
  Mutex.lock conn.write_mutex;
  let buf = conn.wbuf in
  Bytebuf.clear buf;
  let id = response.resp_id in
  (match conn.wire with
  | Undecided | V1 ->
      (match response.body with
      | Ok (payload, trace) ->
          let result =
            match payload with
            | Handler.Rendered entry -> entry.Cache.v1
            | Handler.Doc doc -> Json.to_string doc
          in
          Bytebuf.add_string buf
            (match trace with
            | Some trace -> Protocol.render_ok_traced ~id ~result ~trace
            | None -> Protocol.render_ok ~id ~result)
      | Error err -> Bytebuf.add_string buf (Protocol.render_error ~id err));
      Bytebuf.add_char buf '\n'
  | V2 -> (
      match response.body with
      | Ok (payload, trace) -> (
          match payload with
          | Handler.Rendered entry ->
              Frame.encode_ok buf ~id ~result:entry.Cache.v2 ~trace
          | Handler.Doc doc -> Frame.encode_ok_doc buf ~id ~doc ~trace)
      | Error err -> Frame.encode_error buf ~id err));
  let t_rendered = Timer.now () in
  flush_wbuf ~drain conn;
  let t_written = Timer.now () in
  Mutex.unlock conn.write_mutex;
  (t_rendered, t_written)

let add_inflight conn d =
  Mutex.lock conn.inflight_mutex;
  conn.inflight <- conn.inflight + d;
  if conn.inflight = 0 then Condition.broadcast conn.inflight_done;
  Mutex.unlock conn.inflight_mutex

let job_reply conn response =
  let stamps = conn_respond ~drain:false conn response in
  add_inflight conn (-1);
  stamps

(* Admission of one parsed frame — shared by both framings; only the
   parse/decode step and the reply rendering differ per protocol.
   Control-plane methods and cache hits are answered right here on the
   connection thread; only misses and uncacheable solver work cross to
   a worker domain. *)
let handle_parsed t conn ~t_accept parsed =
  let reply = conn_respond ~drain:true conn in
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
        let rng =
          State.with_lock t.server_state (fun () ->
              State.next_rng t.server_state)
        in
        let t_queued = Timer.now () in
        { frame; deadline; key; reply; rng; request_id; t_accept; t_queued }
      in
      (* Answered inline: queue time is zero by construction. *)
      let inline answer =
        let job = job ~deadline:None ~key:None ~reply in
        finish t job ~t_dispatch:job.t_queued ~executed:false (answer job.rng)
      in
      if control_plane request then
        inline (fun rng ->
            Handler.handle ~state:t.server_state
              ~queue_depth:(fun () -> Admission.length t.queue)
              ~cluster:(cluster_doc t) ~debug:t.config.enable_debug ~rng
              ~metrics:(Metrics.create ()) ~key:None request)
      else if Atomic.get t.stop_flag then
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
            let key = Handler.cache_key ~scratch:conn.dbuf request in
            match Option.bind key (Handler.lookup t.server_state) with
            | Some entry -> inline (fun _ -> Ok (Handler.Rendered entry))
            | None when doomed () ->
                State.with_lock t.server_state (fun () ->
                    State.record_shed t.server_state);
                refuse (Protocol.overloaded "deadline unmeetable at current load")
            | None ->
                let job = job ~deadline ~key ~reply:(job_reply conn) in
                add_inflight conn 1;
                if
                  not
                    (Admission.try_push t.queue
                       ~priority:frame.Protocol.priority ~deadline job)
                then begin
                  (* Undo the optimistic inflight count: the error reply
                     below goes through [reply], not job_reply. *)
                  add_inflight conn (-1);
                  refuse
                    (Protocol.overloaded
                       (if Admission.closed t.queue then "server is draining"
                        else "admission queue full"))
                end)
      end

let handle_line t conn line =
  if String.trim line <> "" then begin
    let t_accept = Timer.now () in
    handle_parsed t conn ~t_accept (Protocol.parse_frame line)
  end

let handle_v2_frame t conn buf ~pos ~len =
  let t_accept = Timer.now () in
  handle_parsed t conn ~t_accept (Frame.decode_request buf ~pos ~len)

let drain_inflight conn =
  Mutex.lock conn.inflight_mutex;
  while conn.inflight > 0 do
    Condition.wait conn.inflight_done conn.inflight_mutex
  done;
  Mutex.unlock conn.inflight_mutex

let connection_loop t fd =
  let conn =
    {
      fd;
      write_mutex = Mutex.create ();
      inflight_mutex = Mutex.create ();
      inflight_done = Condition.create ();
      wbuf = Bytebuf.create 4096;
      dbuf = Bytebuf.create 4096;
      rbuf = Bytebuf.create 4096;
      drain_cap = t.config.max_frame_bytes;
      wire = Undecided;
      inflight = 0;
      alive = true;
    }
  in
  (* A short receive timeout turns blocking reads into periodic stop
     checks, so idle connections cannot stall the drain. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2
   with Unix.Unix_error _ -> ());
  (* A send timeout lets the connection thread read ahead while a reply
     waits for room (see [write_all]). *)
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 0.02
   with Unix.Unix_error _ -> ());
  let rbuf = conn.rbuf in
  let overflow = ref false in
  let eof = ref false in
  (* v1: offset the newline scan already covered, so re-scans after a
     partial read don't retraverse the prefix. *)
  let scanned = ref 0 in
  let frame_overflow () =
    overflow := true;
    send_error t ~reply:(conn_respond ~drain:true conn) ~id:Json.Null
      (Protocol.bad_request
         (Printf.sprintf "frame exceeds %d bytes" t.config.max_frame_bytes))
  in
  (* Serve every complete v1 line in [rbuf]; keep the partial tail.
     The scan is bounded by the logical length — the backing store can
     hold stale bytes past it, so [Bytes.index_from] would be wrong. *)
  let process_v1 () =
    let progress = ref true in
    while !progress do
      progress := false;
      let bytes = Bytebuf.unsafe_bytes rbuf in
      let len = Bytebuf.length rbuf in
      let nl = ref !scanned in
      while !nl < len && Bytes.unsafe_get bytes !nl <> '\n' do
        incr nl
      done;
      if !nl < len then begin
        let line = Bytes.sub_string bytes 0 !nl in
        Bytebuf.shift_left rbuf ~pos:(!nl + 1);
        scanned := 0;
        handle_line t conn line;
        progress := true
      end
      else scanned := len
    done;
    if Bytebuf.length rbuf > t.config.max_frame_bytes then frame_overflow ()
  in
  (* Serve every complete length-prefixed v2 frame in [rbuf]. *)
  let process_v2 () =
    let progress = ref true in
    while !progress && not !overflow do
      progress := false;
      let len = Bytebuf.length rbuf in
      if len >= 4 then begin
        let bytes = Bytebuf.unsafe_bytes rbuf in
        let flen =
          (Bytes.get_uint8 bytes 0 lsl 24)
          lor (Bytes.get_uint8 bytes 1 lsl 16)
          lor (Bytes.get_uint8 bytes 2 lsl 8)
          lor Bytes.get_uint8 bytes 3
        in
        if flen > t.config.max_frame_bytes then frame_overflow ()
        else if len >= 4 + flen then begin
          handle_v2_frame t conn bytes ~pos:4 ~len:flen;
          Bytebuf.shift_left rbuf ~pos:(4 + flen);
          progress := true
        end
      end
    done
  in
  (* First byte decides the framing: 0xf2 opens the v2 hello (echoed
     back once complete; a mismatch after 0xf2 is a clean close),
     anything else is a v1 JSON line already in flight. *)
  let negotiate () =
    let bytes = Bytebuf.unsafe_bytes rbuf in
    if Bytes.get bytes 0 <> Frame.hello_byte then conn.wire <- V1
    else begin
      let hlen = String.length Frame.hello in
      if Bytebuf.length rbuf >= hlen then
        if Bytes.sub_string bytes 0 hlen = Frame.hello then begin
          conn.wire <- V2;
          Bytebuf.shift_left rbuf ~pos:hlen;
          conn_send_raw conn Frame.hello
        end
        else eof := true
    end
  in
  while (not !eof) && (not !overflow) && not (Atomic.get t.stop_flag) do
    (match read_some conn with
    | 0 -> eof := true
    | _ ->
        if conn.wire = Undecided then negotiate ();
        (match conn.wire with
        | Undecided -> () (* partial hello: wait for the rest *)
        | V1 -> process_v1 ()
        | V2 -> process_v2 ())
    | exception Unix.Unix_error (e, _, _) when transient e ->
        () (* receive-timeout tick: recheck the stop flag *)
    | exception Unix.Unix_error _ -> eof := true)
  done;
  (* A final unterminated v1 line at EOF is still served (netcat -q0
     style clients close without a trailing newline); a partial v2
     frame or hello is dropped — binary framing is explicit. *)
  if !eof && (not !overflow) && conn.wire = V1 && Bytebuf.length rbuf > 0
  then begin
    let line = Bytebuf.contents rbuf in
    Bytebuf.clear rbuf;
    handle_line t conn line
  end;
  (* Answer everything this connection admitted before hanging up. *)
  drain_inflight conn;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conn_mutex;
  t.live_conns <- t.live_conns - 1;
  if t.live_conns = 0 then Condition.broadcast t.conn_done;
  Mutex.unlock t.conn_mutex

(* ---------- accept loop ---------- *)

let accept_loop t =
  let continue = ref true in
  while !continue && not (Atomic.get t.stop_flag) do
    match Unix.select [ t.listener ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listener with
        | fd, _ ->
            Mutex.lock t.conn_mutex;
            t.live_conns <- t.live_conns + 1;
            Mutex.unlock t.conn_mutex;
            ignore (Thread.create (fun () -> connection_loop t fd) ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> continue := false)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (* No new connections, so no new pushes after the queue drains;
     closing here starts the worker drain. *)
  Admission.close t.queue

(* ---------- lifecycle ---------- *)

let start config =
  let jobs = Stdlib.max 1 config.jobs in
  (* A client hanging up mid-response must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port)
  in
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener addr;
     Unix.listen listener 128
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let actual_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let t =
    {
      config = { config with jobs };
      listener;
      actual_port;
      server_state =
        State.create ~cache_capacity:config.cache_capacity
          ~queue_capacity:config.queue_capacity ~seed:config.seed
          ~session_ttl_s:config.session_ttl_s ();
      queue = Admission.create ~capacity:config.queue_capacity ();
      stop_flag = Atomic.make false;
      conn_mutex = Mutex.create ();
      conn_done = Condition.create ();
      live_conns = 0;
      accepter = None;
      workers = [];
      waited = false;
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.accepter <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let stop t = Atomic.set t.stop_flag true

let wait t =
  let already =
    Mutex.lock t.conn_mutex;
    let w = t.waited in
    t.waited <- true;
    Mutex.unlock t.conn_mutex;
    w
  in
  if not already then begin
    (match t.accepter with Some th -> Thread.join th | None -> ());
    (* Accept loop closed the queue on its way out; worker domains drain
       every admitted job, answer it, and exit. *)
    List.iter Domain.join t.workers;
    Mutex.lock t.conn_mutex;
    while t.live_conns > 0 do
      Condition.wait t.conn_done t.conn_mutex
    done;
    Mutex.unlock t.conn_mutex
  end

let run config =
  let t = start config in
  let on_signal _ = stop t in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  t
