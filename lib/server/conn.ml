module Json = Tlp_util.Json_out
module Timer = Tlp_util.Timer
module Bytebuf = Tlp_util.Bytebuf

(* The framing a connection speaks, decided by its first byte: 0xf2
   (which can never begin a JSON document) opens the v2 hello, anything
   else is a v1 JSON line already in flight. *)
type wire = Undecided | V1 | V2

type conn = {
  fd : Unix.file_descr;
  write_mutex : Mutex.t;
  wbuf : Bytebuf.t;
      (* pooled write buffer, guarded by [write_mutex]; grown to the
         connection's working set once, then reused per response *)
  rbuf : Bytebuf.t;
      (* pooled read buffer: the socket reads straight into its backing
         store and the frame scans walk it in place; only the connection
         thread touches it *)
  drain_cap : int;  (* read-ahead bound while a reply waits to be sent *)
  mutable wire : wire;
  mutable alive : bool;  (* peer still reachable for writes *)
}

type response = {
  resp_id : Json.t;
  body : (Handler.payload * Json.t option, Protocol.error) result;
}

type handler = {
  on_v1_line : string -> unit;
  on_v2_frame : Bytes.t -> pos:int -> len:int -> unit;
  on_refused : Protocol.error -> unit;
  on_close : unit -> unit;
}

type listener = {
  sock : Unix.file_descr;
  port : int;
  stop_flag : bool Atomic.t;
  mutex : Mutex.t;  (* guards the fields below *)
  all_closed : Condition.t;
  mutable live : int;
  mutable accepter : Thread.t option;
  mutable waited : bool;
}

(* ---------- reading ---------- *)

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

(* ---------- writing ---------- *)

(* Module-level recursion keeps the short-write retry loop free of the
   per-call ref a [while] needs.  A send-timeout tick with nothing sent
   means the client is not reading.  A worker domain just retries.  The
   connection thread ([drain]) is also the connection's only reader, and
   it writes replies of its own: if it only retried, a client that
   pipelines requests and reads no reply until all are sent would wait
   on it while it waits on the client.  So it first reads that pending
   input into [rbuf], to be served after this reply. *)
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

let[@tlp.hot] respond ~drain conn response =
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

let relay conn raw =
  Mutex.lock conn.write_mutex;
  Bytebuf.clear conn.wbuf;
  (match conn.wire with
  | Undecided | V1 ->
      Bytebuf.add_string conn.wbuf raw;
      Bytebuf.add_char conn.wbuf '\n'
  | V2 ->
      Bytebuf.add_u32_be conn.wbuf (String.length raw);
      Bytebuf.add_string conn.wbuf raw);
  flush_wbuf ~drain:true conn;
  Mutex.unlock conn.write_mutex


(* ---------- the connection loop ---------- *)

let connection_loop l ~max_frame_bytes handler_of fd =
  let conn =
    {
      fd;
      write_mutex = Mutex.create ();
      wbuf = Bytebuf.create 4096;
      rbuf = Bytebuf.create 4096;
      drain_cap = max_frame_bytes;
      wire = Undecided;
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
  let h = handler_of conn in
  let rbuf = conn.rbuf in
  let overflow = ref false in
  let eof = ref false in
  (* v1: offset the newline scan already covered, so re-scans after a
     partial read don't retraverse the prefix. *)
  let scanned = ref 0 in
  let frame_overflow () =
    overflow := true;
    let err =
      Protocol.bad_request
        (Printf.sprintf "frame exceeds %d bytes" max_frame_bytes)
    in
    ignore
      (respond ~drain:true conn { resp_id = Json.Null; body = Error err }
        : float * float);
    h.on_refused err
  in
  let line line = if String.trim line <> "" then h.on_v1_line line in
  (* Serve every complete v1 line in [rbuf]; keep the partial tail.
     The scan is bounded by the logical length — the backing store can
     hold stale bytes past it, so [Bytes.index_from] would be wrong. *)
  let rec process_v1 () =
    let bytes = Bytebuf.unsafe_bytes rbuf in
    let len = Bytebuf.length rbuf in
    let nl = ref !scanned in
    while !nl < len && Bytes.unsafe_get bytes !nl <> '\n' do
      incr nl
    done;
    if !nl < len then begin
      let l = Bytes.sub_string bytes 0 !nl in
      Bytebuf.shift_left rbuf ~pos:(!nl + 1);
      scanned := 0;
      line l;
      process_v1 ()
    end
    else begin
      scanned := len;
      if len > max_frame_bytes then frame_overflow ()
    end
  in
  (* Serve every complete length-prefixed v2 frame in [rbuf].  The
     handler sees the frame with its prefix, before any reply can grow
     (and so move) [rbuf]'s backing store. *)
  let rec process_v2 () =
    let len = Bytebuf.length rbuf in
    if len >= 4 then begin
      let bytes = Bytebuf.unsafe_bytes rbuf in
      let flen = Int32.to_int (Bytes.get_int32_be bytes 0) land 0xffff_ffff in
      if flen > max_frame_bytes then frame_overflow ()
      else if len >= 4 + flen then begin
        h.on_v2_frame bytes ~pos:0 ~len:(4 + flen);
        Bytebuf.shift_left rbuf ~pos:(4 + flen);
        process_v2 ()
      end
    end
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
          (* Nothing is admitted before the hello completes, so this
             thread is still the only writer and needs no lock. *)
          Bytebuf.add_string conn.wbuf Frame.hello;
          flush_wbuf ~drain:false conn
        end
        else eof := true
    end
  in
  while (not !eof) && (not !overflow) && not (Atomic.get l.stop_flag) do
    match read_some conn with
    | 0 -> eof := true
    | _ -> (
        if conn.wire = Undecided then negotiate ();
        match conn.wire with
        | Undecided -> () (* partial hello: wait for the rest *)
        | V1 -> process_v1 ()
        | V2 -> process_v2 ())
    | exception Unix.Unix_error (e, _, _) when transient e ->
        () (* receive-timeout tick: recheck the stop flag *)
    | exception Unix.Unix_error _ -> eof := true
  done;
  (* A final unterminated v1 line at EOF is still served (netcat -q0
     style clients close without a trailing newline); a partial v2
     frame or hello is dropped — binary framing is explicit. *)
  if !eof && (not !overflow) && conn.wire = V1 && Bytebuf.length rbuf > 0
  then begin
    let l = Bytebuf.contents rbuf in
    Bytebuf.clear rbuf;
    line l
  end;
  h.on_close ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock l.mutex;
  l.live <- l.live - 1;
  if l.live = 0 then Condition.broadcast l.all_closed;
  Mutex.unlock l.mutex

(* ---------- listener ---------- *)

let listen ~host ~port =
  (* A client hanging up mid-response must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  {
    sock = fd;
    port;
    stop_flag = Atomic.make false;
    mutex = Mutex.create ();
    all_closed = Condition.create ();
    live = 0;
    accepter = None;
    waited = false;
  }

let port l = l.port
let stopping l = Atomic.get l.stop_flag
let stop l = Atomic.set l.stop_flag true

let accept_loop l ~max_frame_bytes handler_of =
  let continue = ref true in
  while !continue && not (Atomic.get l.stop_flag) do
    match Unix.select [ l.sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true l.sock with
        | fd, _ ->
            Mutex.lock l.mutex;
            l.live <- l.live + 1;
            Mutex.unlock l.mutex;
            ignore
              (Thread.create
                 (fun () -> connection_loop l ~max_frame_bytes handler_of fd)
                 ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> continue := false)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  try Unix.close l.sock with Unix.Unix_error _ -> ()

let serve l ~max_frame_bytes ~finally handler_of =
  l.accepter <-
    Some
      (Thread.create
         (fun () ->
           accept_loop l ~max_frame_bytes handler_of;
           finally ())
         ())

let wait ?(joined = ignore) ?(closed = ignore) l =
  let already =
    Mutex.lock l.mutex;
    let w = l.waited in
    l.waited <- true;
    Mutex.unlock l.mutex;
    w
  in
  if not already then begin
    (match l.accepter with Some th -> Thread.join th | None -> ());
    joined ();
    Mutex.lock l.mutex;
    while l.live > 0 do
      Condition.wait l.all_closed l.mutex
    done;
    Mutex.unlock l.mutex;
    closed ()
  end

let stop_on_signals l =
  let on_signal _ = stop l in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
  with Invalid_argument _ -> ()
