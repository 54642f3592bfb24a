(** The connection core both daemons serve through: [tlp_serve]
    ([Server]) and [tlp_route] ([Tlp_route.Router]).

    It owns the listener and its [select]-tick accept thread, and one
    thread per connection that negotiates the framing from the first
    byte ([0xf2] opens the v2 hello, anything else is a v1 JSON line),
    splits v1 lines and v2 length-prefixed frames, refuses an
    oversized frame, and writes replies under a per-connection lock.
    Sockets carry a 20 ms send timeout: while a reply written by the
    connection thread waits for room, the thread reads the client's
    pending input ahead (up to the frame bound), so a client that
    pipelines requests before reading any reply cannot deadlock it.
    What a request means is the daemon's business: it receives frames
    through a {!handler} and answers with {!respond} or {!relay}. *)

type conn

type response = {
  resp_id : Tlp_util.Json_out.t;
  body : (Handler.payload * Tlp_util.Json_out.t option, Protocol.error) result;
      (** [Ok (payload, trace)] or [Error err] *)
}
(** A reply, rendered for the connection's framing: a v1 envelope
    splices a cache entry's JSON text, a v2 frame its Binval bytes. *)

val respond : drain:bool -> conn -> response -> float * float
(** Render and write one reply; returns the (render-done, write-done)
    timestamps.  [drain] is [true] exactly on the connection's own
    thread (in a handler callback), which reads input ahead while the
    socket is full; worker domains pass [false].  Writes to a peer that
    has gone away are dropped. *)

val relay : conn -> string -> unit
(** Write a response received verbatim from a shard (a v1 line
    without its newline, a v2 payload without its length prefix),
    restoring the framing.  Connection thread only. *)

type handler = {
  on_v1_line : string -> unit;  (** a non-blank line, newline stripped *)
  on_v2_frame : Bytes.t -> pos:int -> len:int -> unit;
      (** one frame, [len] bytes from [pos]: the 4-byte length prefix,
          then the payload.  Valid until the callback replies or
          returns. *)
  on_refused : Protocol.error -> unit;
      (** an oversized frame was answered with this error; the
          connection closes next *)
  on_close : unit -> unit;
      (** end of input, before the socket closes: may still wait for
          outstanding replies *)
}
(** A daemon's per-connection callbacks, run on the connection's
    thread. *)

type listener

val listen : host:string -> port:int -> listener
(** Bind and listen ([port = 0] picks one), and set SIGPIPE to ignore.
    @raise Unix.Unix_error if the address cannot be bound. *)

val port : listener -> int

val serve :
  listener ->
  max_frame_bytes:int ->
  finally:(unit -> unit) ->
  (conn -> handler) ->
  unit
(** Start the accept thread, building each connection's handler with
    the given function.  After {!stop} the thread closes the listener,
    runs [finally] and exits. *)

val stopping : listener -> bool

val stop : listener -> unit
(** Stop accepting; connection threads notice on their next 0.2 s
    receive tick.  Only flips an atomic flag: safe in a signal
    handler. *)

val stop_on_signals : listener -> unit
(** Make SIGTERM and SIGINT call {!stop}. *)

val wait : ?joined:(unit -> unit) -> ?closed:(unit -> unit) -> listener -> unit
(** Join the accept thread, run [joined], wait for every connection to
    close, run [closed].  A second call returns at once. *)
