(** The TCP daemon: accept loop, connection threads, worker domains
    popping the bounded {!Admission} queue, graceful drain.

    Threading model (see DESIGN.md §7 for the dataflow):

    - the {!Conn} core's {e accept} thread multiplexes the listener
      with a short [select] tick so a stop request is noticed promptly;
    - one lightweight {!Conn} {e connection} thread per client reads
      frames and hands them to this module, which answers the
      control-plane methods, all protocol errors and every result-cache
      hit inline, and pushes the rest (a miss with its cache key) onto
      the admission queue — a full queue is answered immediately with
      [overloaded], never queued, never blocked on;
    - [jobs] {e worker} domains pop admitted jobs, enforce the deadline
      (a job whose deadline passed while queued is answered [timeout]
      without being solved), execute the handler and write the reply
      themselves;
    - {!stop} (or SIGTERM/SIGINT wired by the binary) begins the drain:
      the listener closes, the queue refuses new work, every admitted
      request is still answered, then worker domains and connections
      are joined.

    Replies carry the request [id], so pipelined requests on one
    connection may complete out of order; each response line is written
    atomically under a per-connection lock. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port — read it back with {!port} *)
  jobs : int;  (** worker domains *)
  queue_capacity : int;  (** admission queue bound *)
  cache_capacity : int;  (** LRU result-cache entries; 0 disables *)
  default_timeout_ms : int option;
      (** per-request deadline when the frame carries none; [None] = no
          deadline *)
  max_frame_bytes : int;  (** reject longer unterminated frames *)
  enable_debug : bool;  (** expose the [sleep] test method *)
  session_ttl_s : float;
      (** idle-session eviction threshold (PROTOCOL.md §9); [<= 0.0]
          disables eviction *)
}

val default_config : config
(** [127.0.0.1:7171], 4 jobs, queue 64, cache 256, 30s default timeout,
    4 MiB frames, debug off, 600s session TTL. *)

type t

val start : config -> t
(** Bind, listen, spawn the accept thread and worker domains, and
    return.  Raises [Unix.Unix_error] if the address cannot be bound.
    Also sets SIGPIPE to ignore (a client hanging up mid-response must
    not kill the daemon). *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val state : t -> State.t

val stop : t -> unit
(** Request graceful drain.  Returns immediately; {!wait} observes the
    completion.  Idempotent, and safe to call from a signal handler
    context (it only flips an atomic flag). *)

val wait : t -> unit
(** Block until the server has fully drained: listener closed, admitted
    requests answered, worker domains and connection threads joined.
    Returns immediately on a second call. *)

val run : config -> t
(** [start] plus SIGTERM/SIGINT handlers that {!stop} the returned
    server — the binary's entry point.  The caller still {!wait}s. *)
