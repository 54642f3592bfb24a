(** Reconnecting TCP client for the [tlp.rpc] partition service,
    speaking either framing: newline-delimited JSON ([V1], the
    default) or length-prefixed binary frames ([V2], negotiated by the
    {!Frame.hello} exchange on connect).

    One {!t} owns (at most) one connection and reuses it across
    requests; it dials lazily on the first call and re-dials after any
    transport failure.  Requests are strictly sequential per client —
    one in flight at a time — so responses correlate positionally and a
    read never consumes another request's reply.  A client is {e not}
    thread-safe: give each worker thread/domain its own (the load
    generator does exactly that).

    Failures are classified structurally ({!error}) so retry policy is
    data: {!retryable} says which classes a {!call} may retry
    ([Overloaded] backpressure and [Transport] faults), and the
    schedule comes from a {!Backoff.policy} with deterministic jitter
    drawn from the client's [Rng] stream.  Per-request deadlines bound
    the {e whole} call — connect, send, await, and every backoff sleep;
    a deadline that would be crossed by the next backoff returns
    [Timeout] immediately instead of sleeping through it. *)

(** Which wire protocol a client speaks; fixed at {!create} time and
    re-negotiated (for [V2]) on every re-dial. *)
type proto = V1 | V2

type error =
  | Overloaded of string
      (** the server shed the request ([overloaded] wire error); it was
          not executed — safe to retry after backoff *)
  | Timeout of string
      (** a deadline expired: the server's ([timeout] wire error), or
          the client's while awaiting a response or between retries *)
  | Transport of string
      (** socket-level failure: connect refused, reset, unexpected EOF.
          The connection is closed; the next call re-dials.  Retrying
          may re-execute a request the server already started. *)
  | Routing_stale of string
      (** every attempt of a retried call ({!call_line}/{!call_frame})
          failed at the transport layer: the address never produced a
          response across the whole backoff budget, so the client's
          picture of {e where} the service lives is suspect — a shard
          died or the ring moved.  Cluster-aware callers should
          re-learn the ring (the [cluster] RPC, PROTOCOL.md §8) and
          re-route rather than retry this address; accordingly it is
          not {!retryable}.  Single-attempt calls ({!round_trip})
          report plain [Transport]. *)
  | Bad_response of string
      (** the server's bytes violate the protocol (unparseable JSON,
          wrong schema, missing fields).  Never retried: a peer that
          mangles frames will mangle the retry too. *)
  | Rpc_error of { code : string; message : string }
      (** any other structured wire error ([bad_request], [internal]);
          retrying an unchanged request would fail identically *)

val error_to_string : error -> string
(** One-line rendering for logs and CLI diagnostics. *)

val retryable : error -> bool
(** [true] exactly for [Overloaded _] and [Transport _].
    [Routing_stale] is the post-budget classification of transport
    failures — retrying it on the same address is exactly what it says
    not to do. *)

type response = {
  id : Tlp_util.Json_out.t;  (** echoed request id *)
  result : Tlp_util.Json_out.t;  (** the [result] member *)
  trace : Tlp_util.Json_out.t option;
      (** the [trace] member when the request asked for one *)
  raw : string;  (** the response line verbatim *)
}

val request_line :
  ?id:Tlp_util.Json_out.t ->
  ?timeout_ms:int ->
  ?priority:string ->
  ?trace:bool ->
  meth:string ->
  ?params:Tlp_util.Json_out.t ->
  unit ->
  string
(** Render one request frame (no trailing newline).  Field order is
    fixed ([id], [method], [timeout_ms], [priority], [trace], [params];
    absent options are omitted), so the same arguments always produce
    the same bytes — the load generator's replay digests rely on this.
    [priority] is the admission class ("interactive" | "batch"); omit
    it for the server default (interactive). *)

val classify_response : string -> (response, error) result
(** Interpret one response line against the protocol: [ok:true]
    becomes a {!response}, wire errors map to {!error} constructors
    ([overloaded] → [Overloaded], [timeout] → [Timeout], the rest →
    [Rpc_error]), and anything structurally off is [Bad_response]. *)

type t

val create :
  ?host:string ->
  ?port:int ->
  ?proto:proto ->
  ?policy:Backoff.policy ->
  ?default_deadline_ms:int ->
  rng:Tlp_util.Rng.t ->
  unit ->
  t
(** A client for [host:port] (default [127.0.0.1:7171]).  Nothing is
    dialed until the first request.  [proto] (default [V1]) selects
    the framing for every call on this client.  [rng] feeds backoff
    jitter only — it never influences request contents.
    [default_deadline_ms] applies to calls that pass no explicit
    deadline ([None] = wait forever). *)

val close : t -> unit
(** Drop the connection (if any).  The client remains usable: the next
    request re-dials. *)

val is_connected : t -> bool

val connections : t -> int
(** Number of dials performed so far — the connection-reuse
    observability hook (N sequential calls on a healthy server leave
    this at 1). *)

val proto : t -> proto

val round_trip : t -> ?deadline_ms:int -> string -> (string, error) result
(** [round_trip t line] sends one frame line and returns the raw
    response line, verbatim.  Single attempt: no parsing, no retry —
    errors are only [Timeout]/[Transport].  This is the scripted-client
    primitive ([tlp_serve call]) where responses must be echoed byte
    for byte, protocol errors included. *)

val round_trip_frame :
  t -> ?deadline_ms:int -> string -> (string, error) result
(** The [V2] analogue of {!round_trip}: send one pre-encoded
    length-prefixed frame (from {!Frame.encode_request}) and return
    the raw response payload, length prefix stripped.  Single attempt,
    no retry. *)

val call_line : t -> ?deadline_ms:int -> string -> (response, error) result
(** [round_trip] plus {!classify_response} plus retries: {!retryable}
    failures are re-attempted on the client's {!Backoff.policy} (with
    reconnect after transport faults) until the budget or the deadline
    runs out.  The deadline covers all attempts and sleeps.  The
    request bytes are rendered once and reused verbatim across every
    retry.  A budget exhausted entirely on transport faults comes back
    as [Routing_stale], not [Transport] (see {!error}).  [V1] clients
    only. *)

val call_frame : t -> ?deadline_ms:int -> string -> (response, error) result
(** {!call_line} for a [V2] client: send one pre-encoded frame with
    the same retry/backoff/deadline behavior, decode the binary
    response.  [response.raw] holds the response payload bytes. *)

val call :
  t ->
  ?id:Tlp_util.Json_out.t ->
  ?timeout_ms:int ->
  ?priority:string ->
  ?trace:bool ->
  ?deadline_ms:int ->
  meth:string ->
  ?params:Tlp_util.Json_out.t ->
  unit ->
  (response, error) result
(** Convenience: {!request_line} then {!call_line} on a [V1] client,
    {!Frame.encode_request} then {!call_frame} on a [V2] one — the
    call site is protocol-independent.  [timeout_ms] is the
    {e server-side} queue deadline carried in the frame; [priority]
    the server-side admission class; [deadline_ms] is the
    {e client-side} end-to-end bound.  On a [V2] client, a request the
    v1 parser refuses (or the binary layout cannot carry) returns
    [Rpc_error] with code [bad_request], and the v1 server's message,
    without touching the wire. *)
