(** The codec for the [tlp.rpc/v2] binary framing, both directions.

    A v2 connection opens with the 5-byte {!hello}; the server echoes
    it, then both directions carry 4-byte big-endian length-prefixed
    frames (PROTOCOL.md §7). Request decoding mirrors
    [Protocol.parse_frame]'s validation — same bounds, same error
    messages for every rule both framings can express — which is what
    makes the v1/v2 differential test meaningful.  It is the only v2
    codec: [Tlp_client.Frame] is a thin adapter over it. *)

val schema : string
(** ["tlp.rpc/v2"]. *)

val hello : string
(** The 5-byte connection preamble, ["\xf2TLP2"]. Sent by the client
    as its first bytes and echoed verbatim by the server. *)

val hello_byte : char
(** First byte of {!hello} ([0xf2]) — can never begin a v1 JSON
    frame, so one byte decides the protocol. *)

(** {1 Requests} *)

val encode_request : Tlp_util.Bytebuf.t -> Protocol.frame -> unit
(** Append one length-prefixed request frame.  Raises
    [Invalid_argument] on what the layout cannot carry: an id that is
    not null/int/string, a negative count or index, or a signed value
    outside the zigzag domain. *)

val decode_request :
  Bytes.t ->
  pos:int ->
  len:int ->
  (Protocol.frame, Tlp_util.Json_out.t * Protocol.error) result
(** Decode one request payload (the bytes {e after} the length
    prefix). On error, returns the request id when it could be
    recovered so the error response stays correlated — malformed or
    truncated payloads yield a structured [bad_request], never an
    exception. *)

(** {1 Responses}

    Encoders append one length-prefixed response frame to the
    (pooled) write buffer. [result] is a pre-encoded
    [Tlp_util.Binval] value spliced verbatim — cache hits replay
    stored bytes, exactly like the v1 path. *)

val encode_ok :
  Tlp_util.Bytebuf.t ->
  id:Tlp_util.Json_out.t ->
  result:string ->
  trace:Tlp_util.Json_out.t option ->
  unit
(** [result] is pre-encoded Binval bytes (a cache entry's [v2]); the
    trace, when present, is appended after the result exactly like the
    v1 envelope's [trace] member. *)

val encode_ok_doc :
  Tlp_util.Bytebuf.t ->
  id:Tlp_util.Json_out.t ->
  doc:Tlp_util.Json_out.t ->
  trace:Tlp_util.Json_out.t option ->
  unit
(** As {!encode_ok} for an un-cached result tree: the document is
    Binval-encoded straight into the write buffer, no intermediate
    string. *)

val encode_error :
  Tlp_util.Bytebuf.t -> id:Tlp_util.Json_out.t -> Protocol.error -> unit

(** One decoded response. *)
type reply = {
  id : Tlp_util.Json_out.t;
  body :
    (Tlp_util.Json_out.t * Tlp_util.Json_out.t option, Protocol.error) result;
      (** [Ok (result, trace)] or the typed error, any of the five codes *)
}

val decode_response : string -> (reply, string) result
(** Decode one response payload (the bytes {e after} the 4-byte length
    prefix).  Bounds-checked throughout: truncated or corrupt payloads
    are [Error], never an exception. *)
