(** Client-side adapter over the [tlp.rpc/v2] codec.

    There is one v2 codec, {!Tlp_server.Frame}; this module gives it
    the client's call-site shape.  Requests are built from the same
    arguments {!Client.request_line} renders as JSON and validated by
    the v1 parser, so switching protocol never changes a call site and
    a request either framing refuses is refused with the same message.
    PROTOCOL.md §7 has the wire layout. *)

val schema : string
(** ["tlp.rpc/v2"]. *)

val hello : string
(** The 5-byte connection preamble, ["\xf2TLP2"]: the client's first
    bytes, echoed verbatim by the server before the first frame. *)

val request_doc :
  ?id:Tlp_util.Json_out.t ->
  ?timeout_ms:int ->
  ?priority:string ->
  ?trace:bool ->
  meth:string ->
  ?params:Tlp_util.Json_out.t ->
  unit ->
  Tlp_util.Json_out.t
(** The request document both framings are built from: fields [id],
    [method], [timeout_ms], [priority], [trace] (only when [true]) and
    [params], in that order, each only when given. *)

val encode_request :
  ?id:Tlp_util.Json_out.t ->
  ?timeout_ms:int ->
  ?priority:string ->
  ?trace:bool ->
  meth:string ->
  ?params:Tlp_util.Json_out.t ->
  unit ->
  (string, string) result
(** Encode one length-prefixed request frame from the same arguments
    as {!Client.request_line}.  Instances may be inline objects or the
    text format.  [Error] is the [bad_request] message a v1 server
    returns for the same request, or, for the few requests v1 accepts
    but the binary layout cannot carry (a negative delta index), a
    description of why — either way nothing was sent. *)

(** One decoded response payload. [Rpc_err] carries the wire error
    codes verbatim ([bad_request] | [overloaded] | [timeout] |
    [internal] | [unavailable]). *)
type payload =
  | Result of {
      id : Tlp_util.Json_out.t;
      result : Tlp_util.Json_out.t;
      trace : Tlp_util.Json_out.t option;
    }
  | Rpc_err of {
      id : Tlp_util.Json_out.t;
      code : string;
      message : string;
    }

val decode_response : string -> (payload, string) result
(** Decode one response payload (the bytes {e after} the 4-byte length
    prefix). Bounds-checked throughout: truncated or corrupt payloads
    are [Error], never an exception. *)
