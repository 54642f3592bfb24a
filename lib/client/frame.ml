(* Client-side adapter over the one [tlp.rpc/v2] codec
   ([Tlp_server.Frame]).  A request is built from the same arguments
   [Client.request_line] renders as JSON, validated by the v1 parser
   ([Protocol.parse_request]) and encoded by the server's own encoder,
   so the two framings accept the same requests, with the same
   defaults and the same refusal messages.  See PROTOCOL.md §7 for the
   layout. *)

module Json = Tlp_util.Json_out
module Bytebuf = Tlp_util.Bytebuf
module Protocol = Tlp_server.Protocol
module Sframe = Tlp_server.Frame

let schema = Sframe.schema
let hello = Sframe.hello

let request_doc ?id ?timeout_ms ?priority ?(trace = false) ~meth ?params () =
  Json.Obj
    ((match id with Some id -> [ ("id", id) ] | None -> [])
    @ [ ("method", Json.String meth) ]
    @ (match timeout_ms with
      | Some ms -> [ ("timeout_ms", Json.Int ms) ]
      | None -> [])
    @ (match priority with
      | Some p -> [ ("priority", Json.String p) ]
      | None -> [])
    @ (if trace then [ ("trace", Json.Bool true) ] else [])
    @ match params with Some p -> [ ("params", p) ] | None -> [])

let encode_request ?id ?timeout_ms ?priority ?trace ~meth ?params () =
  match
    Protocol.parse_request
      (request_doc ?id ?timeout_ms ?priority ?trace ~meth ?params ())
  with
  | Error (_, err) -> Error err.Protocol.message
  | Ok frame -> (
      let buf = Bytebuf.create 256 in
      match Sframe.encode_request buf frame with
      | () -> Ok (Bytebuf.contents buf)
      | exception Invalid_argument msg ->
          Error ("not expressible in " ^ schema ^ ": " ^ msg))

type payload =
  | Result of { id : Json.t; result : Json.t; trace : Json.t option }
  | Rpc_err of { id : Json.t; code : string; message : string }

let decode_response payload =
  Result.map
    (fun { Sframe.id; body } ->
      match body with
      | Ok (result, trace) -> Result { id; result; trace }
      | Error { Protocol.code; message } ->
          Rpc_err { id; code = Protocol.error_code_string code; message })
    (Sframe.decode_response payload)
