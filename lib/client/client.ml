module Json = Tlp_util.Json_out
module Rng = Tlp_util.Rng
module Timer = Tlp_util.Timer
module Bytebuf = Tlp_util.Bytebuf

let schema = "tlp.rpc/v1"

type proto = V1 | V2

type error =
  | Overloaded of string
  | Timeout of string
  | Transport of string
  | Routing_stale of string
  | Bad_response of string
  | Rpc_error of { code : string; message : string }

let error_to_string = function
  | Overloaded m -> "overloaded: " ^ m
  | Timeout m -> "timeout: " ^ m
  | Transport m -> "transport: " ^ m
  | Routing_stale m -> "routing stale: " ^ m
  | Bad_response m -> "bad response: " ^ m
  | Rpc_error { code; message } -> code ^ ": " ^ message

let retryable = function
  | Overloaded _ | Transport _ -> true
  | Timeout _ | Routing_stale _ | Bad_response _ | Rpc_error _ -> false

type response = {
  id : Json.t;
  result : Json.t;
  trace : Json.t option;
  raw : string;
}

(* Internal control flow for socket failures; never escapes this module. *)
exception Fail of error

let request_line ?id ?timeout_ms ?priority ?trace ~meth ?params () =
  Json.to_string
    (Frame.request_doc ?id ?timeout_ms ?priority ?trace ~meth ?params ())

let rpc_error ~code message =
  match code with
  | "overloaded" -> Overloaded message
  | "timeout" -> Timeout message
  | _ -> Rpc_error { code; message }

let classify_response raw =
  let bad fmt = Printf.ksprintf (fun m -> Error (Bad_response m)) fmt in
  match Json.parse raw with
  | Error msg -> bad "unparseable response: %s" msg
  | Ok (Json.Obj fields) -> (
      let field name = List.assoc_opt name fields in
      match field "schema" with
      | Some (Json.String s) when s = schema -> (
          let id = Option.value (field "id") ~default:Json.Null in
          match field "ok" with
          | Some (Json.Bool true) -> (
              match field "result" with
              | Some result ->
                  Ok { id; result; trace = field "trace"; raw }
              | None -> bad "ok response without \"result\"")
          | Some (Json.Bool false) -> (
              match field "error" with
              | Some (Json.Obj err) -> (
                  match
                    (List.assoc_opt "code" err, List.assoc_opt "message" err)
                  with
                  | Some (Json.String code), Some (Json.String message) ->
                      Error (rpc_error ~code message)
                  | _ -> bad "error object missing code/message strings")
              | _ -> bad "error response without \"error\" object")
          | _ -> bad "response missing boolean \"ok\"")
      | _ -> bad "response missing schema %S" schema)
  | Ok _ -> bad "response is not a JSON object"

type t = {
  host : string;
  port : int;
  proto : proto;
  policy : Backoff.policy;
  default_deadline_ms : int option;
  rng : Rng.t;
  inbuf : Bytebuf.t;
      (* received bytes not yet consumed; the socket reads straight
         into its backing store *)
  mutable scanned : int;  (* prefix of [inbuf] known to hold no newline *)
  mutable fd : Unix.file_descr option;
  mutable rcvtimeo : float;
      (* SO_RCVTIMEO last set on [fd]; negative on a fresh socket *)
  mutable dials : int;
}

let create ?(host = "127.0.0.1") ?(port = 7171) ?(proto = V1)
    ?(policy = Backoff.default) ?default_deadline_ms ~rng () =
  {
    host;
    port;
    proto;
    policy;
    default_deadline_ms;
    rng;
    inbuf = Bytebuf.create 8192;
    scanned = 0;
    fd = None;
    rcvtimeo = -1.0;
    dials = 0;
  }

let discard_input t =
  Bytebuf.clear t.inbuf;
  t.scanned <- 0

let close t =
  (match t.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None;
  discard_input t

let is_connected t = Option.is_some t.fd
let connections t = t.dials
let proto t = t.proto

let resolve t =
  match Unix.inet_addr_of_string t.host with
  | addr -> Unix.ADDR_INET (addr, t.port)
  | exception Failure _ -> (
      match Unix.gethostbyname t.host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 ->
          Unix.ADDR_INET (addrs.(0), t.port)
      | _ | (exception Not_found) ->
          raise (Fail (Transport (Printf.sprintf "cannot resolve %S" t.host))))

let ensure_connected t =
  match t.fd with
  | Some fd -> fd
  | None -> (
      let addr = resolve t in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () ->
          t.fd <- Some fd;
          t.rcvtimeo <- -1.0;
          discard_input t;
          t.dials <- t.dials + 1;
          fd
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise
            (Fail
               (Transport
                  (Printf.sprintf "connect %s:%d: %s" t.host t.port
                     (Unix.error_message err)))))

(* Timeout/Transport failures leave the stream position unknown (a reply
   may arrive later and would desync the next call), so both tear the
   connection down; the next request re-dials. *)
let fail_close t e =
  close t;
  raise (Fail e)

let send_all t fd payload =
  let len = Bytes.length payload in
  let rec go off =
    if off < len then
      match Unix.write fd payload off (len - off) with
      | 0 -> fail_close t (Transport "connection closed while sending")
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception Unix.Unix_error (err, _, _) ->
          fail_close t
            (Transport (Printf.sprintf "send: %s" (Unix.error_message err)))
  in
  go 0

(* Only the bytes after [scanned] are searched, so a long response
   arriving in many reads costs linear time, not quadratic. *)
let take_line t =
  let bytes = Bytebuf.unsafe_bytes t.inbuf in
  let len = Bytebuf.length t.inbuf in
  let rec find i =
    if i < len && Bytes.get bytes i <> '\n' then find (i + 1) else i
  in
  let nl = find t.scanned in
  if nl = len then begin
    t.scanned <- len;
    None
  end
  else begin
    let line = Bytes.sub_string bytes 0 nl in
    Bytebuf.shift_left t.inbuf ~pos:(nl + 1);
    t.scanned <- 0;
    Some line
  end

(* One socket read appended to [inbuf], honoring the deadline.  The
   timeout is set only when it differs from the one already on the
   socket: a deadline re-arms it before every read, while deadline-free
   calls leave it at 0 and make no syscall beyond the read. *)
let fill t fd ~deadline =
  let remaining =
    match deadline with
    | None -> 0.0 (* SO_RCVTIMEO 0 = block indefinitely *)
    | Some d ->
        let r = d -. Timer.now () in
        if r <= 0.0 then
          fail_close t (Timeout "deadline expired awaiting response")
        else r
  in
  if remaining <> t.rcvtimeo then begin
    Unix.setsockopt_float fd SO_RCVTIMEO remaining;
    t.rcvtimeo <- remaining
  end;
  Bytebuf.reserve t.inbuf 8192;
  let bytes = Bytebuf.unsafe_bytes t.inbuf in
  let off = Bytebuf.length t.inbuf in
  match Unix.read fd bytes off (Bytes.length bytes - off) with
  | 0 -> fail_close t (Transport "connection closed by server")
  | n -> Bytebuf.unsafe_advance t.inbuf n
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      fail_close t (Timeout "deadline expired awaiting response")
  | exception Unix.Unix_error (err, _, _) ->
      fail_close t
        (Transport (Printf.sprintf "recv: %s" (Unix.error_message err)))

let recv_line t fd ~deadline =
  let rec go () =
    match take_line t with
    | Some line -> line
    | None ->
        fill t fd ~deadline;
        go ()
  in
  go ()

let recv_exact t fd ~deadline n =
  while Bytebuf.length t.inbuf < n do
    fill t fd ~deadline
  done;
  let s = Bytes.sub_string (Bytebuf.unsafe_bytes t.inbuf) 0 n in
  Bytebuf.shift_left t.inbuf ~pos:n;
  t.scanned <- 0;
  s

(* Read one length-prefixed v2 frame; returns the payload bytes. *)
let recv_frame t fd ~deadline =
  let hdr = recv_exact t fd ~deadline 4 in
  recv_exact t fd ~deadline
    (Int32.to_int (String.get_int32_be hdr 0) land 0xffff_ffff)

let deadline_of t deadline_ms =
  match
    match deadline_ms with Some _ -> deadline_ms | None -> t.default_deadline_ms
  with
  | None -> None
  | Some ms -> Some (Timer.now () +. (float_of_int ms /. 1000.0))

(* On a v2 client the connection must complete the hello exchange
   before the first frame; a peer that answers anything but the echoed
   hello does not speak v2 and the dial fails as a transport error. *)
let handshake t fd ~deadline =
  send_all t fd (Bytes.unsafe_of_string Frame.hello);
  let echo = recv_exact t fd ~deadline (String.length Frame.hello) in
  if echo <> Frame.hello then
    fail_close t (Transport "server did not complete the v2 hello")

let connect_for t ~deadline =
  let fresh = Option.is_none t.fd in
  let fd = ensure_connected t in
  if fresh && t.proto = V2 then handshake t fd ~deadline;
  fd

(* One send/receive attempt over whichever framing the client speaks.
   [payload] is the fully rendered request bytes — rendered once per
   call, reused verbatim across reconnect attempts. *)
let attempt t ~deadline payload =
  match
    let fd = connect_for t ~deadline in
    send_all t fd payload;
    match t.proto with
    | V1 -> recv_line t fd ~deadline
    | V2 -> recv_frame t fd ~deadline
  with
  | raw -> Ok raw
  | exception Fail e -> Error e

let round_trip t ?deadline_ms line =
  attempt t
    ~deadline:(deadline_of t deadline_ms)
    (Bytes.of_string (line ^ "\n"))

let round_trip_frame t ?deadline_ms frame =
  attempt t ~deadline:(deadline_of t deadline_ms) (Bytes.of_string frame)

let classify_payload raw =
  match Frame.decode_response raw with
  | Error msg -> Error (Bad_response msg)
  | Ok (Frame.Result { id; result; trace }) -> Ok { id; result; trace; raw }
  | Ok (Frame.Rpc_err { code; message; _ }) -> Error (rpc_error ~code message)

let retry_loop t ~deadline ~classify payload =
  match
    Backoff.run t.policy ~rng:t.rng ~now:Timer.now
      ~sleep:(fun s -> if s > 0.0 then Unix.sleepf s)
      ?deadline ~retryable
      ~on_deadline:(fun e ->
        Timeout
          (Printf.sprintf "deadline expired during retry backoff (last: %s)"
             (error_to_string e)))
      (fun ~attempt:_ ->
        match attempt t ~deadline payload with
        | Ok raw -> classify raw
        | Error _ as e -> e)
  with
  | Error (Transport m) ->
      (* [Transport] is always retryable, so a [Transport] that comes
         back from the driver burned the whole attempt budget without
         ever reaching a live peer: the address itself is suspect.  The
         reclassification is what a routing tier keys on — re-learn the
         ring via [cluster] instead of hammering a dead shard — and it
         is deliberately non-{!retryable} so naive callers stop too.
         Single attempts ([round_trip]) keep plain [Transport]. *)
      Error
        (Routing_stale
           (Printf.sprintf "%s:%d unreachable after %d attempts: %s" t.host
              t.port t.policy.Backoff.max_attempts m))
  | outcome -> outcome

let call_line t ?deadline_ms line =
  let deadline = deadline_of t deadline_ms in
  (* Render once: retries resend these exact bytes. *)
  let payload = Bytes.of_string (line ^ "\n") in
  retry_loop t ~deadline ~classify:classify_response payload

let call_frame t ?deadline_ms frame =
  let deadline = deadline_of t deadline_ms in
  let payload = Bytes.of_string frame in
  retry_loop t ~deadline ~classify:classify_payload payload

let call t ?id ?timeout_ms ?priority ?trace ?deadline_ms ~meth ?params () =
  match t.proto with
  | V1 ->
      call_line t ?deadline_ms
        (request_line ?id ?timeout_ms ?priority ?trace ~meth ?params ())
  | V2 -> (
      match
        Frame.encode_request ?id ?timeout_ms ?priority ?trace ~meth ?params ()
      with
      | Error msg -> Error (Rpc_error { code = "bad_request"; message = msg })
      | Ok frame -> call_frame t ?deadline_ms frame)
