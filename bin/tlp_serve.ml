(* tlp_serve: the partition service (tlp.rpc/v1, see PROTOCOL.md).

   Subcommands:
     serve   run the TCP daemon (default; SIGTERM/SIGINT drain gracefully)
     call    scripted client: send request lines, print validated responses *)

open Cmdliner
module Json = Tlp_util.Json_out
module Server = Tlp_server.Server
module Client = Tlp_client.Client

let host_arg =
  Arg.(
    value
    & opt string Server.default_config.Server.host
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind/connect address.")

let port_arg ~default =
  Arg.(
    value & opt int default
    & info [ "port"; "p" ] ~docv:"PORT"
        ~doc:"TCP port.  With $(b,serve), 0 picks an ephemeral port and \
              prints it on the listening line.")

(* ---------- serve ---------- *)

let serve host port jobs queue_capacity cache_capacity timeout_ms debug
    session_ttl =
  let config =
    {
      Server.default_config with
      Server.host;
      port;
      jobs;
      queue_capacity;
      cache_capacity;
      default_timeout_ms = (if timeout_ms <= 0 then None else Some timeout_ms);
      enable_debug = debug;
      session_ttl_s = session_ttl;
    }
  in
  match Server.run config with
  | t ->
      (* The listening line is the startup contract scripts parse; keep
         it stable and flushed. *)
      Printf.printf "%s listening on %s:%d\n%!" Tlp_server.Protocol.schema host
        (Server.port t);
      Server.wait t;
      prerr_endline "tlp_serve: drained, exiting"
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot listen on %s:%d: %s\n" host port
        (Unix.error_message e);
      exit 1

let serve_cmd =
  let jobs =
    Arg.(
      value & opt int Server.default_config.Server.jobs
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains that pop the admission queue and solve.")
  in
  let queue =
    Arg.(
      value & opt int Server.default_config.Server.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Admission-queue bound; a full queue answers \
                $(b,overloaded) immediately.")
  in
  let cache =
    Arg.(
      value & opt int Server.default_config.Server.cache_capacity
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"LRU result-cache entries (0 disables).")
  in
  let timeout =
    Arg.(
      value & opt int 30_000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline (0 = none).")
  in
  let debug =
    Arg.(
      value & flag
      & info [ "debug" ]
          ~doc:"Enable the $(b,sleep) test method (see PROTOCOL.md).")
  in
  let session_ttl =
    Arg.(
      value
      & opt float Server.default_config.Server.session_ttl_s
      & info [ "session-ttl" ] ~docv:"SECONDS"
          ~doc:"Idle-session eviction threshold for the $(b,open) / \
                $(b,update) / $(b,resolve) session methods (0 disables \
                eviction; see PROTOCOL.md section 9).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the tlp.rpc/v1 partition service")
    Term.(
      const serve $ host_arg $ port_arg ~default:Server.default_config.Server.port
      $ jobs $ queue $ cache $ timeout $ debug $ session_ttl)

(* ---------- call ---------- *)

(* Send request frames sequentially over ONE reused connection
   (Tlp_client.Client) and print each raw response line verbatim.  Each
   response is validated with the strict in-tree JSON validator;
   --expect-ok additionally fails on any "ok":false response; transport
   failures (cannot connect, reset, deadline) exit 2 with a clear
   message.  This is the scripted client the CI smoke job and the
   PROTOCOL.md transcripts run through.

   With --proto v2, each JSON request line is parsed with the server's
   own v1 parser, re-encoded as a binary v2 frame, and sent over a
   negotiated v2 connection.  The binary response is printed as its v1
   JSON rendering — so v1 and v2 runs of the same script must print
   byte-identical stdout — and the MD5 of each raw response payload
   goes to stderr ("frame <hex>") for byte-equality checks across
   repeated calls.  A line the parser refuses has no v2 encoding; it is
   answered locally with the refusal a v1 server sends for it, and no
   frame is sent. *)
let call host port requests expect_ok proto =
  let requests =
    (match requests with
    | [] -> In_channel.input_lines In_channel.stdin
    | rs -> rs)
    |> List.filter (fun l -> String.trim l <> "")
  in
  if requests = [] then begin
    prerr_endline "error: no requests (pass --request or pipe lines on stdin)";
    exit 1
  end;
  (* The rng only feeds backoff jitter, and round_trip never retries,
     so any fixed seed keeps `call` fully deterministic. *)
  let client =
    Client.create ~host ~port ~proto ~rng:(Tlp_util.Rng.create 1) ()
  in
  let failures = ref 0 in
  let check_line line =
    match Json.validate line with
    | Error msg ->
        incr failures;
        Printf.eprintf "error: invalid JSON response: %s\n" msg
    | Ok () ->
        if expect_ok then (
          match Json.parse line with
          | Ok (Json.Obj fields)
            when List.assoc_opt "ok" fields = Some (Json.Bool true) ->
              ()
          | _ ->
              incr failures;
              Printf.eprintf "error: response is not \"ok\":true: %s\n" line)
  in
  let transport_fail e =
    Printf.eprintf "error: %s:%d: %s\n" host port (Client.error_to_string e);
    exit 2
  in
  let call_v1 request =
    match Client.round_trip client request with
    | Error e -> transport_fail e
    | Ok line ->
        print_endline line;
        check_line line
  in
  let call_v2 request =
    let module Protocol = Tlp_server.Protocol in
    match Protocol.parse_frame request with
    | Error (id, err) ->
        let line = Protocol.render_error ~id err in
        print_endline line;
        check_line line
    | Ok frame -> (
        let buf = Tlp_util.Bytebuf.create 256 in
        Tlp_server.Frame.encode_request buf frame;
        match Client.round_trip_frame client (Tlp_util.Bytebuf.contents buf) with
        | Error e -> transport_fail e
        | Ok payload -> (
            Printf.eprintf "frame %s\n" (Digest.to_hex (Digest.string payload));
            match Tlp_server.Frame.decode_response payload with
            | Error msg ->
                incr failures;
                Printf.eprintf "error: undecodable v2 response: %s\n" msg
            | Ok { id; body } ->
                let line =
                  match body with
                  | Ok (result, Some trace) ->
                      Protocol.render_ok_traced ~id
                        ~result:(Json.to_string result) ~trace
                  | Ok (result, None) ->
                      Protocol.render_ok ~id ~result:(Json.to_string result)
                  | Error err -> Protocol.render_error ~id err
                in
                print_endline line;
                check_line line))
  in
  List.iter
    (match proto with Client.V1 -> call_v1 | Client.V2 -> call_v2)
    requests;
  Client.close client;
  if !failures > 0 then exit 1

let call_cmd =
  let requests =
    Arg.(
      value & opt_all string []
      & info [ "request"; "r" ] ~docv:"JSON"
          ~doc:"A request frame to send (repeatable, sent in order).  \
                Without any, frames are read from stdin, one per line.")
  in
  let expect_ok =
    Arg.(
      value & flag
      & info [ "expect-ok" ]
          ~doc:"Exit nonzero unless every response has \"ok\":true.")
  in
  let proto =
    Arg.(
      value
      & opt (enum [ ("v1", Client.V1); ("v2", Client.V2) ]) Client.V1
      & info [ "proto" ] ~docv:"v1|v2"
          ~doc:"Wire protocol.  v2 re-encodes each JSON request line as \
                a binary frame and prints the response's v1 JSON \
                rendering, so both protocols print identical stdout.")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:"Send request frames to a running server and print the \
             validated responses")
    Term.(
      const call $ host_arg
      $ port_arg ~default:Server.default_config.Server.port
      $ requests $ expect_ok $ proto)

let () =
  let info =
    Cmd.info "tlp_serve" ~version:"1.0.0"
      ~doc:"Long-running partition service speaking tlp.rpc/v1 \
            (newline-delimited JSON over TCP)"
  in
  exit (Cmd.eval (Cmd.group info [ serve_cmd; call_cmd ]))
