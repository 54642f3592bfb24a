(* Tlp_client: deterministic backoff schedules, the socket-free retry
   driver under a fake clock, response classification, and a live
   loopback exercise of connection reuse and deadlines. *)

open Helpers
module Json = Tlp_util.Json_out
module Backoff = Tlp_client.Backoff
module Client = Tlp_client.Client
module Protocol = Tlp_server.Protocol
module Server = Tlp_server.Server

(* ---------- backoff schedules ---------- *)

let test_schedule_deterministic () =
  let policy =
    { Backoff.max_attempts = 6; base_delay_ms = 25; max_delay_ms = 400;
      jitter = 0.5 }
  in
  let s1 = Backoff.schedule policy (Rng.create 42) in
  let s2 = Backoff.schedule policy (Rng.create 42) in
  Alcotest.(check (list int)) "same seed, same schedule" s1 s2;
  check_int "max_attempts - 1 delays" 5 (List.length s1);
  (* Each delay is the jittered ladder value: within
     [(1 - jitter) * d, d] for d = min(base * 2^(i-1), cap). *)
  List.iteri
    (fun i delay ->
      let ladder = Stdlib.min (25 * (1 lsl i)) 400 in
      check_bool
        (Printf.sprintf "delay %d in [%d, %d]" delay (ladder / 2) ladder)
        true
        (delay >= (ladder / 2) - 1 && delay <= ladder))
    s1;
  let different = Backoff.schedule policy (Rng.create 43) in
  check_bool "different seed, different schedule" false (s1 = different)

let test_delay_caps_and_validates () =
  let policy =
    { Backoff.max_attempts = 10; base_delay_ms = 100; max_delay_ms = 250;
      jitter = 0.0 }
  in
  let rng = Rng.create 1 in
  check_int "attempt 1 at base" 100 (Backoff.delay_ms policy rng ~attempt:1);
  check_int "attempt 2 doubles" 200 (Backoff.delay_ms policy rng ~attempt:2);
  check_int "attempt 3 capped" 250 (Backoff.delay_ms policy rng ~attempt:3);
  check_int "attempt 60 still capped (no overflow)" 250
    (Backoff.delay_ms policy rng ~attempt:60);
  check_bool "attempt 0 rejected" true
    (match Backoff.delay_ms policy rng ~attempt:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- the retry driver, fake clock ---------- *)

type fake_error = Retry_me | Fatal

(* A fake clock that only advances when the driver sleeps: the test
   observes exactly the sleeps the policy dictates, with no real time. *)
let fake_clock () =
  let t = ref 0.0 in
  let slept = ref [] in
  let now () = !t in
  let sleep s =
    slept := s :: !slept;
    t := !t +. s
  in
  (now, sleep, slept)

let run_fake ?deadline ~policy ~seed outcomes =
  let now, sleep, slept = fake_clock () in
  let calls = ref 0 in
  let result =
    Backoff.run policy ~rng:(Rng.create seed) ~now ~sleep ?deadline
      ~retryable:(fun e -> e = Retry_me)
      ~on_deadline:(fun _ -> Fatal)
      (fun ~attempt ->
        incr calls;
        check_int "attempt number tracks calls" !calls attempt;
        match outcomes attempt with
        | Some v -> Ok v
        | None -> Error Retry_me)
  in
  (result, !calls, List.rev !slept)

let test_run_retries_to_budget () =
  let policy =
    { Backoff.max_attempts = 4; base_delay_ms = 10; max_delay_ms = 1_000;
      jitter = 0.5 }
  in
  (* Always failing retryably: every attempt is used, and the sleeps
     replay the policy's schedule for the same seed exactly. *)
  let result, calls, slept = run_fake ~policy ~seed:9 (fun _ -> None) in
  check_bool "exhausted budget returns the error" true (result = Error Retry_me);
  check_int "all attempts used" 4 calls;
  let expected = Backoff.schedule policy (Rng.create 9) in
  Alcotest.(check (list int))
    "slept the deterministic schedule"
    expected
    (List.map (fun s -> int_of_float (s *. 1000.0 +. 0.5)) slept);
  (* Success on attempt 3 stops immediately. *)
  let result, calls, slept =
    run_fake ~policy ~seed:9 (fun a -> if a = 3 then Some "ok" else None)
  in
  check_bool "eventual success" true (result = Ok "ok");
  check_int "stopped at success" 3 calls;
  check_int "slept only before successes" 2 (List.length slept)

let test_run_does_not_retry_fatal () =
  let policy = Backoff.default in
  let now, sleep, slept = fake_clock () in
  let calls = ref 0 in
  let result =
    Backoff.run policy ~rng:(Rng.create 1) ~now ~sleep
      ~retryable:(fun e -> e = Retry_me)
      ~on_deadline:(fun e -> e)
      (fun ~attempt:_ ->
        incr calls;
        Error Fatal)
  in
  check_bool "fatal returned unmapped" true (result = Error Fatal);
  check_int "exactly one attempt" 1 !calls;
  check_int "never slept" 0 (List.length !slept)

let test_run_deadline_mid_retry () =
  let policy =
    { Backoff.max_attempts = 10; base_delay_ms = 100; max_delay_ms = 100;
      jitter = 0.0 }
  in
  (* 100 ms per backoff, deadline at 250 ms: attempts at t=0, 0.1, 0.2,
     then the next backoff is clamped to the remaining 50 ms budget and
     one final attempt fires exactly at the deadline.  Only then — with
     the budget spent — is the error mapped through on_deadline. *)
  let result, calls, slept =
    run_fake ~policy ~seed:5 ~deadline:0.25 (fun _ -> None)
  in
  check_bool "deadline maps the error" true (result = Error Fatal);
  check_int "clamped sleep buys a final attempt" 4 calls;
  Alcotest.(check (list int))
    "last sleep clamped to the remaining budget" [ 100; 100; 50 ]
    (List.map (fun s -> int_of_float ((s *. 1000.0) +. 0.5)) slept)

let test_run_deadline_clamped_attempt_can_succeed () =
  let policy =
    { Backoff.max_attempts = 10; base_delay_ms = 100; max_delay_ms = 100;
      jitter = 0.0 }
  in
  (* The final attempt bought by the clamped sleep is a real attempt:
     if it succeeds, the call succeeds — the old driver would have
     given up at t=0.2 with 50 ms still on the clock. *)
  let result, calls, slept =
    run_fake ~policy ~seed:5 ~deadline:0.25
      (fun a -> if a = 4 then Some "late ok" else None)
  in
  check_bool "clamped final attempt succeeded" true (result = Ok "late ok");
  check_int "four attempts" 4 calls;
  check_int "three sleeps" 3 (List.length slept)

let test_run_deadline_exact_boundary () =
  let policy =
    { Backoff.max_attempts = 10; base_delay_ms = 100; max_delay_ms = 100;
      jitter = 0.0 }
  in
  (* Deadline lands exactly on an attempt: remaining budget is 0, so
     the driver maps through on_deadline without sleeping again — no
     zero-length sleep loop. *)
  let result, calls, slept =
    run_fake ~policy ~seed:5 ~deadline:0.2 (fun _ -> None)
  in
  check_bool "boundary maps the error" true (result = Error Fatal);
  check_int "three attempts (t=0, 0.1, 0.2)" 3 calls;
  check_int "two full sleeps only" 2 (List.length slept)

(* ---------- frames and classification ---------- *)

let test_request_line_shape () =
  let line =
    Client.request_line ~id:(Json.Int 3) ~timeout_ms:500 ~trace:true
      ~meth:"verify"
      ~params:(Json.Obj [ ("rounds", Json.Int 7); ("seed", Json.Int 1) ])
      ()
  in
  Alcotest.(check string)
    "bytes are stable"
    {|{"id":3,"method":"verify","timeout_ms":500,"trace":true,"params":{"rounds":7,"seed":1}}|}
    line;
  (* The server's own codec must accept every frame the client builds. *)
  match Protocol.parse_frame line with
  | Ok frame ->
      check_bool "id echoed" true (frame.Protocol.id = Json.Int 3);
      check_bool "trace flag" true frame.Protocol.trace;
      check_bool "timeout" true (frame.Protocol.timeout_ms = Some 500);
      Alcotest.(check string)
        "method" "verify"
        (Protocol.method_name frame.Protocol.request)
  | Error (_, e) -> Alcotest.failf "client frame rejected: %s" e.Protocol.message

let test_classify_response () =
  let ok =
    {|{"schema":"tlp.rpc/v1","id":4,"ok":true,"result":{"status":"ok"}}|}
  in
  (match Client.classify_response ok with
  | Ok r ->
      check_bool "id" true (r.Client.id = Json.Int 4);
      check_bool "result" true
        (r.Client.result = Json.Obj [ ("status", Json.String "ok") ]);
      check_bool "no trace" true (r.Client.trace = None);
      Alcotest.(check string) "raw preserved" ok r.Client.raw
  | Error e -> Alcotest.failf "ok misclassified: %s" (Client.error_to_string e));
  let wire code =
    Printf.sprintf
      {|{"schema":"tlp.rpc/v1","id":null,"ok":false,"error":{"code":"%s","message":"m"}}|}
      code
  in
  check_bool "overloaded" true
    (Client.classify_response (wire "overloaded") = Error (Client.Overloaded "m"));
  check_bool "timeout" true
    (Client.classify_response (wire "timeout") = Error (Client.Timeout "m"));
  check_bool "bad_request is an rpc error" true
    (Client.classify_response (wire "bad_request")
    = Error (Client.Rpc_error { code = "bad_request"; message = "m" }));
  let malformed = function
    | Error (Client.Bad_response _) -> true
    | _ -> false
  in
  check_bool "garbage" true (malformed (Client.classify_response "nonsense"));
  check_bool "wrong schema" true
    (malformed
       (Client.classify_response {|{"schema":"other/v9","ok":true,"result":1}|}));
  check_bool "missing result" true
    (malformed (Client.classify_response {|{"schema":"tlp.rpc/v1","ok":true}|}));
  check_bool "retryable classes" true
    (Client.retryable (Client.Overloaded "x")
    && Client.retryable (Client.Transport "x")
    && (not (Client.retryable (Client.Timeout "x")))
    && (not (Client.retryable (Client.Bad_response "x")))
    && not (Client.retryable (Client.Rpc_error { code = "c"; message = "m" })))

(* ---------- live loopback ---------- *)

let with_server ?(jobs = 2) ?(debug = false) f =
  let config =
    { Server.default_config with Server.port = 0; jobs; enable_debug = debug }
  in
  let srv = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f (Server.port srv))

let test_live_connection_reuse () =
  with_server (fun port ->
      let client = Client.create ~port ~rng:(Rng.create 3) () in
      check_bool "not connected before first call" false
        (Client.is_connected client);
      for i = 1 to 5 do
        match Client.call client ~id:(Json.Int i) ~meth:"health" () with
        | Ok r -> check_bool "id echoed" true (r.Client.id = Json.Int i)
        | Error e -> Alcotest.failf "health: %s" (Client.error_to_string e)
      done;
      check_int "five calls, one dial" 1 (Client.connections client);
      Client.close client;
      check_bool "closed" false (Client.is_connected client);
      (* A closed client re-dials transparently. *)
      (match Client.call client ~meth:"health" () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "after close: %s" (Client.error_to_string e));
      check_int "second dial" 2 (Client.connections client);
      Client.close client)

let test_live_dead_port_is_transport () =
  (* Ephemeral port from a server that is now fully drained. *)
  let dead = with_server (fun port -> port) in
  let client = Client.create ~port:dead ~rng:(Rng.create 3) () in
  (match Client.round_trip client {|{"method":"health"}|} with
  | Error (Client.Transport _) -> ()
  | Ok _ -> Alcotest.fail "dead port answered"
  | Error e -> Alcotest.failf "expected transport, got %s"
        (Client.error_to_string e));
  Client.close client

let test_live_deadline_times_out () =
  with_server ~debug:true (fun port ->
      let client = Client.create ~port ~rng:(Rng.create 3) () in
      match
        Client.call client ~deadline_ms:80 ~meth:"sleep"
          ~params:(Json.Obj [ ("ms", Json.Int 2_000) ])
          ()
      with
      | Error (Client.Timeout _) ->
          (* The connection is torn down so the late response cannot
             desync a later call. *)
          check_bool "connection dropped after timeout" false
            (Client.is_connected client)
      | Ok _ -> Alcotest.fail "sleep answered within the deadline"
      | Error e ->
          Alcotest.failf "expected timeout, got %s" (Client.error_to_string e))

(* The receive timeout is set only when it changes: deadline-free calls
   leave the socket at 0, a deadline call re-arms it before its reads,
   and the next deadline-free call clears what that call left behind. *)
let test_live_timeout_rearmed_only_on_change () =
  with_server ~debug:true (fun port ->
      let client = Client.create ~port ~rng:(Rng.create 3) () in
      let sleep ?deadline_ms ms =
        Client.call client ?deadline_ms ~meth:"sleep"
          ~params:(Json.Obj [ ("ms", Json.Int ms) ])
          ()
      in
      let ok label = function
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" label (Client.error_to_string e)
      in
      ok "deadline-free health" (Client.call client ~meth:"health" ());
      ok "deadline-free sleep" (sleep 10);
      (* Leaves a timeout of at most 150 ms on the socket. *)
      ok "deadline health"
        (Client.call client ~deadline_ms:150 ~meth:"health" ());
      ok "deadline-free sleep past the stale timeout" (sleep 400);
      check_int "one connection so far" 1 (Client.connections client);
      (match sleep ~deadline_ms:80 2_000 with
      | Error (Client.Timeout _) -> ()
      | Ok _ -> Alcotest.fail "sleep answered within the deadline"
      | Error e ->
          Alcotest.failf "expected timeout, got %s" (Client.error_to_string e));
      check_int "timeout came on the reused connection" 1
        (Client.connections client);
      ok "deadline-free sleep on the new connection" (sleep 200);
      check_int "re-dialed once" 2 (Client.connections client);
      Client.close client)

let suite =
  [
    Alcotest.test_case "backoff: schedule deterministic" `Quick
      test_schedule_deterministic;
    Alcotest.test_case "backoff: ladder caps, validates" `Quick
      test_delay_caps_and_validates;
    Alcotest.test_case "backoff: retries to budget" `Quick
      test_run_retries_to_budget;
    Alcotest.test_case "backoff: fatal not retried" `Quick
      test_run_does_not_retry_fatal;
    Alcotest.test_case "backoff: deadline mid-retry" `Quick
      test_run_deadline_mid_retry;
    Alcotest.test_case "backoff: clamped final attempt succeeds" `Quick
      test_run_deadline_clamped_attempt_can_succeed;
    Alcotest.test_case "backoff: deadline exact boundary" `Quick
      test_run_deadline_exact_boundary;
    Alcotest.test_case "client: request line shape" `Quick
      test_request_line_shape;
    Alcotest.test_case "client: classify responses" `Quick
      test_classify_response;
    Alcotest.test_case "client: live connection reuse" `Quick
      test_live_connection_reuse;
    Alcotest.test_case "client: dead port is transport" `Quick
      test_live_dead_port_is_transport;
    Alcotest.test_case "client: live deadline" `Quick
      test_live_deadline_times_out;
    Alcotest.test_case "client: timeout set only on change" `Quick
      test_live_timeout_rearmed_only_on_change;
  ]
