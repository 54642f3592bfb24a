(* The tlp.rpc/v2 binary framing: varint/decimal/Binval codec
   round trips, the request codec round trip over every method, client
   refusals against the v1 server's, the v1/v2 response differential
   (every status, every error code),
   decoder fuzz on truncated and corrupted frames, live loopback
   negotiation with cache-hit byte equality, and the solver workspace
   pool. *)

open Helpers
module Json = Tlp_util.Json_out
module Bytebuf = Tlp_util.Bytebuf
module R = Tlp_util.Bytebuf.Reader
module Binval = Tlp_util.Binval
module Rng = Tlp_util.Rng
module Chain = Tlp_graph.Chain
module Io = Tlp_graph.Instance_io
module Ksweep = Tlp_engine.Ksweep
module Protocol = Tlp_server.Protocol
module Handler = Tlp_server.Handler
module Workspaces = Tlp_server.Workspaces
module Server = Tlp_server.Server
module Sframe = Tlp_server.Frame
module Cframe = Tlp_client.Frame
module Client = Tlp_client.Client

(* ---------- fixtures ---------- *)

let chain5 = Chain.make ~alpha:[| 4; 2; 7; 3; 5 |] ~beta:[| 6; 2; 9; 4 |]

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let chain_obj =
  Json.Obj
    [
      ("kind", Json.String "chain");
      ("alpha", ints [ 4; 2; 7; 3; 5 ]);
      ("beta", ints [ 6; 2; 9; 4 ]);
    ]

let tree_obj =
  Json.Obj
    [
      ("kind", Json.String "tree");
      ("weights", ints [ 5; 3; 2; 4 ]);
      ( "parents",
        Json.List [ ints [ 0; 7 ]; ints [ 0; 2 ]; ints [ 1; 3 ] ] );
    ]

let partition_params ?algorithm ~instance ~k () =
  Json.Obj
    ((match algorithm with
     | Some a -> [ ("algorithm", Json.String a) ]
     | None -> [])
    @ [ ("instance", instance); ("k", Json.Int k) ])

(* ---------- codec round trips ---------- *)

let test_varint_round_trip =
  qcheck "varint round trip"
    QCheck2.Gen.(oneof [ int_range 0 1000; int_range 0 max_int ])
    (fun v ->
      let buf = Bytebuf.create 16 in
      Bytebuf.add_varint buf v;
      let r =
        R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
      in
      R.varint r = v && R.remaining r = 0)

(* Wire varints are confined to [0, max_int] (the reader rejects a
   set sign bit), so zigzag's encodable domain is [min_int/2,
   max_int/2]: outside it the doubled magnitude overflows and the
   writer raises. Decoded values can never leave that domain, so
   encode and decode cover exactly the same ints; the generators stay
   inside it, and a dedicated case pins the boundary behavior. *)
let zigzag_min = min_int asr 1
let zigzag_max = max_int asr 1
let encodable_int = QCheck2.Gen.int_range zigzag_min zigzag_max

let test_zigzag_round_trip =
  qcheck "zigzag round trip"
    QCheck2.Gen.(oneof [ int_range (-1000) 1000; encodable_int ])
    (fun v ->
      let buf = Bytebuf.create 16 in
      Bytebuf.add_zigzag buf v;
      let r =
        R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
      in
      R.zigzag r = v && R.remaining r = 0)

let test_zigzag_domain_bounds () =
  let round_trips v =
    let buf = Bytebuf.create 16 in
    match Bytebuf.add_zigzag buf v with
    | () ->
        let r =
          R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
        in
        R.zigzag r = v
    | exception Invalid_argument _ -> false
  in
  check_bool "domain max round trips" true (round_trips zigzag_max);
  check_bool "domain min round trips" true (round_trips zigzag_min);
  check_bool "beyond max refused" false (round_trips (zigzag_max + 1));
  check_bool "beyond min refused" false (round_trips (zigzag_min - 1))

(* A non-negative int whose decimal width is uniform over 1..19, so
   every branch of the digit writer (one digit, one pair, the pair
   loop) and every width up to [max_int] is drawn equally often; a
   uniform [int] is almost always 18-19 digits wide. *)
let any_width_nat =
  let open QCheck2.Gen in
  let pow10 w = int_of_string ("1" ^ String.make w '0') in
  let* width = int_range 1 19 in
  int_range
    (if width = 1 then 0 else pow10 (width - 1))
    (if width = 19 then max_int else pow10 width - 1)

let any_width_int =
  QCheck2.Gen.(
    oneof
      [
        any_width_nat;
        map (fun v -> -v) any_width_nat;
        oneofl [ 0; -1; 9; 10; 99; 100; min_int; max_int; min_int + 1 ];
      ])

let test_decimal_matches_string_of_int =
  qcheck "add_decimal = string_of_int"
    QCheck2.Gen.(oneof [ int; any_width_int ])
    (fun v ->
      let buf = Bytebuf.create 4 in
      Bytebuf.add_decimal buf v;
      Bytebuf.contents buf = string_of_int v
      && Bytebuf.decimal_length v = String.length (string_of_int v))

let test_decimal_line_matches_loop =
  qcheck "add_decimal_line = add_decimal per element"
    QCheck2.Gen.(array_size (int_range 0 40) (oneof [ int; any_width_int ]))
    (fun a ->
      let line = Bytebuf.create 4 in
      Bytebuf.add_string line "row:";
      Bytebuf.add_decimal_line line a;
      Bytebuf.contents line
      = "row:"
        ^ String.concat " " (Array.to_list (Array.map string_of_int a))
        ^ "\n")

let test_json_int_matches_string_of_int =
  qcheck "Json_out.to_string (Int i) = string_of_int i" any_width_int
    (fun v ->
      Json.to_string (Json.Int v) = string_of_int v
      && Json.to_string (Json.List [ Json.Int v; Json.Int (-v) ])
         = Printf.sprintf "[%d,%d]" v (-v))

let test_varint_reader_rejects () =
  let decodes s =
    let b = Bytes.of_string s in
    let r = R.make b ~pos:0 ~limit:(Bytes.length b) in
    match R.varint r with v -> Some v | exception R.Short -> None
  in
  check_bool "empty input" true (decodes "" = None);
  check_bool "dangling continuation" true (decodes "\x80" = None);
  check_bool "eleven groups" true
    (decodes "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01" = None);
  (* Ten groups whose top bits land in the sign bit: must be refused,
     not wrapped to a negative length. *)
  check_bool "sign-bit overflow" true
    (decodes "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f" = None);
  check_bool "max_int decodes" true
    (let buf = Bytebuf.create 16 in
     Bytebuf.add_varint buf max_int;
     decodes (Bytebuf.contents buf) = Some max_int)

(* Random JSON-ish document: every Binval tag, nested a few levels. *)
let json_gen =
  let open QCheck2.Gen in
  sized_size (int_range 0 3) @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) encodable_int;
            map (fun f -> Json.Float f)
              (oneof [ float; return 0.1; return 1e-300; return (-0.0) ]);
            map (fun s -> Json.String s) (small_string ~gen:printable);
          ]
      in
      if n = 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n - 1)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (small_string ~gen:printable) (self (n - 1))));
          ])

let test_binval_round_trip =
  qcheck "binval round trip" json_gen (fun doc ->
      let buf = Bytebuf.create 64 in
      Binval.write buf doc;
      let r =
        R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
      in
      match Binval.read r with
      | Ok doc' -> Json.to_string doc = Json.to_string doc' && R.remaining r = 0
      | Error _ -> false)

let test_binval_float_exact () =
  (* Floats cross the v2 wire as IEEE bits, not decimal text: the bit
     pattern must survive exactly, including negative zero. *)
  List.iter
    (fun f ->
      let buf = Bytebuf.create 16 in
      Binval.write buf (Json.Float f);
      let r =
        R.make (Bytebuf.unsafe_bytes buf) ~pos:0 ~limit:(Bytebuf.length buf)
      in
      match Binval.read r with
      | Ok (Json.Float f') ->
          check_bool
            (Printf.sprintf "bits of %h" f)
            true
            (Int64.bits_of_float f = Int64.bits_of_float f')
      | _ -> Alcotest.failf "float %h did not round trip" f)
    [ 0.1; -0.0; 1e-300; 1e300; 4.0 /. 3.0; Float.pi; Float.min_float ]

(* ---------- digest parity ---------- *)

(* Weights of every decimal width: the digest presizes its buffer from
   the widest value, so mixed widths are the case that must still fit. *)
let wide_chain_gen =
  let open QCheck2.Gen in
  let weight = map (fun v -> max 1 v) any_width_nat in
  let* n = int_range 1 12 in
  let* alpha = array_size (return n) weight in
  let* beta = array_size (return (n - 1)) weight in
  return (Chain.make ~alpha ~beta)

let wide_tree_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 10 in
  let* weights = array_size (return n) any_width_nat in
  let* deltas = array_size (return (n - 1)) any_width_nat in
  let* parents_raw = array_size (return (n - 1)) (int_range 0 1000) in
  let parents = Array.mapi (fun i p -> (p mod (i + 1), deltas.(i))) parents_raw in
  return (Tlp_graph.Tree.of_parents ~weights ~parents)

(* [Protocol.instance_digest] renders into a Bytebuf and hashes in
   place; it must equal the digest of the canonical string for every
   instance, or cache keys would silently diverge from v1 behavior. *)
let test_digest_parity_chain =
  qcheck "instance digest = MD5(canonical text), chains"
    QCheck2.Gen.(oneof [ map fst small_chain_gen; wide_chain_gen ])
    (fun c ->
      let i = Io.Chain_instance c in
      Protocol.instance_digest i
      = Digest.to_hex (Digest.string (Protocol.canonical_instance i)))

let test_digest_parity_tree =
  qcheck "instance digest = MD5(canonical text), trees"
    QCheck2.Gen.(oneof [ map fst small_tree_gen; wide_tree_gen ])
    (fun t ->
      let i = Io.Tree_instance t in
      Protocol.instance_digest i
      = Digest.to_hex (Digest.string (Protocol.canonical_instance i)))

(* ---------- request encoding ---------- *)

(* Every request the typed frame can describe, over all ten methods,
   with every id kind, header flag and algorithm tag. *)
let frame_gen =
  let open QCheck2.Gen in
  let nat = oneof [ int_range 0 1000; int_range 0 max_int ] in
  let pos = oneof [ int_range 1 1000; int_range 1 max_int ] in
  let name = small_string ~gen:printable in
  let chain = map fst small_chain_gen in
  let instance =
    oneof
      [
        map (fun c -> Io.Chain_instance c) chain;
        map (fun (t, _) -> Io.Tree_instance t) small_tree_gen;
      ]
  in
  let algorithm =
    oneofl Protocol.[ Bandwidth; Bottleneck; Procmin; Pipeline ]
  in
  let delta =
    oneof
      [
        map2 (fun i d -> Tlp_core.Incremental.Vertex (i, d)) nat encodable_int;
        map2 (fun j d -> Tlp_core.Incremental.Edge (j, d)) nat encodable_int;
      ]
  in
  let request =
    oneof
      [
        map3
          (fun instance k algorithm ->
            Protocol.Partition { instance; k; algorithm })
          instance pos algorithm;
        map3
          (fun chain ks algorithm -> Protocol.Sweep { chain; ks; algorithm })
          chain
          (list_size (int_range 1 5) pos)
          (oneofl [ Ksweep.Hitting; Ksweep.Deque ]);
        map2
          (fun rounds seed -> Protocol.Verify { rounds; seed })
          (int_range 1 Protocol.max_verify_rounds)
          encodable_int;
        oneofl Protocol.[ Stats; Health; Cluster ];
        map (fun ms -> Protocol.Sleep { ms }) (int_range 0 Protocol.max_sleep_ms);
        map2
          (fun instance session -> Protocol.Open { instance; session })
          instance (opt name);
        map2
          (fun session deltas -> Protocol.Update { session; deltas })
          name
          (list_size (int_range 1 5) delta);
        map3
          (fun session k algorithm -> Protocol.Resolve { session; k; algorithm })
          name pos algorithm;
      ]
  in
  let id =
    oneof
      [
        return Json.Null;
        map (fun i -> Json.Int i) encodable_int;
        map (fun s -> Json.String s) name;
      ]
  in
  map
    (fun (id, request, timeout_ms, priority, trace) ->
      { Protocol.id; request; timeout_ms; priority; trace })
    (tup5 id request (opt nat)
       (oneofl Protocol.[ Interactive; Batch ])
       bool)

let test_request_round_trip =
  qcheck ~count:500 "request round trip over all methods" frame_gen
    (fun frame ->
      let buf = Bytebuf.create 64 in
      Sframe.encode_request buf frame;
      Sframe.decode_request (Bytebuf.unsafe_bytes buf) ~pos:4
        ~len:(Bytebuf.length buf - 4)
      = Ok frame)

(* The client validates through the v1 parser, which reads the text
   format too: a text instance and its inline object are one request,
   so they must be one frame. *)
let test_text_and_inline_same_bytes () =
  let encode instance =
    match
      Cframe.encode_request ~id:(Json.Int 1) ~meth:"partition"
        ~params:(partition_params ~algorithm:"procmin" ~instance ~k:9 ())
        ()
    with
    | Ok s -> s
    | Error msg -> Alcotest.failf "encoder refused: %s" msg
  in
  let text i = Json.String (Io.to_string i) in
  Alcotest.(check string)
    "chain" (encode chain_obj)
    (encode (text (Io.Chain_instance chain5)));
  let tree =
    Tlp_graph.Tree.of_parents ~weights:[| 5; 3; 2; 4 |]
      ~parents:[| (0, 7); (0, 2); (1, 3) |]
  in
  Alcotest.(check string)
    "tree" (encode tree_obj)
    (encode (text (Io.Tree_instance tree)))

(* ---------- response differential (unit, deterministic) ---------- *)

let decode_payload payload =
  match Cframe.decode_response payload with
  | Ok p -> p
  | Error msg -> Alcotest.failf "response decode failed: %s" msg

let encode_response f =
  let buf = Bytebuf.create 256 in
  f buf;
  let s = Bytebuf.contents buf in
  String.sub s 4 (String.length s - 4)

let test_error_frames_differential () =
  List.iter
    (fun make_err ->
      let err = make_err "boom: details" in
      let id = Json.Int 42 in
      (* v2: server encoder -> client decoder. *)
      let payload =
        encode_response (fun buf -> Sframe.encode_error buf ~id err)
      in
      (match decode_payload payload with
      | Cframe.Rpc_err { id = id'; code; message } ->
          check_bool "id echoed" true (id' = id);
          Alcotest.(check string)
            "code" (Protocol.error_code_string err.Protocol.code) code;
          Alcotest.(check string) "message" err.Protocol.message message
      | Cframe.Result _ -> Alcotest.fail "error frame decoded as result");
      (* v1: same error through the JSON envelope. *)
      match Client.classify_response (Protocol.render_error ~id err) with
      | Error (Client.Overloaded m) ->
          check_bool "v1 overloaded" true (err.Protocol.code = Protocol.Overloaded);
          Alcotest.(check string) "v1 message" err.Protocol.message m
      | Error (Client.Timeout m) ->
          check_bool "v1 timeout" true (err.Protocol.code = Protocol.Timeout);
          Alcotest.(check string) "v1 message" err.Protocol.message m
      | Error (Client.Rpc_error { code; message }) ->
          Alcotest.(check string)
            "v1 code" (Protocol.error_code_string err.Protocol.code) code;
          Alcotest.(check string) "v1 message" err.Protocol.message message
      | _ -> Alcotest.fail "v1 error did not classify as an rpc error")
    [ Protocol.bad_request; Protocol.overloaded; Protocol.timeout;
      Protocol.internal; Protocol.unavailable ]

let test_ok_frames_differential () =
  let doc =
    match
      Handler.partition_result (Io.Chain_instance chain5) ~k:9
        ~algorithm:Protocol.Bandwidth
    with
    | Ok doc -> doc
    | Error _ -> Alcotest.fail "reference partition failed"
  in
  let trace = Json.Obj [ ("spans", ints [ 1; 2 ]); ("us", Json.Float 0.5) ] in
  let id = Json.String "req-1" in
  (* Plain result. *)
  (match
     decode_payload
       (encode_response (fun buf ->
            Sframe.encode_ok_doc buf ~id ~doc ~trace:None))
   with
  | Cframe.Result { id = id'; result; trace = None } ->
      check_bool "id echoed" true (id' = id);
      Alcotest.(check string) "result equal" (Json.to_string doc)
        (Json.to_string result)
  | _ -> Alcotest.fail "ok frame did not decode as plain result");
  (* Traced result; also check the pre-encoded splice path produces the
     same bytes as the direct-document path. *)
  let spliced =
    let b = Bytebuf.create 64 in
    Binval.write b doc;
    Bytebuf.contents b
  in
  let via_doc =
    encode_response (fun buf ->
        Sframe.encode_ok_doc buf ~id ~doc ~trace:(Some trace))
  in
  let via_splice =
    encode_response (fun buf ->
        Sframe.encode_ok buf ~id ~result:spliced ~trace:(Some trace))
  in
  Alcotest.(check string) "splice = direct" via_doc via_splice;
  match decode_payload via_doc with
  | Cframe.Result { result; trace = Some t; _ } ->
      Alcotest.(check string) "result equal" (Json.to_string doc)
        (Json.to_string result);
      Alcotest.(check string) "trace equal" (Json.to_string trace)
        (Json.to_string t)
  | _ -> Alcotest.fail "traced frame did not decode with a trace"

(* ---------- decoder fuzz ---------- *)

let valid_request_frame () =
  match
    Cframe.encode_request ~id:(Json.Int 7) ~timeout_ms:300 ~trace:true
      ~meth:"partition"
      ~params:(partition_params ~algorithm:"pipeline" ~instance:tree_obj ~k:9 ())
      ()
  with
  | Ok s -> s
  | Error msg -> Alcotest.failf "fixture frame refused: %s" msg

let test_request_decoder_truncation () =
  let frame = valid_request_frame () in
  let body = Bytes.of_string frame in
  let len = Bytes.length body - 4 in
  (match Sframe.decode_request body ~pos:4 ~len with
  | Ok _ -> ()
  | Error (_, e) -> Alcotest.failf "full frame rejected: %s" e.Protocol.message);
  for l = 0 to len - 1 do
    match Sframe.decode_request body ~pos:4 ~len:l with
    | Ok _ -> Alcotest.failf "truncated frame of %d bytes decoded" l
    | Error (_, e) ->
        check_bool "structured bad_request" true
          (e.Protocol.code = Protocol.Bad_request)
    | exception ex ->
        Alcotest.failf "truncation at %d raised %s" l (Printexc.to_string ex)
  done

(* The varint reader takes single bytes below 0x80 on a fast path; the
   instance arrays are where that path runs, so pin the decoder's
   errors there. Alpha and beta mix one- and two-byte varints, so a cut
   lands both between and inside values. *)
let test_request_decoder_varint_errors () =
  let chain_frame alpha beta =
    match
      Cframe.encode_request ~id:(Json.Int 7) ~meth:"partition"
        ~params:
          (partition_params
             ~instance:
               (Json.Obj
                  [
                    ("kind", Json.String "chain");
                    ("alpha", ints alpha);
                    ("beta", ints beta);
                  ])
             ~k:5000 ())
        ()
    with
    | Ok s -> String.sub s 4 (String.length s - 4)
    | Error msg -> Alcotest.failf "fixture frame refused: %s" msg
  in
  let decode payload =
    Sframe.decode_request (Bytes.of_string payload) ~pos:0
      ~len:(String.length payload)
  in
  let expect_error label payload ~message =
    match decode payload with
    | Ok _ -> Alcotest.failf "%s: decoded" label
    | Error (id, e) ->
        check_bool (label ^ ": id recovered") true (id = Json.Int 7);
        Alcotest.(check string) (label ^ ": message") message e.Protocol.message
  in
  let truncated = "malformed v2 frame: truncated or corrupt" in
  (* 8 bytes of alpha varints, then 6 of beta, end the payload. *)
  let payload = chain_frame [ 300; 5; 200; 7; 1000 ] [ 128; 1; 129; 2 ] in
  check_bool "fixture decodes" true (Result.is_ok (decode payload));
  let len = String.length payload in
  let alpha_at = len - 14 and beta_at = len - 6 in
  (* Keep at least n (resp. n-1) bytes, so the count check passes and
     the reader itself runs out. *)
  List.iter
    (fun keep ->
      expect_error
        (Printf.sprintf "cut after %d alpha bytes" keep)
        (String.sub payload 0 (alpha_at + keep))
        ~message:truncated)
    [ 5; 6; 7 ];
  List.iter
    (fun keep ->
      expect_error
        (Printf.sprintf "cut after %d beta bytes" keep)
        (String.sub payload 0 (beta_at + keep))
        ~message:truncated)
    [ 4; 5 ];
  (* An 11-group varint in place of alpha.(0) (300, two bytes). *)
  let splice at ~drop bytes =
    String.sub payload 0 at ^ bytes ^ String.sub payload (at + drop) (len - at - drop)
  in
  expect_error "overlong varint"
    (splice alpha_at ~drop:2 ("\x84" ^ String.make 9 '\x80' ^ "\x00"))
    ~message:truncated;
  (* A zero written non-minimally in place of alpha.(1) (5, one byte):
     same positivity error as the v1 line carrying a literal 0. *)
  let v1_message =
    match
      Protocol.parse_frame
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Int 7);
                ("method", Json.String "partition");
                ( "params",
                  partition_params
                    ~instance:
                      (Json.Obj
                         [
                           ("kind", Json.String "chain");
                           ("alpha", ints [ 300; 0; 200; 7; 1000 ]);
                           ("beta", ints [ 128; 1; 129; 2 ]);
                         ])
                    ~k:5000 () );
              ]))
    with
    | Error (_, e) -> e.Protocol.message
    | Ok _ -> Alcotest.fail "v1 accepted a zero vertex weight"
  in
  Alcotest.(check string)
    "v1 message" "bad chain: Chain.make: vertex weights must be positive"
    v1_message;
  expect_error "non-minimal zero"
    (splice (alpha_at + 2) ~drop:1 "\x80\x00")
    ~message:v1_message

let test_request_decoder_corruption =
  qcheck ~count:500 "corrupted request frames never raise"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 0 255))
    (fun (at, byte) ->
      let frame = valid_request_frame () in
      let body = Bytes.of_string frame in
      let len = Bytes.length body - 4 in
      Bytes.set body (4 + (at mod len)) (Char.chr byte);
      match Sframe.decode_request body ~pos:4 ~len with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let valid_response_payload () =
  encode_response (fun buf ->
      Sframe.encode_ok_doc buf ~id:(Json.Int 3)
        ~doc:(Json.Obj [ ("weight", Json.Int 3); ("q_mean", Json.Float 1.5) ])
        ~trace:(Some (Json.List [ Json.String "parse"; Json.Float 0.25 ])))

let test_response_decoder_truncation () =
  let payload = valid_response_payload () in
  check_bool "full payload decodes" true
    (match Cframe.decode_response payload with Ok _ -> true | Error _ -> false);
  for l = 0 to String.length payload - 1 do
    match Cframe.decode_response (String.sub payload 0 l) with
    | Ok _ -> Alcotest.failf "truncated payload of %d bytes decoded" l
    | Error _ -> ()
    | exception ex ->
        Alcotest.failf "truncation at %d raised %s" l (Printexc.to_string ex)
  done

let test_response_decoder_corruption =
  qcheck ~count:500 "corrupted response payloads never raise"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 0 255))
    (fun (at, byte) ->
      let payload = Bytes.of_string (valid_response_payload ()) in
      Bytes.set payload (at mod Bytes.length payload) (Char.chr byte);
      match Cframe.decode_response (Bytes.to_string payload) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* ---------- live loopback ---------- *)

let with_server ?(jobs = 2) ?(queue = 8) ?(cache = 32) ?(debug = false) f =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      jobs;
      queue_capacity = queue;
      cache_capacity = cache;
      enable_debug = debug;
    }
  in
  let srv = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f srv)

let client_for ?(proto = Client.V1) port =
  Client.create ~port ~proto ~rng:(Rng.create 1) ()

(* Both protocols against one live server, same arguments: results and
   errors must agree. The v1 call runs first, so the v2 call also
   exercises the cache-hit splice of the pre-encoded v2 rendering. *)
let test_live_differential () =
  with_server (fun srv ->
      let port = Server.port srv in
      let c1 = client_for port and c2 = client_for ~proto:Client.V2 port in
      Fun.protect
        ~finally:(fun () ->
          Client.close c1;
          Client.close c2)
        (fun () ->
          let call c ~meth ?params () =
            Client.call c ~id:(Json.Int 1) ~deadline_ms:10_000 ~meth ?params ()
          in
          let both label ~meth ?params () =
            match (call c1 ~meth ?params (), call c2 ~meth ?params ()) with
            | Ok r1, Ok r2 ->
                Alcotest.(check string)
                  (label ^ " results equal")
                  (Json.to_string r1.Client.result)
                  (Json.to_string r2.Client.result)
            | Error e1, Error e2 ->
                Alcotest.(check string)
                  (label ^ " errors equal")
                  (Client.error_to_string e1) (Client.error_to_string e2)
            | Ok _, Error e ->
                Alcotest.failf "%s: v1 ok, v2 error %s" label
                  (Client.error_to_string e)
            | Error e, Ok _ ->
                Alcotest.failf "%s: v1 error %s, v2 ok" label
                  (Client.error_to_string e)
          in
          List.iter
            (fun alg ->
              both
                ("partition " ^ alg)
                ~meth:"partition"
                ~params:(partition_params ~algorithm:alg ~instance:chain_obj ~k:9 ())
                ())
            [ "bandwidth"; "bottleneck"; "procmin"; "pipeline" ];
          both "partition tree procmin" ~meth:"partition"
            ~params:(partition_params ~algorithm:"procmin" ~instance:tree_obj ~k:9 ())
            ();
          (* Theorem-1 refusal: the NP-completeness message must read
             identically through both framings. *)
          both "tree bandwidth rejection" ~meth:"partition"
            ~params:(partition_params ~algorithm:"bandwidth" ~instance:tree_obj ~k:9 ())
            ();
          both "sweep hitting" ~meth:"sweep"
            ~params:
              (Json.Obj
                 [ ("instance", chain_obj); ("k_values", ints [ 7; 9; 12 ]) ])
            ();
          both "sweep deque" ~meth:"sweep"
            ~params:
              (Json.Obj
                 [
                   ("algorithm", Json.String "deque");
                   ("instance", chain_obj);
                   ("k_values", ints [ 7; 9; 12 ]);
                 ])
            ();
          both "verify" ~meth:"verify"
            ~params:(Json.Obj [ ("rounds", Json.Int 5); ("seed", Json.Int 2) ])
            ();
          both "verify rounds cap" ~meth:"verify"
            ~params:(Json.Obj [ ("rounds", Json.Int 1_000_000) ])
            ();
          (* sleep without enable_debug: identical refusal. *)
          both "sleep disabled" ~meth:"sleep"
            ~params:(Json.Obj [ ("ms", Json.Int 5) ])
            ();
          (* timeout_ms:0 means "expired on arrival" on both wires. *)
          let expired c =
            Client.call c ~id:(Json.Int 2) ~timeout_ms:0 ~deadline_ms:10_000
              ~meth:"partition"
              ~params:(partition_params ~instance:chain_obj ~k:9 ())
              ()
          in
          match (expired c1, expired c2) with
          | Error (Client.Timeout m1), Error (Client.Timeout m2) ->
              Alcotest.(check string) "expired deadline message" m1 m2
          | _ -> Alcotest.fail "timeout_ms:0 did not time out on both wires"))

(* A request the client refuses to encode is refused with exactly the
   [bad_request] message a v1 server returns for the same line, and a
   v2 [Client.call] reports it the way the v1 call does. *)
let test_refusals_match_v1_server () =
  let chain ~alpha ~beta =
    Json.Obj
      [ ("kind", Json.String "chain"); ("alpha", ints alpha); ("beta", ints beta) ]
  in
  let cases =
    [
      ("unknown method", None, None, "frobnicate", None);
      ("negative timeout", Some (-5), None, "health", None);
      ("bad priority", None, Some "urgent", "health", None);
      ("k zero", None, None, "partition",
       Some (partition_params ~instance:chain_obj ~k:0 ()));
      ("unknown algorithm", None, None, "partition",
       Some (partition_params ~algorithm:"magic" ~instance:chain_obj ~k:9 ()));
      ("missing instance", None, None, "partition",
       Some (Json.Obj [ ("k", Json.Int 9) ]));
      ("beta length", None, None, "partition",
       Some
         (partition_params ~instance:(chain ~alpha:[ 1; 2; 3 ] ~beta:[ 1 ])
            ~k:9 ()));
      ("zero weight", None, None, "partition",
       Some
         (partition_params ~instance:(chain ~alpha:[ 1; 0 ] ~beta:[ 1 ]) ~k:9 ()));
      ("empty k_values", None, None, "sweep",
       Some (Json.Obj [ ("instance", chain_obj); ("k_values", ints []) ]));
      ("rounds cap", None, None, "verify",
       Some (Json.Obj [ ("rounds", Json.Int 1_000_000) ]));
      ("bad delta", None, None, "update",
       Some
         (Json.Obj
            [ ("session", Json.String "s"); ("deltas", Json.List [ ints [ 1 ] ]) ]));
    ]
  in
  with_server (fun srv ->
      let port = Server.port srv in
      let c1 = client_for port and c2 = client_for ~proto:Client.V2 port in
      Fun.protect
        ~finally:(fun () ->
          Client.close c1;
          Client.close c2)
        (fun () ->
          List.iter
            (fun (label, timeout_ms, priority, meth, params) ->
              let refused =
                match
                  Cframe.encode_request ~id:(Json.Int 1) ?timeout_ms ?priority
                    ~meth ?params ()
                with
                | Ok _ -> Alcotest.failf "%s: encoded" label
                | Error msg -> msg
              in
              let call c =
                Client.call c ~id:(Json.Int 1) ?timeout_ms ?priority
                  ~deadline_ms:10_000 ~meth ?params ()
              in
              (match call c1 with
              | Error (Client.Rpc_error { code = "bad_request"; message }) ->
                  Alcotest.(check string) (label ^ ": v1 server") message refused
              | Ok _ -> Alcotest.failf "%s: v1 server accepted" label
              | Error e ->
                  Alcotest.failf "%s: v1 server said %s" label
                    (Client.error_to_string e));
              match call c2 with
              | Error (Client.Rpc_error { code = "bad_request"; message }) ->
                  Alcotest.(check string) (label ^ ": v2 call") refused message
              | _ -> Alcotest.failf "%s: v2 call not refused" label)
            cases))

let recv_exact fd n =
  let buf = Bytes.create n in
  let got = ref 0 in
  (try
     while !got < n do
       match Unix.read fd buf !got (n - !got) with
       | 0 -> raise Exit
       | r -> got := !got + r
     done
   with Exit -> ());
  (!got, Bytes.sub_string buf 0 !got)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let recv_frame fd =
  let got, header = recv_exact fd 4 in
  if got < 4 then Alcotest.fail "short frame header";
  let len =
    (Char.code header.[0] lsl 24)
    lor (Char.code header.[1] lsl 16)
    lor (Char.code header.[2] lsl 8)
    lor Char.code header.[3]
  in
  let got, payload = recv_exact fd len in
  if got < len then Alcotest.fail "short frame payload";
  payload

(* Raw-socket v2 session: hello echo, then two identical requests must
   come back as byte-identical frames — the second is a cache hit
   splicing the stored v2 rendering. *)
let test_loopback_v2_cache_hit_bytes () =
  with_server (fun srv ->
      let fd = connect (Server.port srv) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_all fd Cframe.hello;
          let got, echo = recv_exact fd 5 in
          check_int "hello echo length" 5 got;
          Alcotest.(check string) "hello echoed" Cframe.hello echo;
          let frame =
            match
              Cframe.encode_request ~id:(Json.Int 1) ~meth:"partition"
                ~params:(partition_params ~instance:chain_obj ~k:9 ())
                ()
            with
            | Ok s -> s
            | Error msg -> Alcotest.failf "encode failed: %s" msg
          in
          send_all fd frame;
          let first = recv_frame fd in
          send_all fd frame;
          let second = recv_frame fd in
          Alcotest.(check string) "cache hit replays bytes" first second;
          match decode_payload first with
          | Cframe.Result { id = Json.Int 1; _ } -> ()
          | _ -> Alcotest.fail "response did not decode as result for id 1"))

let test_loopback_bad_hello_closes () =
  with_server (fun srv ->
      let fd = connect (Server.port srv) in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          send_all fd "\xf2XXXX";
          (* A 0xf2 first byte commits to v2; a mangled hello must end
             the connection without any response bytes. *)
          let got, _ = recv_exact fd 1 in
          check_int "no bytes before close" 0 got))

let test_hello_constants_agree () =
  Alcotest.(check string) "hello" Sframe.hello Cframe.hello;
  Alcotest.(check string) "schema" Sframe.schema Cframe.schema;
  check_int "hello length" 5 (String.length Sframe.hello);
  check_bool "discriminator byte" true (Sframe.hello.[0] = Sframe.hello_byte);
  check_int "0xf2" 0xf2 (Char.code Sframe.hello_byte)

(* ---------- workspace pool ---------- *)

let test_workspace_pool_reuse () =
  let pool = Workspaces.create () in
  let run n = Workspaces.with_workspace pool ~n (fun _ws -> ()) in
  run 100;
  check_bool "first checkout creates" true (Workspaces.counters pool = (1, 0));
  run 100;
  check_bool "second checkout reuses" true (Workspaces.counters pool = (1, 1));
  (* Same power-of-two capacity class: still a reuse. *)
  run 70;
  check_bool "same class reuses" true (Workspaces.counters pool = (1, 2));
  (* A different class allocates its own workspace. *)
  run 5000;
  check_bool "new class creates" true (Workspaces.counters pool = (2, 2))

let test_workspace_pool_exception_safety () =
  let pool = Workspaces.create () in
  (try
     Workspaces.with_workspace pool ~n:64 (fun _ws -> failwith "solver blew up")
   with Failure _ -> ());
  Workspaces.with_workspace pool ~n:64 (fun _ws -> ());
  check_bool "returned to pool despite exception" true
    (Workspaces.counters pool = (1, 1))

let suite =
  [
    test_varint_round_trip;
    test_zigzag_round_trip;
    Alcotest.test_case "zigzag domain bounds" `Quick test_zigzag_domain_bounds;
    test_decimal_matches_string_of_int;
    test_decimal_line_matches_loop;
    test_json_int_matches_string_of_int;
    Alcotest.test_case "varint reader rejects" `Quick test_varint_reader_rejects;
    test_binval_round_trip;
    Alcotest.test_case "binval float exactness" `Quick test_binval_float_exact;
    test_digest_parity_chain;
    test_digest_parity_tree;
    test_request_round_trip;
    Alcotest.test_case "text and inline instances encode alike" `Quick
      test_text_and_inline_same_bytes;
    Alcotest.test_case "error frames differential" `Quick
      test_error_frames_differential;
    Alcotest.test_case "ok frames differential" `Quick
      test_ok_frames_differential;
    Alcotest.test_case "request decoder truncation" `Quick
      test_request_decoder_truncation;
    Alcotest.test_case "request decoder varint errors" `Quick
      test_request_decoder_varint_errors;
    test_request_decoder_corruption;
    Alcotest.test_case "response decoder truncation" `Quick
      test_response_decoder_truncation;
    test_response_decoder_corruption;
    Alcotest.test_case "live v1/v2 differential" `Quick test_live_differential;
    Alcotest.test_case "refusals match the v1 server" `Quick
      test_refusals_match_v1_server;
    Alcotest.test_case "v2 cache hit byte equality" `Quick
      test_loopback_v2_cache_hit_bytes;
    Alcotest.test_case "bad hello closes cleanly" `Quick
      test_loopback_bad_hello_closes;
    Alcotest.test_case "hello constants agree" `Quick test_hello_constants_agree;
    Alcotest.test_case "workspace pool reuse" `Quick test_workspace_pool_reuse;
    Alcotest.test_case "workspace pool exception safety" `Quick
      test_workspace_pool_exception_safety;
  ]
