(* The partition service: LRU result cache, bounded admission queue,
   the tlp.rpc/v1 codec, and an end-to-end loopback exercise of the TCP
   daemon — concurrent requests, byte-identical responses against the
   direct library calls, cache hits, backpressure, deadlines, graceful
   shutdown. *)

open Helpers
module Json = Tlp_util.Json_out
module Bytebuf = Tlp_util.Bytebuf
module Chain = Tlp_graph.Chain
module Io = Tlp_graph.Instance_io
module Ksweep = Tlp_engine.Ksweep
module Cache = Tlp_server.Cache
module Admission = Tlp_server.Admission
module Protocol = Tlp_server.Protocol
module Handler = Tlp_server.Handler
module State = Tlp_server.State
module Server = Tlp_server.Server
module Frame = Tlp_server.Frame

let key ?(digest = "d0") ?(k = "8") ?(objective = "bandwidth")
    ?(algorithm = "hitting") () =
  { Cache.digest; k; objective; algorithm }

(* Cache entries carry both renderings; the unit tests only care about
   identity, so both sides hold the same marker. *)
let ent v = { Cache.v1 = v; v2 = v }

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || at (i + 1)
  in
  at 0

(* ---------- cache ---------- *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.add c (key ~digest:"a" ()) (ent "ra");
  Cache.add c (key ~digest:"b" ()) (ent "rb");
  (* Touch [a] so [b] becomes the eviction victim. *)
  check_bool "a hit" true (Cache.find c (key ~digest:"a" ()) = Some (ent "ra"));
  Cache.add c (key ~digest:"c" ()) (ent "rc");
  check_int "still 2 entries" 2 (Cache.length c);
  check_bool "b evicted" true (Cache.find c (key ~digest:"b" ()) = None);
  check_bool "a kept" true (Cache.find c (key ~digest:"a" ()) = Some (ent "ra"));
  check_bool "c kept" true (Cache.find c (key ~digest:"c" ()) = Some (ent "rc"));
  check_int "one eviction" 1 (Cache.evictions c)

let test_cache_mru_order () =
  let c = Cache.create ~capacity:3 in
  Cache.add c (key ~digest:"a" ()) (ent "ra");
  Cache.add c (key ~digest:"b" ()) (ent "rb");
  Cache.add c (key ~digest:"c" ()) (ent "rc");
  ignore (Cache.find c (key ~digest:"a" ()));
  let digests = List.map (fun k -> k.Cache.digest) (Cache.keys_mru c) in
  Alcotest.(check (list string)) "recency order" [ "a"; "c"; "b" ] digests

let test_cache_key_components () =
  (* Same digest, different k / objective / algorithm must be distinct
     entries: a digest collision across parameters may never replay the
     wrong result. *)
  let c = Cache.create ~capacity:8 in
  Cache.add c (key ~k:"8" ()) (ent "k8");
  Cache.add c (key ~k:"9" ()) (ent "k9");
  Cache.add c (key ~objective:"bottleneck" ()) (ent "obj");
  Cache.add c (key ~algorithm:"deque" ()) (ent "alg");
  check_int "four distinct entries" 4 (Cache.length c);
  check_bool "k=8" true (Cache.find c (key ~k:"8" ()) = Some (ent "k8"));
  check_bool "k=9" true (Cache.find c (key ~k:"9" ()) = Some (ent "k9"));
  check_bool "objective" true
    (Cache.find c (key ~objective:"bottleneck" ()) = Some (ent "obj"));
  check_bool "algorithm" true
    (Cache.find c (key ~algorithm:"deque" ()) = Some (ent "alg"))

let test_cache_counters_and_metrics () =
  let c = Cache.create ~capacity:2 in
  let m = Tlp_util.Metrics.create () in
  check_bool "miss" true (Cache.find ~metrics:m c (key ()) = None);
  Cache.add ~metrics:m c (key ()) (ent "r");
  check_bool "hit" true (Cache.find ~metrics:m c (key ()) = Some (ent "r"));
  Cache.add ~metrics:m c (key ~digest:"x" ()) (ent "rx");
  Cache.add ~metrics:m c (key ~digest:"y" ()) (ent "ry");
  check_int "hits" 1 (Cache.hits c);
  check_int "misses" 1 (Cache.misses c);
  check_int "evictions" 1 (Cache.evictions c);
  check_int "metrics hits" 1 (Tlp_util.Metrics.get m "server_cache_hits");
  check_int "metrics misses" 1 (Tlp_util.Metrics.get m "server_cache_misses");
  check_int "metrics evictions" 1
    (Tlp_util.Metrics.get m "server_cache_evictions")

let test_cache_refresh_same_key () =
  let c = Cache.create ~capacity:2 in
  Cache.add c (key ()) (ent "v1");
  Cache.add c (key ()) (ent "v2");
  check_int "refresh does not grow" 1 (Cache.length c);
  check_bool "latest value" true (Cache.find c (key ()) = Some (ent "v2"))

let test_cache_disabled () =
  let c = Cache.create ~capacity:0 in
  Cache.add c (key ()) (ent "r");
  check_int "nothing stored" 0 (Cache.length c);
  check_bool "always misses" true (Cache.find c (key ()) = None)

(* Steady-state allocation budget of a cache hit, enforced by
   measurement: with the sentinel-ring LRU a hit is a hashtable probe
   plus pointer relinks, so the only allocation is the [Some entry]
   result box.  The 8-words/hit bound is loose against that but tight
   against reintroducing option-boxed links or find_opt on the probe
   (each worth several words per hit). *)
let test_cache_hit_alloc_budget () =
  let c = Cache.create ~capacity:4 in
  let k = key () in
  Cache.add c k (ent "r");
  for _ = 1 to 100 do ignore (Cache.find c k) done;
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do ignore (Cache.find c k) done;
  let per_hit = (Gc.minor_words () -. w0) /. float_of_int iters in
  check_int "all hits" (100 + iters) (Cache.hits c);
  check_int "no misses" 0 (Cache.misses c);
  check_bool
    (Printf.sprintf "%.1f words/hit within budget" per_hit)
    true (per_hit <= 8.0)

(* [Bytebuf.add_decimal] is [@tlp.hot]: once the buffer has room, no
   int but [min_int] allocates, whatever its width or sign.  The only
   words counted are the boxed float of the [Gc.minor_words] read. *)
let test_add_decimal_alloc_free () =
  let values =
    [| 0; 7; 42; 99; 100; 12_345; -1; -987_654_321; max_int; min_int + 1 |]
  in
  let buf = Bytebuf.create 256 in
  let render () =
    Bytebuf.clear buf;
    for i = 0 to Array.length values - 1 do
      Bytebuf.add_decimal buf values.(i)
    done
  in
  render ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do render () done;
  let words = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "%.0f words over 100000 ints" words)
    true (words <= 4.0)

(* [Protocol.instance_digest] on an n=64 chain (the small-hits request
   size) allocates its render buffer, sized to the canonical text, plus
   a constant: the buffer record, the MD5 and its hex string.  The
   constant must not grow with the digit count of the weights. *)
let test_instance_digest_alloc_budget () =
  List.iter
    (fun width ->
      let base = int_of_string ("1" ^ String.make (width - 1) '0') in
      let weights n = Array.init n (fun i -> base + (i mod 9)) in
      let instance =
        Io.Chain_instance (Chain.make ~alpha:(weights 64) ~beta:(weights 63))
      in
      let text_words =
        float_of_int (String.length (Protocol.canonical_instance instance) / 8)
      in
      ignore (Protocol.instance_digest instance);
      let iters = 1_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to iters do ignore (Protocol.instance_digest instance) done;
      let per_call = (Gc.minor_words () -. w0) /. float_of_int iters in
      check_bool
        (Printf.sprintf "width %d: %.1f words/digest for %.0f words of text"
           width per_call text_words)
        true
        (per_call -. text_words <= 24.0))
    [ 1; 2; 3; 6; 9; 12; 15 ]

(* The v2 framing's reason to exist: on the same cache-hot request, the
   full in-process serving path allocates at least 3x fewer words under
   v2 than under v1.  Both loops run the identical n=200 figure-2
   partition through the server's hit path (cache key, lookup, the
   handler only on a miss) on this domain; v1 parses the JSON line and
   renders the envelope string, v2 decodes the binary frame in place
   and encodes into a reused write buffer.  Words are minor + major -
   promoted over 1000 requests, so nothing is counted twice. *)
let test_v2_hit_alloc_reduction () =
  let state =
    State.create ~cache_capacity:64 ~queue_capacity:64 ~session_ttl_s:0.0 ()
  in
  let chain =
    Tlp_graph.Chain_gen.figure2 (Rng.create 11) ~n:200 ~max_weight:20
  in
  let line =
    Printf.sprintf
      {|{"id":7,"method":"partition","params":{"instance":%s,"k":%d}}|}
      (Json.to_string (Json.String (Io.to_string (Io.Chain_instance chain))))
      (2 * Chain.max_alpha chain)
  in
  let fbytes =
    match Protocol.parse_frame line with
    | Ok f ->
        let fbuf = Bytebuf.create 1024 in
        Frame.encode_request fbuf f;
        Bytes.of_string (Bytebuf.contents fbuf)
    | Error _ -> Alcotest.fail "unparseable request line"
  in
  let metrics = Tlp_util.Metrics.create () in
  let handle request =
    let key = Handler.cache_key request in
    match Option.bind key (Handler.lookup state) with
    | Some entry -> Handler.Rendered entry
    | None -> (
        match
          Handler.handle ~state ~queue_depth:(fun () -> 0)
            ~cluster:(Handler.solo_cluster_doc ~host:"127.0.0.1" ~port:0)
            ~debug:false ~metrics ~key request
        with
        | Ok payload -> payload
        | Error _ -> Alcotest.fail "request rejected")
  in
  let serve_v1 () =
    match Protocol.parse_frame line with
    | Error _ -> assert false
    | Ok f ->
        let result =
          match handle f.Protocol.request with
          | Handler.Rendered entry -> entry.Cache.v1
          | Handler.Doc doc -> Json.to_string doc
        in
        ignore
          (Sys.opaque_identity (Protocol.render_ok ~id:f.Protocol.id ~result))
  in
  let wbuf = Bytebuf.create 4096 in
  let serve_v2 () =
    match Frame.decode_request fbytes ~pos:4 ~len:(Bytes.length fbytes - 4) with
    | Error _ -> assert false
    | Ok f ->
        Bytebuf.clear wbuf;
        (match handle f.Protocol.request with
        | Handler.Rendered entry ->
            Frame.encode_ok wbuf ~id:f.Protocol.id ~result:entry.Cache.v2
              ~trace:None
        | Handler.Doc doc ->
            Frame.encode_ok_doc wbuf ~id:f.Protocol.id ~doc ~trace:None);
        ignore (Sys.opaque_identity (Bytebuf.length wbuf))
  in
  (* Warm the cache and the workspace pool: both loops measure hits. *)
  serve_v1 ();
  serve_v2 ();
  let iters = 1000 in
  let words_per_request f =
    let allocated () =
      let g = Gc.quick_stat () in
      Gc.minor_words () +. g.Gc.major_words -. g.Gc.promoted_words
    in
    let w0 = allocated () in
    for _ = 1 to iters do f () done;
    (allocated () -. w0) /. float_of_int iters
  in
  let v1 = words_per_request serve_v1 in
  let v2 = words_per_request serve_v2 in
  check_bool
    (Printf.sprintf "v1 %.0f words/req over v2 %.0f words/req (%.1fx) >= 3"
       v1 v2 (v1 /. v2))
    true
    (v2 > 0.0 && v1 /. v2 >= 3.0)

(* ---------- admission queue ---------- *)

(* Deadline-free interactive pushes: the EDF queue degrades to exactly
   the old FIFO behavior (equal +inf deadlines break ties by admission
   order).  EDF ordering proper is covered in test_admission.ml. *)
let push q x =
  Admission.try_push q ~priority:Protocol.Interactive ~deadline:None x

let test_admission_bound () =
  let q = Admission.create ~capacity:2 () in
  check_bool "push 1" true (push q 1);
  check_bool "push 2" true (push q 2);
  check_bool "push 3 refused" false (push q 3);
  check_int "depth" 2 (Admission.length q);
  check_bool "fifo" true (Admission.pop q = Some 1);
  check_bool "freed a slot" true (push q 4)

let test_admission_close_drains () =
  let q = Admission.create ~capacity:4 () in
  ignore (push q 1);
  ignore (push q 2);
  Admission.close q;
  check_bool "push after close refused" false (push q 3);
  check_bool "drain 1" true (Admission.pop q = Some 1);
  check_bool "drain 2" true (Admission.pop q = Some 2);
  check_bool "then None" true (Admission.pop q = None);
  check_bool "closed" true (Admission.closed q)

let test_admission_close_wakes_blocked_pop () =
  let q : int Admission.t = Admission.create ~capacity:1 () in
  let result = ref (Some 0) in
  let th = Thread.create (fun () -> result := Admission.pop q) () in
  Thread.delay 0.05;
  Admission.close q;
  Thread.join th;
  check_bool "blocked pop returned None" true (!result = None)

(* ---------- protocol codec ---------- *)

let chain5 = Chain.make ~alpha:[| 4; 2; 7; 3; 5 |] ~beta:[| 6; 2; 9; 4 |]
let inline_chain =
  {|{"kind":"chain","alpha":[4,2,7,3,5],"beta":[6,2,9,4]}|}

let parse_ok line =
  match Protocol.parse_frame line with
  | Ok f -> f
  | Error (_, e) -> Alcotest.failf "unexpected parse error: %s" e.Protocol.message

let parse_err line =
  match Protocol.parse_frame line with
  | Ok _ -> Alcotest.failf "frame unexpectedly accepted: %s" line
  | Error (id, e) -> (id, e)

let test_parse_partition_frame () =
  let f =
    parse_ok
      (Printf.sprintf
         {|{"id":"r1","method":"partition","timeout_ms":250,"params":{"instance":%s,"k":9,"algorithm":"bottleneck"}}|}
         inline_chain)
  in
  check_bool "id" true (f.Protocol.id = Json.String "r1");
  check_bool "timeout" true (f.Protocol.timeout_ms = Some 250);
  check_bool "default priority" true
    (f.Protocol.priority = Protocol.Interactive);
  match f.Protocol.request with
  | Protocol.Partition { instance; k; algorithm } ->
      check_int "k" 9 k;
      check_bool "algorithm" true (algorithm = Protocol.Bottleneck);
      check_bool "instance canonical" true
        (Protocol.canonical_instance instance
        = Protocol.canonical_instance (Io.Chain_instance chain5))
  | _ -> Alcotest.fail "wrong request variant"

let test_parse_instance_text_and_inline_agree () =
  (* The two client spellings of one instance must canonicalize to one
     cache digest. *)
  let text = Io.to_string (Io.Chain_instance chain5) in
  let from_text =
    parse_ok
      (Printf.sprintf {|{"method":"partition","params":{"instance":%s,"k":9}}|}
         (Json.to_string (Json.String text)))
  in
  let from_inline =
    parse_ok
      (Printf.sprintf {|{"method":"partition","params":{"instance":%s,"k":9}}|}
         inline_chain)
  in
  match (from_text.Protocol.request, from_inline.Protocol.request) with
  | Protocol.Partition { instance = a; _ }, Protocol.Partition { instance = b; _ }
    ->
      Alcotest.(check string)
        "same digest"
        (Protocol.instance_digest a)
        (Protocol.instance_digest b)
  | _ -> Alcotest.fail "wrong request variants"

let test_parse_sweep_defaults () =
  let f =
    parse_ok
      (Printf.sprintf
         {|{"method":"sweep","params":{"instance":%s,"k_values":[9,7,9]}}|}
         inline_chain)
  in
  check_bool "no id becomes null" true (f.Protocol.id = Json.Null);
  match f.Protocol.request with
  | Protocol.Sweep { ks; algorithm; _ } ->
      Alcotest.(check (list int)) "ks as sent" [ 9; 7; 9 ] ks;
      check_bool "default algorithm" true (algorithm = Ksweep.Hitting)
  | _ -> Alcotest.fail "wrong request variant"

let test_parse_priority_and_zero_timeout () =
  (* timeout_ms 0 is legal ("already expired") and priority is an
     optional two-value enum defaulting to interactive. *)
  let f = parse_ok {|{"id":1,"method":"health","timeout_ms":0}|} in
  check_bool "timeout 0 accepted" true (f.Protocol.timeout_ms = Some 0);
  let b =
    parse_ok {|{"id":2,"method":"health","priority":"batch"}|}
  in
  check_bool "batch parsed" true (b.Protocol.priority = Protocol.Batch);
  let i =
    parse_ok {|{"id":3,"method":"health","priority":"interactive"}|}
  in
  check_bool "interactive parsed" true
    (i.Protocol.priority = Protocol.Interactive)

let test_parse_rejects () =
  let check_reject name line expect_id needle =
    let id, e = parse_err line in
    check_bool (name ^ ": id recovered") true (id = expect_id);
    check_bool (name ^ ": code") true (e.Protocol.code = Protocol.Bad_request);
    check_bool
      (Printf.sprintf "%s: message %S mentions %S" name e.Protocol.message
         needle)
      true
      (contains e.Protocol.message needle)
  in
  check_reject "not json" "][" Json.Null "offset";
  check_reject "not an object" "[1,2]" Json.Null "object";
  check_reject "missing method" {|{"id":7}|} (Json.Int 7) "method";
  check_reject "unknown method" {|{"id":7,"method":"zap"}|} (Json.Int 7)
    "unknown method";
  check_reject "bad id type" {|{"id":[1],"method":"health"}|} Json.Null "id";
  check_reject "bad timeout"
    {|{"id":1,"method":"health","timeout_ms":-1}|}
    (Json.Int 1) "timeout_ms";
  check_reject "bad priority"
    {|{"id":1,"method":"health","priority":"urgent"}|}
    (Json.Int 1) "priority";
  check_reject "bad k"
    (Printf.sprintf
       {|{"id":2,"method":"partition","params":{"instance":%s,"k":-3}}|}
       inline_chain)
    (Json.Int 2) "k";
  check_reject "sweep on tree"
    {|{"id":3,"method":"sweep","params":{"instance":{"kind":"tree","weights":[5,3],"parents":[[0,2]]},"k_values":[5]}}|}
    (Json.Int 3) "chain";
  check_reject "empty k_values"
    (Printf.sprintf
       {|{"id":4,"method":"sweep","params":{"instance":%s,"k_values":[]}}|}
       inline_chain)
    (Json.Int 4) "k_values";
  check_reject "oversized verify"
    {|{"id":5,"method":"verify","params":{"rounds":1000000}}|}
    (Json.Int 5) "rounds"

let test_render_envelopes () =
  let ok =
    Protocol.render_ok ~id:(Json.String "a") ~result:{|{"weight":11}|}
  in
  Alcotest.(check string)
    "ok envelope"
    {|{"schema":"tlp.rpc/v1","id":"a","ok":true,"result":{"weight":11}}|}
    ok;
  check_bool "ok validates" true (Json.is_valid ok);
  let err =
    Protocol.render_error ~id:Json.Null (Protocol.overloaded "queue full")
  in
  Alcotest.(check string)
    "error envelope"
    {|{"schema":"tlp.rpc/v1","id":null,"ok":false,"error":{"code":"overloaded","message":"queue full"}}|}
    err;
  check_bool "error validates" true (Json.is_valid err)

(* ---------- Json_out.parse ---------- *)

let test_json_parse_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\ntab\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Int 0 ]);
        ("o", Json.Obj [ ("nested", Json.List []) ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok doc' ->
      Alcotest.(check string)
        "round trip" (Json.to_string doc) (Json.to_string doc')
  | Error msg -> Alcotest.failf "round trip failed: %s" msg

let test_json_parse_numbers_and_escapes () =
  check_bool "int" true (Json.parse "42" = Ok (Json.Int 42));
  check_bool "negative" true (Json.parse "-7" = Ok (Json.Int (-7)));
  check_bool "exponent is float" true (Json.parse "1e3" = Ok (Json.Float 1000.));
  check_bool "fraction is float" true (Json.parse "2.5" = Ok (Json.Float 2.5));
  check_bool "unicode escape" true
    (Json.parse {|"Aé"|} = Ok (Json.String "A\xc3\xa9"));
  check_bool "surrogate pair" true
    (Json.parse {|"😀"|} = Ok (Json.String "\xf0\x9f\x98\x80"))

let test_json_parse_rejects () =
  let rejects s =
    match Json.parse s with Ok _ -> false | Error _ -> true
  in
  check_bool "leading zero" true (rejects "01");
  check_bool "trailing garbage" true (rejects "1 x");
  check_bool "bare word" true (rejects "nulla");
  check_bool "unterminated string" true (rejects {|"abc|});
  check_bool "control char" true (rejects "\"a\nb\"");
  check_bool "trailing comma" true (rejects "[1,]");
  check_bool "empty input" true (rejects "");
  check_bool "lone minus" true (rejects "-")

(* ---------- loopback helpers ---------- *)

let with_server ?(jobs = 2) ?(queue = 8) ?(cache = 32) ?timeout_ms
    ?(debug = false) f =
  let config =
    {
      Server.default_config with
      Server.port = 0;
      jobs;
      queue_capacity = queue;
      cache_capacity = cache;
      default_timeout_ms = timeout_ms;
      enable_debug = debug;
    }
  in
  let srv = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f srv)

(* One-shot exchange: connect, send every line, half-close, read to EOF.
   Responses may arrive out of request order (that is part of the
   protocol); callers correlate by id. *)
let exchange port lines =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  let payload = String.concat "\n" lines ^ "\n" in
  let bytes = Bytes.of_string payload in
  let n = Bytes.length bytes in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd bytes !written (n - !written)
  done;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec read_all () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | r ->
        Buffer.add_subbytes buf chunk 0 r;
        read_all ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all ()
  in
  read_all ();
  Unix.close fd;
  List.filter
    (fun l -> String.trim l <> "")
    (String.split_on_char '\n' (Buffer.contents buf))

let response_id line =
  match Json.parse line with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "id" fields with Some id -> id | None -> Json.Null)
  | _ -> Alcotest.failf "unparseable response: %s" line

let find_response responses id =
  match List.find_opt (fun l -> response_id l = id) responses with
  | Some l -> l
  | None -> Alcotest.failf "no response with id %s" (Json.to_string id)

let error_code line =
  match Json.parse line with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "error" fields with
      | Some (Json.Obj err) -> (
          match List.assoc_opt "code" err with
          | Some (Json.String c) -> Some c
          | _ -> None)
      | _ -> None)
  | _ -> None

let partition_line ~id ~k ?(algorithm = "bandwidth") () =
  Printf.sprintf
    {|{"id":%d,"method":"partition","params":{"instance":%s,"k":%d,"algorithm":"%s"}}|}
    id inline_chain k algorithm

let reference_partition ~id ~k ~algorithm =
  match
    Handler.partition_result (Io.Chain_instance chain5) ~k ~algorithm
  with
  | Ok doc -> Protocol.render_ok ~id:(Json.Int id) ~result:(Json.to_string doc)
  | Error _ -> Alcotest.fail "reference partition unexpectedly failed"

(* ---------- loopback: end to end ---------- *)

let test_loopback_byte_identical () =
  with_server (fun srv ->
      let port = Server.port srv in
      (* Concurrent clients: partitions under three algorithms plus a
         sweep, each exchanged on its own connection from its own
         thread. *)
      let sweep_line =
        Printf.sprintf
          {|{"id":100,"method":"sweep","params":{"instance":%s,"k_values":[7,9,12],"algorithm":"deque"}}|}
          inline_chain
      in
      let requests =
        [
          partition_line ~id:1 ~k:9 ();
          partition_line ~id:2 ~k:9 ~algorithm:"bottleneck" ();
          partition_line ~id:3 ~k:9 ~algorithm:"pipeline" ();
          sweep_line;
        ]
      in
      let results = Array.make (List.length requests) [] in
      let threads =
        List.mapi
          (fun i line ->
            Thread.create (fun () -> results.(i) <- exchange port [ line ]) ())
          requests
      in
      List.iter Thread.join threads;
      let responses = List.concat (Array.to_list results) in
      check_int "every request answered" 4 (List.length responses);
      let expect_partition id algorithm =
        Alcotest.(check string)
          (Printf.sprintf "partition %d byte-identical" id)
          (reference_partition ~id ~k:9 ~algorithm)
          (find_response responses (Json.Int id))
      in
      expect_partition 1 Protocol.Bandwidth;
      expect_partition 2 Protocol.Bottleneck;
      expect_partition 3 Protocol.Pipeline;
      let sweep_reference =
        Protocol.render_ok ~id:(Json.Int 100)
          ~result:
            (Json.to_string
               (Handler.sweep_result chain5 ~ks:[ 7; 9; 12 ]
                  ~algorithm:Ksweep.Deque))
      in
      Alcotest.(check string)
        "sweep byte-identical" sweep_reference
        (find_response responses (Json.Int 100)))

let test_loopback_cache_hit () =
  with_server (fun srv ->
      let port = Server.port srv in
      let st = Server.state srv in
      let cache_hits () =
        State.with_lock st (fun () -> Cache.hits (State.cache st))
      in
      let first = exchange port [ partition_line ~id:1 ~k:9 () ] in
      check_int "no hit on first request" 0 (cache_hits ());
      (* Same instance spelled as canonical text instead of inline
         arrays: still one cache entry. *)
      let text = Io.to_string (Io.Chain_instance chain5) in
      let second =
        exchange port
          [
            Printf.sprintf
              {|{"id":1,"method":"partition","params":{"instance":%s,"k":9}}|}
              (Json.to_string (Json.String text));
          ]
      in
      check_int "second request hit the cache" 1 (cache_hits ());
      Alcotest.(check (list string))
        "cached response byte-identical" first second;
      check_int "one cache entry" 1
        (State.with_lock st (fun () -> Cache.length (State.cache st))))

let test_loopback_verify_and_infeasible () =
  with_server (fun srv ->
      let port = Server.port srv in
      let responses =
        exchange port
          [
            {|{"id":1,"method":"verify","params":{"rounds":10,"seed":3}}|};
            partition_line ~id:2 ~k:1 ();
            (* k below max vertex weight *)
          ]
      in
      let verify_reference =
        Protocol.render_ok ~id:(Json.Int 1)
          ~result:(Json.to_string (Handler.verify_result ~rounds:10 ~seed:3))
      in
      Alcotest.(check string)
        "verify byte-identical (seeded from request)" verify_reference
        (find_response responses (Json.Int 1));
      let infeasible = find_response responses (Json.Int 2) in
      check_bool "infeasible is ok:true" true
        (error_code infeasible = None);
      check_bool "infeasible field present" true
        (contains infeasible "infeasible"))

let test_loopback_queue_full () =
  (* One worker, queue of one.  Jam the worker with a long sleep, then
     burst: exactly one request can sit in the queue, the rest must be
     answered [overloaded] immediately — not hang, not crash. *)
  with_server ~jobs:1 ~queue:1 ~debug:true (fun srv ->
      let port = Server.port srv in
      let jam =
        Thread.create
          (fun () ->
            ignore
              (exchange port [ {|{"id":0,"method":"sleep","params":{"ms":700}}|} ]))
          ()
      in
      Thread.delay 0.25 (* let the worker pop the jam request *);
      let burst =
        exchange port (List.map (fun id -> partition_line ~id ~k:9 ()) [ 1; 2; 3; 4 ])
      in
      Thread.join jam;
      check_int "burst fully answered" 4 (List.length burst);
      let overloaded, succeeded =
        List.partition (fun l -> error_code l = Some "overloaded") burst
      in
      check_int "queue admitted exactly one" 1 (List.length succeeded);
      check_int "rest overloaded" 3 (List.length overloaded);
      (* Health stays answerable while the solve queue is jammed. *)
      check_bool "control plane unaffected" true
        (error_code
           (List.hd (exchange port [ {|{"id":9,"method":"health"}|} ]))
        = None))

let test_loopback_timeout () =
  with_server ~jobs:1 ~queue:2 ~debug:true (fun srv ->
      let port = Server.port srv in
      let jam =
        Thread.create
          (fun () ->
            ignore
              (exchange port [ {|{"id":0,"method":"sleep","params":{"ms":600}}|} ]))
          ()
      in
      Thread.delay 0.25;
      (* Admitted behind the jam with a 50ms deadline: expired by the
         time a worker picks it up. *)
      let responses =
        exchange port
          [
            Printf.sprintf
              {|{"id":1,"method":"partition","timeout_ms":50,"params":{"instance":%s,"k":9}}|}
              inline_chain;
          ]
      in
      Thread.join jam;
      check_bool "deadline enforced" true
        (error_code (find_response responses (Json.Int 1)) = Some "timeout"))

let test_loopback_malformed_and_debug_gate () =
  (* debug defaults off: sleep must be rejected as unknown. *)
  with_server (fun srv ->
      let port = Server.port srv in
      let responses =
        exchange port
          [
            "][";
            {|{"id":1,"method":"sleep","params":{"ms":1}}|};
            {|{"id":2,"method":"health"}|};
          ]
      in
      check_int "all three answered" 3 (List.length responses);
      check_bool "malformed frame rejected, id null" true
        (error_code (find_response responses Json.Null) = Some "bad_request");
      check_bool "sleep rejected without debug" true
        (error_code (find_response responses (Json.Int 1)) = Some "bad_request");
      check_bool "health fine" true
        (error_code (find_response responses (Json.Int 2)) = None))

let test_loopback_stats_shape () =
  with_server (fun srv ->
      let port = Server.port srv in
      ignore (exchange port [ partition_line ~id:1 ~k:9 () ]);
      let stats = List.hd (exchange port [ {|{"id":7,"method":"stats"}|} ]) in
      check_bool "stats validates" true (Json.is_valid stats);
      match Json.parse stats with
      | Ok (Json.Obj fields) -> (
          match List.assoc_opt "result" fields with
          | Some (Json.Obj result) ->
              List.iter
                (fun field ->
                  check_bool (field ^ " present") true
                    (List.mem_assoc field result))
                [
                  "uptime_s";
                  "requests";
                  "errors";
                  "cache";
                  "queue";
                  "queue_depth";
                  "overruns";
                  "slow_ring";
                  "metrics";
                ]
          | _ -> Alcotest.fail "stats result not an object")
      | _ -> Alcotest.fail "stats response unparseable")

(* ---------- deadline-aware admission (EDF, shedding, overruns) ---------- *)

let stats_result srv =
  let stats =
    List.hd (exchange (Server.port srv) [ {|{"id":99,"method":"stats"}|} ])
  in
  match Json.parse stats with
  | Ok (Json.Obj fields) -> (
      match List.assoc_opt "result" fields with
      | Some (Json.Obj result) -> result
      | _ -> Alcotest.fail "stats result not an object")
  | _ -> Alcotest.fail "stats response unparseable"

let response_ids responses =
  List.filter_map
    (fun l -> match response_id l with Json.Int i -> Some i | _ -> None)
    responses

let test_loopback_edf_order () =
  (* One worker jammed by a long sleep; three partitions with deadlines
     5s, 1s, 3s pile up in the queue in that arrival order.  EDF must
     answer them 2, 3, 1 — deadline order, not arrival order. *)
  with_server ~jobs:1 ~debug:true (fun srv ->
      let port = Server.port srv in
      let jam =
        Thread.create
          (fun () ->
            ignore
              (exchange port [ {|{"id":0,"method":"sleep","params":{"ms":400}}|} ]))
          ()
      in
      Thread.delay 0.2 (* let the worker pop the jam request *);
      let line id timeout_ms =
        Printf.sprintf
          {|{"id":%d,"method":"partition","timeout_ms":%d,"params":{"instance":%s,"k":9}}|}
          id timeout_ms inline_chain
      in
      let responses =
        exchange port [ line 1 5_000; line 2 1_000; line 3 3_000 ]
      in
      Thread.join jam;
      Alcotest.(check (list int))
        "completed in deadline order" [ 2; 3; 1 ]
        (response_ids responses);
      List.iter
        (fun l -> check_bool "answered ok" true (error_code l = None))
        responses)

let test_loopback_priority_inversion () =
  (* Batch enqueued first, interactive admitted later: the interactive
     request must still be answered first once the worker frees up. *)
  with_server ~jobs:1 ~debug:true (fun srv ->
      let port = Server.port srv in
      let jam =
        Thread.create
          (fun () ->
            ignore
              (exchange port [ {|{"id":0,"method":"sleep","params":{"ms":400}}|} ]))
          ()
      in
      Thread.delay 0.2;
      let line id priority =
        Printf.sprintf
          {|{"id":%d,"method":"partition","priority":"%s","params":{"instance":%s,"k":9}}|}
          id priority inline_chain
      in
      let responses =
        exchange port [ line 1 "batch"; line 2 "interactive" ]
      in
      Thread.join jam;
      Alcotest.(check (list int))
        "interactive preempts earlier batch" [ 2; 1 ]
        (response_ids responses))

let test_loopback_shed_doomed () =
  (* Train the sleep estimate with a completed 120 ms sleep, then ask
     for a sleep under a 60 ms deadline: the estimator says ~120 ms, so
     the request is shed [overloaded] at admission — before solving —
     and counted in stats.queue.shed. *)
  with_server ~jobs:1 ~debug:true (fun srv ->
      let port = Server.port srv in
      let train =
        exchange port [ {|{"id":1,"method":"sleep","params":{"ms":120}}|} ]
      in
      check_bool "training sleep succeeded" true
        (error_code (find_response train (Json.Int 1)) = None);
      let shed =
        exchange port
          [ {|{"id":2,"method":"sleep","timeout_ms":60,"params":{"ms":10}}|} ]
      in
      check_bool "doomed request shed as overloaded" true
        (error_code (find_response shed (Json.Int 2)) = Some "overloaded");
      let result = stats_result srv in
      (match List.assoc_opt "queue" result with
      | Some (Json.Obj queue) ->
          check_bool "stats queue.shed counts it" true
            (List.assoc_opt "shed" queue = Some (Json.Int 1))
      | _ -> Alcotest.fail "stats queue not an object");
      check_int "shed visible via State.sheds" 1
        (State.with_lock (Server.state srv) (fun () ->
             State.sheds (Server.state srv))))

let test_loopback_overrun_accounting () =
  (* A fresh server has no sleep estimate, so a 150 ms sleep under a
     100 ms deadline is admitted, dispatched before expiry, and finishes
     ~50 ms late: answered ok, but recorded as an overrun in stats and
     surfaced as an overrun_ms trace span. *)
  with_server ~jobs:1 ~debug:true (fun srv ->
      let port = Server.port srv in
      let responses =
        exchange port
          [
            {|{"id":1,"method":"sleep","timeout_ms":100,"trace":true,"params":{"ms":150}}|};
          ]
      in
      let response = find_response responses (Json.Int 1) in
      check_bool "late completion still ok" true (error_code response = None);
      (match Json.parse response with
      | Ok (Json.Obj fields) -> (
          match List.assoc_opt "trace" fields with
          | Some (Json.Obj trace) -> (
              match List.assoc_opt "spans" trace with
              | Some (Json.Obj spans) -> (
                  match List.assoc_opt "overrun_ms" spans with
                  | Some (Json.Float o) ->
                      check_bool "overrun span is positive" true (o > 0.0)
                  | _ -> Alcotest.fail "overrun_ms span missing")
              | _ -> Alcotest.fail "trace spans missing")
          | _ -> Alcotest.fail "trace object missing")
      | _ -> Alcotest.fail "response unparseable");
      let result = stats_result srv in
      match List.assoc_opt "overruns" result with
      | Some (Json.Obj overruns) -> (
          match List.assoc_opt "sleep" overruns with
          | Some (Json.Obj o) ->
              check_bool "overrun counted" true
                (List.assoc_opt "count" o = Some (Json.Int 1));
              (match (List.assoc_opt "max_ns" o, List.assoc_opt "total_ns" o) with
              | Some (Json.Int max_ns), Some (Json.Int total_ns) ->
                  check_bool "max_ns positive" true (max_ns > 0);
                  check_bool "total_ns >= max_ns" true (total_ns >= max_ns)
              | _ -> Alcotest.fail "overrun max_ns/total_ns missing")
          | _ -> Alcotest.fail "no sleep overrun entry")
      | _ -> Alcotest.fail "stats overruns missing")

let test_loopback_zero_timeout_expired () =
  (* timeout_ms 0 parses and is answered with a structured timeout —
     never queued, never solved. *)
  with_server (fun srv ->
      let port = Server.port srv in
      let responses =
        exchange port
          [
            Printf.sprintf
              {|{"id":10,"method":"partition","timeout_ms":0,"params":{"instance":%s,"k":9}}|}
              inline_chain;
          ]
      in
      let response = find_response responses (Json.Int 10) in
      check_bool "expired on arrival is timeout" true
        (error_code response = Some "timeout");
      check_bool "message says expired" true (contains response "expired"))

(* ---------- request tracing ---------- *)

let test_trace_field_must_be_bool () =
  let rejected line =
    match Protocol.parse_frame line with
    | Error (_, { Protocol.code = Protocol.Bad_request; message }) ->
        contains message "trace"
    | _ -> false
  in
  check_bool "integer trace rejected" true
    (rejected {|{"id":1,"method":"health","trace":1}|});
  check_bool "string trace rejected" true
    (rejected {|{"id":1,"method":"health","trace":"yes"}|});
  (* Explicit false is fine and means untraced. *)
  match Protocol.parse_frame {|{"id":1,"method":"health","trace":false}|} with
  | Ok frame -> check_bool "trace false parses" false frame.Protocol.trace
  | Error _ -> Alcotest.fail "trace:false must parse"

let traced_partition_line ~id ~k =
  Printf.sprintf
    {|{"id":%d,"method":"partition","params":{"instance":%s,"k":%d,"algorithm":"bandwidth"},"trace":true}|}
    id inline_chain k

let test_loopback_traced_response () =
  with_server (fun srv ->
      let port = Server.port srv in
      let response =
        find_response
          (exchange port [ traced_partition_line ~id:5 ~k:9 ])
          (Json.Int 5)
      in
      check_bool "traced response validates" true (Json.is_valid response);
      match Json.parse response with
      | Ok (Json.Obj fields) -> (
          (* The result member must be exactly the untraced result. *)
          let reference =
            match
              Handler.partition_result (Io.Chain_instance chain5) ~k:9
                ~algorithm:Protocol.Bandwidth
            with
            | Ok doc -> doc
            | Error _ -> Alcotest.fail "reference partition failed"
          in
          check_bool "result unchanged by tracing" true
            (List.assoc_opt "result" fields = Some reference);
          match List.assoc_opt "trace" fields with
          | Some (Json.Obj trace) -> (
              check_bool "request_id is an integer" true
                (match List.assoc_opt "request_id" trace with
                | Some (Json.Int _) -> true
                | _ -> false);
              match List.assoc_opt "spans" trace with
              | Some (Json.Obj spans) ->
                  List.iter
                    (fun span ->
                      check_bool (span ^ " is a float") true
                        (match List.assoc_opt span spans with
                        | Some (Json.Float ms) -> ms >= 0.0
                        | _ -> false))
                    [ "accept_ms"; "queue_ms"; "solve_ms" ]
              | _ -> Alcotest.fail "trace.spans missing")
          | _ -> Alcotest.fail "traced response carries no trace object")
      | _ -> Alcotest.fail "traced response unparseable")

let test_loopback_trace_off_byte_identity () =
  with_server (fun srv ->
      let port = Server.port srv in
      (* Populate the cache through a TRACED request, then repeat the
         same request untraced: the hit must replay bytes identical to
         the direct library rendering — tracing may never leak into
         untraced responses, cached or not. *)
      ignore (exchange port [ traced_partition_line ~id:1 ~k:9 ]);
      let untraced =
        find_response
          (exchange port [ partition_line ~id:2 ~k:9 () ])
          (Json.Int 2)
      in
      Alcotest.(check string)
        "untraced hit byte-identical to library"
        (reference_partition ~id:2 ~k:9 ~algorithm:Protocol.Bandwidth)
        untraced)

let test_loopback_slow_ring () =
  with_server (fun srv ->
      let port = Server.port srv in
      ignore (exchange port [ traced_partition_line ~id:9 ~k:9 ]);
      let stats =
        find_response (exchange port [ {|{"id":7,"method":"stats"}|} ])
          (Json.Int 7)
      in
      match Json.parse stats with
      | Ok (Json.Obj fields) -> (
          match List.assoc_opt "result" fields with
          | Some (Json.Obj result) -> (
              check_bool "queue_depth is an integer" true
                (match List.assoc_opt "queue_depth" result with
                | Some (Json.Int d) -> d >= 0
                | _ -> false);
              match List.assoc_opt "slow_ring" result with
              | Some (Json.List (Json.Obj entry :: _)) ->
                  check_bool "entry method" true
                    (List.assoc_opt "method" entry
                    = Some (Json.String "partition"));
                  check_bool "entry ok" true
                    (List.assoc_opt "ok" entry = Some (Json.Bool true));
                  check_bool "entry spans include write_ms" true
                    (match List.assoc_opt "spans" entry with
                    | Some (Json.Obj spans) ->
                        List.for_all
                          (fun s -> List.mem_assoc s spans)
                          [
                            "accept_ms";
                            "queue_ms";
                            "solve_ms";
                            "render_ms";
                            "write_ms";
                          ]
                    | _ -> false)
              | _ -> Alcotest.fail "slow_ring empty after traced request")
          | _ -> Alcotest.fail "stats result not an object")
      | _ -> Alcotest.fail "stats response unparseable")

(* A persistent v1 connection that reads one reply line per request,
   for tests that must act between a reply and the next request. *)
let open_line_conn port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  (fd, Unix.in_channel_of_descr fd)

let call_line (fd, ic) line =
  let bytes = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length bytes in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd bytes !written (n - !written)
  done;
  input_line ic

let close_line_conn (fd, _) = Unix.close fd

(* The member at [path] (object keys) of a JSON response line. *)
let json_path line path =
  let rec walk v = function
    | [] -> Some v
    | f :: rest -> (
        match v with
        | Json.Obj fields ->
            Option.bind (List.assoc_opt f fields) (fun v -> walk v rest)
        | _ -> None)
  in
  match Json.parse line with Ok v -> walk v path | Error _ -> None

let test_slow_ring_published_before_reply () =
  (* The slow-ring entry of a traced request must be visible to a
     [stats] call that any client makes after reading the reply — even
     on another connection, while the worker domain that wrote the
     reply has not yet filled in the write span. *)
  with_server (fun srv ->
      let port = Server.port srv in
      let solver = open_line_conn port and observer = open_line_conn port in
      Fun.protect
        ~finally:(fun () ->
          close_line_conn solver;
          close_line_conn observer)
        (fun () ->
          for round = 0 to 199 do
            (* A fresh K per round: every traced request is a miss, so it
               is executed and written by a worker domain. *)
            let reply =
              call_line solver (traced_partition_line ~id:round ~k:(9 + round))
            in
            let rid =
              match json_path reply [ "trace"; "request_id" ] with
              | Some (Json.Int rid) -> rid
              | _ -> Alcotest.failf "round %d: no request_id in %s" round reply
            in
            let stats = call_line observer {|{"id":0,"method":"stats"}|} in
            let ring =
              match json_path stats [ "result"; "slow_ring" ] with
              | Some (Json.List entries) -> entries
              | _ -> Alcotest.failf "round %d: stats has no slow_ring" round
            in
            if
              not
                (List.exists
                   (function
                     | Json.Obj e ->
                         List.assoc_opt "request_id" e = Some (Json.Int rid)
                     | _ -> false)
                   ring)
            then
              Alcotest.failf "round %d: request_id %d missing from the ring"
                round rid
          done))

let test_hits_bypass_admission () =
  (* One worker domain, queue of one.  With the domain jammed and the
     queue full, a cached partition is still answered at once — on the
     connection thread, never queued — while misses are refused as
     before.  The two arrival checks still come first. *)
  with_server ~jobs:1 ~queue:1 ~debug:true (fun srv ->
      let port = Server.port srv in
      let primed = exchange port [ partition_line ~id:1 ~k:9 () ] in
      check_bool "prime ok" true (error_code (List.hd primed) = None);
      let jam_done = Atomic.make false in
      let jam =
        Thread.create
          (fun () ->
            ignore
              (exchange port
                 [ {|{"id":0,"method":"sleep","params":{"ms":800}}|} ]);
            Atomic.set jam_done true)
          ()
      in
      Thread.delay 0.2 (* let the domain pop the jam *);
      let queued =
        Thread.create
          (fun () -> ignore (exchange port [ partition_line ~id:2 ~k:10 () ]))
          ()
      in
      Thread.delay 0.1 (* let the miss take the only queue slot *);
      let conn = open_line_conn port in
      Fun.protect
        ~finally:(fun () -> close_line_conn conn)
        (fun () ->
          let hit = call_line conn (traced_partition_line ~id:3 ~k:9) in
          check_bool "hit answered before the jam ends" false
            (Atomic.get jam_done);
          check_bool "hit ok" true (error_code hit = None);
          check_bool "hit never queued" true
            (json_path hit [ "trace"; "spans"; "queue_ms" ]
            = Some (Json.Float 0.0));
          let miss = call_line conn (partition_line ~id:4 ~k:11 ()) in
          check_bool "further miss refused" true
            (error_code miss = Some "overloaded"
            && contains miss "admission queue full");
          let expired =
            call_line conn
              (Printf.sprintf
                 {|{"id":5,"method":"partition","timeout_ms":0,"params":{"instance":%s,"k":9}}|}
                 inline_chain)
          in
          check_bool "expired hit is a timeout" true
            (error_code expired = Some "timeout"
            && contains expired "deadline already expired on arrival");
          (* Let the connection thread get back into its read: a stop
             seen before that read closes the connection unread.  The
             read's 0.2 s receive-timeout tick is still far off. *)
          Thread.delay 0.05;
          Server.stop srv;
          let draining = call_line conn (partition_line ~id:6 ~k:9 ()) in
          check_bool "hit while draining refused" true
            (error_code draining = Some "overloaded"
            && contains draining "server is draining"));
      Thread.join queued;
      Thread.join jam)

let test_pipelined_hits_no_deadlock () =
  (* Cache hits are written by the connection thread that also reads
     the connection. *)
  with_server (fun srv ->
      let port = Server.port srv in
      check_pipelined_sweeps ~port ~prime:(fun line ->
          List.hd (exchange port [ line ])))

let test_cache_counted_once () =
  (* The digest is taken and the cache probed exactly once per request,
     on the connection thread: a miss adds one to cache.misses and to
     the server_cache_misses metric (not one per lookup site), a hit
     one to cache.hits.  Every request still counts under requests. *)
  with_server (fun srv ->
      let st = Server.state srv in
      let counts () =
        State.with_lock st (fun () ->
            let c = State.cache st and m = State.metrics st in
            ( Cache.hits c,
              Cache.misses c,
              Tlp_util.Metrics.get m "server_cache_hits",
              Tlp_util.Metrics.get m "server_cache_misses" ))
      in
      let requests_total () =
        match List.assoc_opt "requests" (stats_result srv) with
        | Some (Json.Obj r) -> (
            match List.assoc_opt "total" r with
            | Some (Json.Int n) -> n
            | _ -> Alcotest.fail "requests.total missing")
        | _ -> Alcotest.fail "stats requests missing"
      in
      let instance =
        Json.Obj
          [
            ("kind", Json.String "chain");
            ("alpha", Json.List (List.map (fun a -> Json.Int a) [ 4; 2; 7; 3; 5 ]));
            ("beta", Json.List (List.map (fun b -> Json.Int b) [ 6; 2; 9; 4 ]));
          ]
      in
      List.iteri
        (fun i proto ->
          let client =
            Tlp_client.Client.create ~port:(Server.port srv) ~proto
              ~rng:(Tlp_util.Rng.create 5) ()
          in
          List.iter
            (fun (meth, params) ->
              let call () =
                match Tlp_client.Client.call client ~meth ~params () with
                | Ok _ -> ()
                | Error e ->
                    Alcotest.failf "%s: %s" meth
                      (Tlp_client.Client.error_to_string e)
              in
              let label what = Printf.sprintf "v%d %s %s" (i + 1) meth what in
              let h0, m0, mh0, mm0 = counts () and t0 = requests_total () in
              call ();
              let h1, m1, mh1, mm1 = counts () and t1 = requests_total () in
              check_int (label "miss: cache.misses +1") (m0 + 1) m1;
              check_int (label "miss: server_cache_misses +1") (mm0 + 1) mm1;
              check_int (label "miss: no hit") h0 h1;
              check_int (label "miss: hit metric unchanged") mh0 mh1;
              (* +2: the request itself and the stats call before it. *)
              check_int (label "miss: requests.total") (t0 + 2) t1;
              call ();
              let h2, m2, mh2, mm2 = counts () and t2 = requests_total () in
              check_int (label "hit: cache.hits +1") (h1 + 1) h2;
              check_int (label "hit: server_cache_hits +1") (mh1 + 1) mh2;
              check_int (label "hit: no miss") m1 m2;
              check_int (label "hit: miss metric unchanged") mm1 mm2;
              check_int (label "hit: requests.total") (t1 + 2) t2)
            [
              ( "partition",
                Json.Obj
                  [ ("instance", instance); ("k", Json.Int (9 + i)) ] );
              ( "sweep",
                Json.Obj
                  [
                    ("instance", instance);
                    ( "k_values",
                      Json.List [ Json.Int 7; Json.Int (12 + i) ] );
                  ] );
            ];
          Tlp_client.Client.close client)
        [ Tlp_client.Client.V1; Tlp_client.Client.V2 ])

let test_shutdown_refuses_new_connections () =
  let port =
    with_server (fun srv ->
        let port = Server.port srv in
        ignore (exchange port [ {|{"id":1,"method":"health"}|} ]);
        port)
  in
  (* with_server stopped and drained the server; the port must be dead. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let refused =
    match
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port))
    with
    | () -> false
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true
  in
  Unix.close fd;
  check_bool "connection refused after drain" true refused

let suite =
  [
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache: MRU order" `Quick test_cache_mru_order;
    Alcotest.test_case "cache: key components kept apart" `Quick
      test_cache_key_components;
    Alcotest.test_case "cache: counters and metrics" `Quick
      test_cache_counters_and_metrics;
    Alcotest.test_case "cache: refresh same key" `Quick
      test_cache_refresh_same_key;
    Alcotest.test_case "cache: capacity 0 disables" `Quick test_cache_disabled;
    Alcotest.test_case "cache: hit allocation budget" `Quick
      test_cache_hit_alloc_budget;
    Alcotest.test_case "admission: bound and fifo" `Quick test_admission_bound;
    Alcotest.test_case "admission: close drains" `Quick
      test_admission_close_drains;
    Alcotest.test_case "admission: close wakes blocked pop" `Quick
      test_admission_close_wakes_blocked_pop;
    Alcotest.test_case "protocol: partition frame" `Quick
      test_parse_partition_frame;
    Alcotest.test_case "protocol: instance spellings agree" `Quick
      test_parse_instance_text_and_inline_agree;
    Alcotest.test_case "protocol: sweep defaults" `Quick
      test_parse_sweep_defaults;
    Alcotest.test_case "protocol: rejects with recovered ids" `Quick
      test_parse_rejects;
    Alcotest.test_case "protocol: response envelopes" `Quick
      test_render_envelopes;
    Alcotest.test_case "json: parse round trip" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "json: numbers and escapes" `Quick
      test_json_parse_numbers_and_escapes;
    Alcotest.test_case "json: parse rejects" `Quick test_json_parse_rejects;
    Alcotest.test_case "loopback: byte-identical to library" `Quick
      test_loopback_byte_identical;
    Alcotest.test_case "loopback: cache hit replays bytes" `Quick
      test_loopback_cache_hit;
    Alcotest.test_case "loopback: verify + infeasible" `Quick
      test_loopback_verify_and_infeasible;
    Alcotest.test_case "loopback: queue full is overloaded" `Quick
      test_loopback_queue_full;
    Alcotest.test_case "loopback: queued deadline times out" `Quick
      test_loopback_timeout;
    Alcotest.test_case "loopback: malformed + debug gate" `Quick
      test_loopback_malformed_and_debug_gate;
    Alcotest.test_case "loopback: stats shape" `Quick test_loopback_stats_shape;
    Alcotest.test_case "loopback: EDF completes in deadline order" `Quick
      test_loopback_edf_order;
    Alcotest.test_case "loopback: interactive preempts batch" `Quick
      test_loopback_priority_inversion;
    Alcotest.test_case "loopback: doomed request shed" `Quick
      test_loopback_shed_doomed;
    Alcotest.test_case "loopback: overrun accounted" `Quick
      test_loopback_overrun_accounting;
    Alcotest.test_case "loopback: timeout_ms 0 expires on arrival" `Quick
      test_loopback_zero_timeout_expired;
    Alcotest.test_case "protocol: priority and zero timeout parse" `Quick
      test_parse_priority_and_zero_timeout;
    Alcotest.test_case "trace: field must be boolean" `Quick
      test_trace_field_must_be_bool;
    Alcotest.test_case "trace: traced response shape" `Quick
      test_loopback_traced_response;
    Alcotest.test_case "trace: off is byte-identical" `Quick
      test_loopback_trace_off_byte_identity;
    Alcotest.test_case "trace: slow ring in stats" `Quick
      test_loopback_slow_ring;
    Alcotest.test_case "trace: slow ring published before reply" `Quick
      test_slow_ring_published_before_reply;
    Alcotest.test_case "loopback: cache hits bypass admission" `Quick
      test_hits_bypass_admission;
    Alcotest.test_case "loopback: digest and cache counted once" `Quick
      test_cache_counted_once;
    Alcotest.test_case "loopback: pipelined hits never deadlock" `Quick
      test_pipelined_hits_no_deadlock;
    Alcotest.test_case "loopback: drained port refuses" `Quick
      test_shutdown_refuses_new_connections;
    Alcotest.test_case "add_decimal allocation-free" `Quick
      test_add_decimal_alloc_free;
    Alcotest.test_case "instance digest allocation budget" `Quick
      test_instance_digest_alloc_budget;
    Alcotest.test_case "v2 hit path allocates 3x less than v1" `Quick
      test_v2_hit_alloc_reduction;
  ]
