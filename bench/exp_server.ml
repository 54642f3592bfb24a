(* Service benchmark: throughput and latency of the tlp.rpc/v1 daemon
   over TCP loopback, and the cache's effect on repeat requests.

   Three measurements, written to BENCH_server.json:

   - [throughput]: distinct partition requests pushed through [clients]
     concurrent connections (all cache misses — every request is a fresh
     instance), requests per second end to end;
   - [cache]: the same request repeated — first call solves (miss),
     subsequent calls replay rendered bytes (hits) — mean latency of
     each side and the speedup;
   - [mixed]: a pipelined mixed batch (partition + sweep + stats) on one
     connection, exercising out-of-order completion;
   - [alloc]: GC-measured allocation words per request of the full
     in-process serving path (parse/decode -> handle -> render/encode),
     v1 JSON lines against v2 binary frames on the same cache-hot
     request — the v2 framing's reason to exist;
   - [drift]: the streaming-session resolve (PROTOCOL.md section 9)
     under weight drift, on a spiky and a figure-2 chain — p50 of the
     Auto plan against a forced rescan and against a from-scratch
     solve on the same delta stream, answers asserted identical.  Auto
     must beat from-scratch on both shapes; CI checks the written
     figures.

   The server runs in-process on an ephemeral port; clients are
   sys-threads doing blocking socket I/O, which is exactly what an
   external client would look like to the daemon. *)

module Json_out = Tlp_util.Json_out
module Timer = Tlp_util.Timer
module Rng = Tlp_util.Rng
module Chain_gen = Tlp_graph.Chain_gen
module Chain = Tlp_graph.Chain
module Server = Tlp_server.Server
module State = Tlp_server.State
module Cache = Tlp_server.Cache
module Protocol = Tlp_server.Protocol
module Handler = Tlp_server.Handler
module Frame = Tlp_server.Frame
module Bytebuf = Tlp_util.Bytebuf

let wall f =
  let t0 = Timer.now () in
  let x = f () in
  (x, Timer.now () -. t0)

(* One-shot exchange: send lines, half-close, read to EOF. *)
let exchange port lines =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  let payload = String.concat "\n" lines ^ "\n" in
  let bytes = Bytes.of_string payload in
  let n = Bytes.length bytes in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd bytes !written (n - !written)
  done;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
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

let partition_line ~id chain ~k =
  Printf.sprintf
    {|{"id":%d,"method":"partition","params":{"instance":%s,"k":%d}}|} id
    (Json_out.to_string
       (Json_out.String
          (Tlp_graph.Instance_io.to_string (Tlp_graph.Instance_io.Chain_instance chain))))
    k

let run ~max_jobs () =
  print_endline "== server: tlp.rpc/v1 daemon over TCP loopback ==";
  let jobs = Stdlib.min max_jobs 4 in
  let config =
    {
      Server.default_config with
      Server.port = 0;
      jobs;
      queue_capacity = 256;
      cache_capacity = 512;
    }
  in
  let srv = Server.start config in
  let port = Server.port srv in
  let rng = Rng.create 42 in
  (* --- throughput: distinct instances, all misses --- *)
  let clients = jobs in
  let per_client = 40 in
  let n = 400 in
  let batches =
    Array.init clients (fun c ->
        List.init per_client (fun i ->
            let chain = Chain_gen.figure2 (Rng.split rng) ~n ~max_weight:20 in
            let k = (2 * Chain.max_alpha chain) + (c + i mod 7) in
            partition_line ~id:((c * per_client) + i) chain ~k))
  in
  let answered = Array.make clients 0 in
  let (), throughput_s =
    wall (fun () ->
        let threads =
          Array.mapi
            (fun c lines ->
              Thread.create
                (fun () -> answered.(c) <- List.length (exchange port lines))
                ())
            batches
        in
        Array.iter Thread.join threads)
  in
  let total = Array.fold_left ( + ) 0 answered in
  assert (total = clients * per_client);
  let rps = float_of_int total /. throughput_s in
  Printf.printf
    "  throughput: %d requests, %d clients, n=%d: %.3fs (%.0f req/s)\n" total
    clients n throughput_s rps;
  (* --- cache: one expensive request repeated --- *)
  (* A sweep over many Ks is costly to solve and cheap to replay, so the
     miss/hit asymmetry is the cache's, not the socket's; the hit side
     is pipelined on one connection to amortize connection setup. *)
  let repeat_chain = Chain_gen.figure2 (Rng.create 7) ~n:20_000 ~max_weight:20 in
  let repeat_base = 2 * Chain.max_alpha repeat_chain in
  let line =
    Printf.sprintf
      {|{"id":0,"method":"sweep","params":{"instance":%s,"k_values":[%s]}}|}
      (Json_out.to_string
         (Json_out.String
            (Tlp_graph.Instance_io.to_string
               (Tlp_graph.Instance_io.Chain_instance repeat_chain))))
      (String.concat ","
         (List.init 64 (fun i -> string_of_int (repeat_base + (i * 3)))))
  in
  let repeats = 50 in
  let (), miss_s = wall (fun () -> ignore (exchange port [ line ])) in
  let (), hits_s =
    wall (fun () ->
        ignore (exchange port (List.init repeats (fun _ -> line))))
  in
  let hit_s = hits_s /. float_of_int repeats in
  let st = Server.state srv in
  let cache_hits, cache_misses =
    State.with_lock st (fun () ->
        (Cache.hits (State.cache st), Cache.misses (State.cache st)))
  in
  assert (cache_hits >= repeats);
  Printf.printf
    "  cache sweep n=20000 x64K: miss %.1fms, hit %.3fms (%.0fx); %d hits / \
     %d misses\n"
    (miss_s *. 1e3) (hit_s *. 1e3) (miss_s /. hit_s) cache_hits cache_misses;
  (* --- mixed pipelined batch on one connection --- *)
  let sweep_line =
    Printf.sprintf
      {|{"id":1000,"method":"sweep","params":{"instance":%s,"k_values":[%s]}}|}
      (Json_out.to_string
         (Json_out.String
            (Tlp_graph.Instance_io.to_string
               (Tlp_graph.Instance_io.Chain_instance repeat_chain))))
      (String.concat ","
         (List.init 8 (fun i -> string_of_int (repeat_base + (i * 5)))))
  in
  let mixed =
    List.concat
      [
        List.init 10 (fun i ->
            let chain =
              Chain_gen.figure2 (Rng.split rng) ~n:200 ~max_weight:20
            in
            partition_line ~id:i chain ~k:(2 * Chain.max_alpha chain));
        [ sweep_line; {|{"id":2000,"method":"stats"}|} ];
      ]
  in
  let mixed_answers, mixed_s = wall (fun () -> exchange port mixed) in
  assert (List.length mixed_answers = List.length mixed);
  Printf.printf "  mixed batch of %d on one connection: %.3fs\n"
    (List.length mixed) mixed_s;
  Server.stop srv;
  Server.wait srv;
  (* --- alloc: per-request allocation, v1 vs v2 serving path --- *)
  (* Both loops run the identical request through the identical handler
     on this thread (Gc stats are per-domain, so nothing else may
     allocate concurrently): the only difference is the framing — v1
     parses the JSON line and renders the envelope string, v2 decodes
     the binary frame in place and encodes into a reused write buffer.
     The request is a cache hit after warmup, so the numbers isolate
     the wire codec cost, which is exactly what the framing changes. *)
  let alloc_state =
    State.create ~cache_capacity:64 ~queue_capacity:64 ~seed:0
      ~session_ttl_s:0.0 ()
  in
  let alloc_chain = Chain_gen.figure2 (Rng.create 11) ~n:200 ~max_weight:20 in
  let alloc_line =
    partition_line ~id:7 alloc_chain ~k:(2 * Chain.max_alpha alloc_chain)
  in
  let alloc_frame =
    match Protocol.parse_frame alloc_line with
    | Ok f -> f
    | Error _ -> failwith "alloc scenario: unparseable request line"
  in
  let fbuf = Bytebuf.create 1024 in
  Frame.encode_request fbuf alloc_frame;
  let fbytes = Bytes.of_string (Bytebuf.contents fbuf) in
  let flen = Bytes.length fbytes - 4 in
  let alloc_rng = Rng.create 3 in
  let alloc_metrics = Tlp_util.Metrics.create () in
  (* The server's path: key and lookup as on the connection thread, the
     handler only on a miss. *)
  let handle request =
    let key = Handler.cache_key request in
    match Option.bind key (Handler.lookup alloc_state) with
    | Some entry -> Handler.Rendered entry
    | None -> (
        match
          Handler.handle ~state:alloc_state
            ~queue_depth:(fun () -> 0)
            ~cluster:(Handler.solo_cluster_doc ~host:"127.0.0.1" ~port:0)
            ~debug:false ~rng:alloc_rng ~metrics:alloc_metrics ~key request
        with
        | Ok payload -> payload
        | Error _ -> failwith "alloc scenario: request rejected")
  in
  let serve_v1 () =
    match Protocol.parse_frame alloc_line with
    | Error _ -> assert false
    | Ok f ->
        let result =
          match handle f.Protocol.request with
          | Handler.Rendered entry -> entry.Cache.v1
          | Handler.Doc doc -> Json_out.to_string doc
        in
        ignore (Sys.opaque_identity (Protocol.render_ok ~id:f.Protocol.id ~result))
  in
  let wbuf = Bytebuf.create 4096 in
  let serve_v2 () =
    match Frame.decode_request fbytes ~pos:4 ~len:flen with
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
  (* Warm the cache (and the workspace pool) so both loops measure the
     steady-state hit path. *)
  serve_v1 ();
  serve_v2 ();
  let alloc_iters = 1000 in
  let words_per_request f =
    let g0 = Gc.quick_stat () in
    let m0 = Gc.minor_words () in
    for _ = 1 to alloc_iters do
      f ()
    done;
    let m1 = Gc.minor_words () in
    let g1 = Gc.quick_stat () in
    (m1 +. g1.Gc.major_words -. g1.Gc.promoted_words
    -. (m0 +. g0.Gc.major_words -. g0.Gc.promoted_words))
    /. float_of_int alloc_iters
  in
  let v1_words = words_per_request serve_v1 in
  let v2_words = words_per_request serve_v2 in
  let alloc_reduction = v1_words /. v2_words in
  Printf.printf
    "  alloc n=200 hit path: v1 %.0f words/req, v2 %.0f words/req (%.1fx)\n"
    v1_words v2_words alloc_reduction;
  (* --- deadline: EDF shedding and overrun accounting --- *)
  (* A dedicated jobs=1 debug server runs a deterministic three-step
     script: train the per-method estimator with a 50ms sleep, admit a
     150ms sleep whose 100ms budget it will overrun (the estimate, 50ms,
     says it fits), then offer a request whose 30ms budget the updated
     ~70ms estimate cannot meet — shed at admission as overloaded. *)
  let dconfig =
    { Server.default_config with Server.port = 0; jobs = 1; enable_debug = true }
  in
  let dsrv = Server.start dconfig in
  let dport = Server.port dsrv in
  ignore (exchange dport [ {|{"id":1,"method":"sleep","params":{"ms":50}}|} ]);
  ignore
    (exchange dport
       [ {|{"id":2,"method":"sleep","params":{"ms":150},"timeout_ms":100}|} ]);
  let shed_replies =
    exchange dport
      [ {|{"id":3,"method":"sleep","params":{"ms":500},"timeout_ms":30}|} ]
  in
  assert (List.length shed_replies = 1);
  let dst = Server.state dsrv in
  let sheds, overruns =
    State.with_lock dst (fun () -> (State.sheds dst, State.overruns dst))
  in
  Server.stop dsrv;
  Server.wait dsrv;
  assert (sheds = 1);
  let sleep_overrun =
    match List.assoc_opt "sleep" overruns with
    | Some o -> o
    | None -> failwith "deadline scenario recorded no sleep overrun"
  in
  assert (sleep_overrun.State.count = 1);
  Printf.printf
    "  deadline: shed %d, overruns(sleep) count=%d max=%.1fms\n" sheds
    sleep_overrun.State.count
    (sleep_overrun.State.max_ns /. 1e6);
  (* --- drift: incremental session resolve vs from-scratch --- *)
  (* The streaming-session hot path (PROTOCOL.md section 9), measured
     in process on the two session shapes perfbench's drift_rounds
     serves.  Three replicas of one drifting instance receive identical
     delta batches: one resolves under the production [Auto] plan, one
     under [Force_full], and one is materialized and solved by
     [Bandwidth_hitting.solve], which is what a session-less server
     would do.  Answers are asserted identical each round.  On the
     spiky shape (a heavy vertex every 100, so few primes) Auto must
     repair every round; on the figure-2 shape (uniform weights, primes
     on most vertices) both plans pay the same group stream and DP, so
     the repair wins there too. *)
  let module Incremental = Tlp_core.Incremental in
  let module BH = Tlp_core.Bandwidth_hitting in
  let drift_n = 50_000 in
  let drift_rounds = 30 in
  let p50 times =
    let sorted = Array.copy times in
    Array.sort Stdlib.compare sorted;
    sorted.(Array.length sorted / 2)
  in
  let drift_shape ~name chain ~k =
    let auto_state = Incremental.create chain in
    let full_state = Incremental.create chain in
    let workspace = BH.Workspace.create drift_n in
    (* Warm the per-K state so round timings measure repair against
       an established state, not the first discovery pass. *)
    (match Incremental.resolve ~workspace auto_state ~k with
    | Ok _ -> ()
    | Error _ -> failwith ("drift " ^ name ^ ": warmup resolve infeasible"));
    let rng = Rng.create 5 in
    let auto_times = Array.make drift_rounds 0.0 in
    let full_times = Array.make drift_rounds 0.0 in
    let scratch_times = Array.make drift_rounds 0.0 in
    let incremental_rounds = ref 0 in
    for round = 0 to drift_rounds - 1 do
      let deltas =
        List.init 3 (fun _ ->
            Incremental.Vertex (1 + Rng.int rng (drift_n - 1), 1))
      in
      (match
         ( Incremental.apply auto_state deltas,
           Incremental.apply full_state deltas )
       with
      | Ok (), Ok () -> ()
      | _ -> failwith ("drift " ^ name ^ ": delta batch rejected"));
      let auto_result, auto_s =
        wall (fun () -> Incremental.resolve ~workspace auto_state ~k)
      in
      let full_result, full_s =
        wall (fun () ->
            Incremental.resolve ~plan:Incremental.Force_full ~workspace
              full_state ~k)
      in
      let scratch_result, scratch_s =
        wall (fun () ->
            BH.solve ~workspace (Incremental.chain full_state) ~k)
      in
      auto_times.(round) <- auto_s;
      full_times.(round) <- full_s;
      scratch_times.(round) <- scratch_s;
      match (auto_result, full_result, scratch_result) with
      | Ok (auto_sol, mode), Ok (full_sol, _), Ok scratch_sol ->
          if mode = Incremental.Incremental then incr incremental_rounds;
          assert (auto_sol = scratch_sol && full_sol = scratch_sol)
      | _ -> failwith ("drift " ^ name ^ ": resolve infeasible")
    done;
    let auto_p50 = p50 auto_times and full_p50 = p50 full_times in
    let scratch_p50 = p50 scratch_times in
    assert (auto_p50 < scratch_p50);
    Printf.printf
      "  drift %s n=%d k=%d rounds=%d: resolve p50 auto %.3fms (%d \
       incremental), force-full %.3fms, from-scratch %.3fms\n"
      name drift_n k drift_rounds (auto_p50 *. 1e3) !incremental_rounds
      (full_p50 *. 1e3) (scratch_p50 *. 1e3);
    (auto_p50, full_p50, scratch_p50, !incremental_rounds)
  in
  let spiky_k = 20_000 and figure2_k = 300 in
  let spiky_chain =
    Chain.make
      ~alpha:(Array.init drift_n (fun i -> if i mod 100 = 0 then 5_000 else 1))
      ~beta:(Array.make (drift_n - 1) 1)
  in
  let figure2_chain =
    Chain_gen.figure2 (Rng.create 7) ~n:drift_n ~max_weight:20
  in
  let ((inc_p50, full_p50, _, inc_mode_hits) as spiky) =
    drift_shape ~name:"spiky" spiky_chain ~k:spiky_k
  in
  let figure2 = drift_shape ~name:"figure2" figure2_chain ~k:figure2_k in
  let shapes =
    [ ("spiky", spiky_k, spiky); ("figure2", figure2_k, figure2) ]
  in
  assert (inc_mode_hits = drift_rounds);
  assert (inc_p50 < full_p50);
  let doc =
    Json_out.Obj
      [
        ("schema", Json_out.String "tlp.bench.server/v1");
        ("suite", Json_out.String "server");
        ("jobs", Json_out.Int jobs);
        ( "throughput",
          Json_out.Obj
            [
              ("requests", Json_out.Int total);
              ("clients", Json_out.Int clients);
              ("n", Json_out.Int n);
              ("wall_s", Json_out.Float throughput_s);
              ("requests_per_s", Json_out.Float rps);
            ] );
        ( "cache",
          Json_out.Obj
            [
              ("n", Json_out.Int 20_000);
              ("k_count", Json_out.Int 64);
              ("repeats", Json_out.Int repeats);
              ("miss_ms", Json_out.Float (miss_s *. 1e3));
              ("hit_ms", Json_out.Float (hit_s *. 1e3));
              ("speedup", Json_out.Float (miss_s /. hit_s));
              ("hits", Json_out.Int cache_hits);
              ("misses", Json_out.Int cache_misses);
            ] );
        ( "mixed",
          Json_out.Obj
            [
              ("requests", Json_out.Int (List.length mixed));
              ("wall_s", Json_out.Float mixed_s);
            ] );
        ( "alloc",
          Json_out.Obj
            [
              ("n", Json_out.Int 200);
              ("iters", Json_out.Int alloc_iters);
              ("v1_words_per_request", Json_out.Float v1_words);
              ("v2_words_per_request", Json_out.Float v2_words);
              ("reduction", Json_out.Float alloc_reduction);
            ] );
        ( "drift",
          Json_out.Obj
            [
              ("n", Json_out.Int drift_n);
              ("k", Json_out.Int spiky_k);
              ("rounds", Json_out.Int drift_rounds);
              ("incremental_p50_ms", Json_out.Float (inc_p50 *. 1e3));
              ("from_scratch_p50_ms", Json_out.Float (full_p50 *. 1e3));
              ("speedup", Json_out.Float (full_p50 /. inc_p50));
              ("incremental_rounds", Json_out.Int inc_mode_hits);
              ( "shapes",
                Json_out.List
                  (List.map
                     (fun (name, k, (auto_p50, full_p50, scratch_p50, hits)) ->
                       Json_out.Obj
                         [
                           ("shape", Json_out.String name);
                           ("n", Json_out.Int drift_n);
                           ("k", Json_out.Int k);
                           ("auto_p50_ms", Json_out.Float (auto_p50 *. 1e3));
                           ( "force_full_p50_ms",
                             Json_out.Float (full_p50 *. 1e3) );
                           ( "from_scratch_p50_ms",
                             Json_out.Float (scratch_p50 *. 1e3) );
                           ("incremental_rounds", Json_out.Int hits);
                         ])
                     shapes) );
            ] );
        ( "deadline",
          Json_out.Obj
            [
              ("shed", Json_out.Int sheds);
              ( "overruns",
                Json_out.Obj
                  (List.map
                     (fun (meth, o) ->
                       ( meth,
                         Json_out.Obj
                           [
                             ("count", Json_out.Int o.State.count);
                             ( "total_ns",
                               Json_out.Int (int_of_float o.State.total_ns) );
                             ("max_ns", Json_out.Int (int_of_float o.State.max_ns));
                           ] ))
                     overruns) );
            ] );
      ]
  in
  let text = Json_out.to_string doc in
  assert (Json_out.is_valid text);
  Out_channel.with_open_text "BENCH_server.json" (fun oc ->
      Out_channel.output_string oc text;
      Out_channel.output_char oc '\n');
  print_endline "  wrote BENCH_server.json"
