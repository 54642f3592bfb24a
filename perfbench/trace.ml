(* The traced run (--trace 1): per-layer figures for one workload.

   1. In-process replay.  The workload's ops are served here, without
      sockets, by calling each serving layer's public function in the
      order the server does, with a span around every call.  A layer's
      figure is the mean duration of its span; [workspaces.checkout_us]
      is the self time of [Workspaces.with_workspace] (its span minus
      the solve it wraps).
   2. Socket pass.  Fresh servers and the timed run's connections,
      alternating untraced and [trace:true] ops: the server's own
      accept/queue/solve split and the tracing overhead.  For
      small_hits, the same ops then go through tlp_route over two
      shards, for the router hop (routed minus direct round trip).

   Figures that do not apply to a workload are reported as 0. *)

module Json = Tlp_util.Json_out
module Bytebuf = Tlp_util.Bytebuf
module Chain = Tlp_graph.Chain
module Io = Tlp_graph.Instance_io
module Protocol = Tlp_server.Protocol
module Sframe = Tlp_server.Frame
module Cache = Tlp_server.Cache
module Workspaces = Tlp_server.Workspaces
module Handler = Tlp_server.Handler
module Session = Tlp_session.Session
module Incremental = Tlp_core.Incremental
module BH = Tlp_core.Bandwidth_hitting
module Client = Tlp_client.Client
module Ring = Tlp_route.Ring

(* name, unit, better — the per-layer list of BENCHMARK.json *)
let layer_metrics =
  [
    ("server.residual_us", "us", "lower");
    ("socket.rtt_us", "us", "lower");
    ("replay.path_us", "us", "lower");
    ("gc.minor_words_per_op", "words", "lower");
    ("admission.wait_us", "us", "lower");
    ("server.accept_us", "us", "lower");
    ("server.solve_us", "us", "lower");
    ("server.write_us", "us", "lower");
    ("trace.overhead_us", "us", "lower");
    ("frame.decode_us", "us", "lower");
    ("frame.encode_us", "us", "lower");
    ("frame.req_bytes", "bytes", "lower");
    ("frame.resp_bytes", "bytes", "lower");
    ("protocol.digest_us", "us", "lower");
    ("protocol.parse_us", "us", "lower");
    ("protocol.render_us", "us", "lower");
    ("handler.partition_us", "us", "lower");
    ("bandwidth_hitting.solve_us", "us", "lower");
    ("bandwidth_hitting.p", "count", "lower");
    ("bandwidth_hitting.q_mean", "count", "lower");
    ("bandwidth_hitting.search_steps", "count", "lower");
    ("workspaces.checkout_us", "us", "lower");
    ("workspaces.reuse_ratio", "ratio", "higher");
    ("cache.find_us", "us", "lower");
    ("cache.add_us", "us", "lower");
    ("cache.render_us", "us", "lower");
    ("cache.hit_ratio", "ratio", "higher");
    ("cache.evictions", "count", "lower");
    ("session.update_us", "us", "lower");
    ("incremental.resolve_us", "us", "lower");
    ("incremental.share", "ratio", "higher");
    ("ring.shard_of_us", "us", "lower");
    ("router.hop_us", "us", "lower");
    ("router.hedge_fired", "count", "lower");
    ("client.encode_us", "us", "lower");
    ("client.decode_us", "us", "lower");
  ]

(* ---------- spans ---------- *)

type acc = { mutable us : float; mutable calls : int }

let span tbl name f =
  let r, us = Clock.time_us f in
  let a =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
        let a = { us = 0.0; calls = 0 } in
        Hashtbl.add tbl name a;
        a
  in
  a.us <- a.us +. us;
  a.calls <- a.calls + 1;
  r

let total tbl name =
  match Hashtbl.find_opt tbl name with Some a -> a.us | None -> 0.0

let calls tbl name =
  match Hashtbl.find_opt tbl name with Some a -> a.calls | None -> 0

let per_op ops x = x /. float (max 1 ops)
let mean tbl name = per_op (calls tbl name) (total tbl name)
let ok_or what = function Ok x -> x | Error _ -> failwith ("replay: " ^ what)

(* ---------- the serving layers, in process ---------- *)

type layers = {
  spans : (string, acc) Hashtbl.t;
  cache : Cache.t;
  workspaces : Workspaces.t;
  out : Bytebuf.t;
  store : Session.t;
  mutable req_bytes : int;
  mutable resp_bytes : int;
  mutable resolves : int;
  mutable incremental : int;
}

let layers () =
  {
    spans = Hashtbl.create 32;
    cache =
      Cache.create
        ~capacity:
          Tlp_server.Server.default_config.Tlp_server.Server.cache_capacity;
    workspaces = Workspaces.create ();
    out = Bytebuf.create 4096;
    store = Session.create ~ttl_s:0.0 ();
    req_bytes = 0;
    resp_bytes = 0;
    resolves = 0;
    incremental = 0;
  }

let chain_key digest k =
  {
    Cache.digest;
    k = string_of_int k;
    objective = "bandwidth";
    algorithm = "hitting";
  }

let cached l key compute =
  match span l.spans "cache.find" (fun () -> Cache.find l.cache key) with
  | Some entry -> entry
  | None ->
      let doc = compute () in
      let entry =
        span l.spans "cache.render" (fun () ->
            {
              Cache.v1 = Json.to_string doc;
              v2 = Tlp_util.Binval.to_string doc;
            })
      in
      span l.spans "cache.add" (fun () -> Cache.add l.cache key entry);
      entry

(* One v2 partition frame, as a server serves it.  Returns the response
   payload. *)
let serve_v2 l frame =
  l.req_bytes <- l.req_bytes + String.length frame;
  let id, instance, k, algorithm =
    match
      span l.spans "frame.decode" (fun () ->
          Sframe.decode_request (Bytes.unsafe_of_string frame) ~pos:4
            ~len:(String.length frame - 4))
    with
    | Ok
        {
          Protocol.id;
          request = Protocol.Partition { instance; k; algorithm };
          _;
        } ->
        (id, instance, k, algorithm)
    | _ -> failwith "replay: not a partition frame"
  in
  let digest =
    span l.spans "protocol.digest" (fun () -> Protocol.instance_digest instance)
  in
  let n =
    match instance with
    | Io.Chain_instance c -> Chain.n c
    | Io.Tree_instance _ -> failwith "replay: tree"
  in
  let entry =
    cached l (chain_key digest k) (fun () ->
        span l.spans "workspaces.with_workspace" (fun () ->
            Workspaces.with_workspace l.workspaces ~n (fun workspace ->
                span l.spans "handler.partition" (fun () ->
                    ok_or "partition"
                      (Handler.partition_result ~workspace instance ~k
                         ~algorithm)))))
  in
  Bytebuf.clear l.out;
  span l.spans "frame.encode" (fun () ->
      Sframe.encode_ok l.out ~id ~result:entry.Cache.v2 ~trace:None);
  l.resp_bytes <- l.resp_bytes + Bytebuf.length l.out;
  let resp = Bytebuf.contents l.out in
  String.sub resp 4 (String.length resp - 4)

(* The session resolve result, shaped as the server shapes it (the
   fields of a chain-bandwidth [partition]).  The replay's check
   compares it with [Handler.partition_result], so the copy cannot
   drift from the server's shape unnoticed. *)
let resolve_doc ~k ~component_weights (s : BH.solution) =
  let ints l = Json.List (List.map (fun x -> Json.Int x) l) in
  Json.Obj
    [
      ("algorithm", Json.String "bandwidth (TEMP_S)");
      ("k", Json.Int k);
      ("cut", ints s.cut);
      ("weight", Json.Int s.weight);
      ("components", Json.Int (List.length s.cut + 1));
      ("component_weights", ints component_weights);
      ("primes", Json.Int s.stats.p);
      ("groups", Json.Int s.stats.r);
      ("q_mean", Json.Float s.stats.q_mean);
    ]

let resolve l s ~k =
  let inc =
    match Session.view s with
    | Session.Chain_view i -> i
    | Session.Tree_view _ -> failwith "replay: tree"
  in
  let sol, mode =
    ok_or "resolve"
      (span l.spans "workspaces.with_workspace" (fun () ->
           Workspaces.with_workspace l.workspaces ~n:(Incremental.n inc)
             (fun workspace ->
               span l.spans "incremental.resolve" (fun () ->
                   Incremental.resolve ~workspace inc ~k))))
  in
  l.resolves <- l.resolves + 1;
  if mode = Incremental.Incremental then l.incremental <- l.incremental + 1;
  resolve_doc ~k
    ~component_weights:(Incremental.component_weights inc sol.BH.cut)
    sol

(* One v1 session line (update or resolve).  Returns the response
   line. *)
let serve_v1 l line =
  l.req_bytes <- l.req_bytes + String.length line + 1;
  let find sid =
    match Session.find l.store ~id:sid ~now:0.0 with
    | Some s -> s
    | None -> failwith "replay: unknown session"
  in
  let id, result =
    match
      span l.spans "protocol.parse" (fun () -> Protocol.parse_frame line)
    with
    | Ok { Protocol.id; request = Protocol.Update { session; deltas }; _ } ->
        let version =
          ok_or "update"
            (span l.spans "session.update" (fun () ->
                 Session.update (find session) deltas))
        in
        ( id,
          Json.to_string
            (Json.Obj
               [
                 ("session", Json.String session);
                 ("version", Json.Int version);
                 ("applied", Json.Int (List.length deltas));
               ]) )
    | Ok { Protocol.id; request = Protocol.Resolve { session; k; _ }; _ } ->
        let s = find session in
        let entry =
          cached l (chain_key (Session.digest s) k) (fun () -> resolve l s ~k)
        in
        (id, entry.Cache.v1)
    | _ -> failwith "replay: not a session line"
  in
  let resp =
    span l.spans "protocol.render" (fun () -> Protocol.render_ok ~id ~result)
  in
  l.resp_bytes <- l.resp_bytes + String.length resp + 1;
  resp

(* ---------- 1. in-process replay ---------- *)

(* Ops replayed per workload: fixed, so the counts below repeat. *)
let replay_ops = function
  | Plan.Small_hits -> 20_000
  | Plan.Large_misses -> 150
  | Plan.Drift_rounds -> 60

type replay = {
  spans : (string, acc) Hashtbl.t;
  ops : int;
  path_us : float;  (** summed span time per op *)
  minor_words : float;  (** per op *)
  req_bytes : float;  (** per op *)
  resp_bytes : float;  (** per op *)
  reuse_ratio : float;
  incremental_share : float;
  extra : (string * float) list;  (** off-path figures: solver, client codec *)
  checked : bool;  (** every kept reply matched the reference *)
}

(* Off-path: the solver itself on the replayed misses, for its
   operation counts. *)
let solver_detail pairs =
  let spans = Hashtbl.create 4 in
  let ws = BH.Workspace.create Plan.miss_n in
  let stats =
    List.map
      (fun (r : Plan.request) ->
        (ok_or "solve"
           (span spans "solve" (fun () ->
                BH.solve ~workspace:ws r.chain ~k:r.k)))
          .BH.stats)
      pairs
  in
  let avg f =
    per_op (List.length stats) (List.fold_left (fun a s -> a +. f s) 0.0 stats)
  in
  [
    ("bandwidth_hitting.solve_us", mean spans "solve");
    ("bandwidth_hitting.p", avg (fun s -> float s.BH.p));
    ("bandwidth_hitting.q_mean", avg (fun s -> s.BH.q_mean));
    ("bandwidth_hitting.search_steps", avg (fun s -> float s.BH.search_steps));
  ]

(* Off-path: the router's placement call on the replayed keys. *)
let ring_detail reqs =
  let spans = Hashtbl.create 1 in
  let ring = Plan.ring () in
  List.iter
    (fun (r : Plan.request) ->
      let digest = Plan.digest_of r.chain in
      ignore (span spans "shard_of" (fun () -> Ring.shard_of ring digest)))
    reqs;
  [ ("ring.shard_of_us", mean spans "shard_of") ]

(* Off-path: the client codec on the replayed traffic. *)
let client_codec ~encode ~decode replies =
  let spans = Hashtbl.create 4 in
  List.iter
    (fun (i, reply) ->
      ignore (span spans "encode" (fun () -> encode i));
      ignore (span spans "decode" (fun () -> decode reply)))
    replies;
  [
    ("client.encode_us", mean spans "encode");
    ("client.decode_us", mean spans "decode");
  ]

let replay workload plan =
  let l = layers () in
  let ops = replay_ops workload in
  let keep = 200 in
  let replies = ref [] in
  let checkouts = ref (0, 0) in
  (* Serve ops 0..ops-1 with the spans, counters and GC reading reset
     first, so set-up work is not counted; keep the first replies. *)
  let run_ops serve =
    checkouts := Workspaces.counters l.workspaces;
    Hashtbl.reset l.spans;
    l.req_bytes <- 0;
    l.resp_bytes <- 0;
    let w0 = Gc.minor_words () in
    for i = 0 to ops - 1 do
      let reply = serve i in
      if i < keep then replies := (i, reply) :: !replies
    done;
    Gc.minor_words () -. w0
  in
  let minor_words, extra, checked =
    match plan with
    | Plan.Hits _ | Plan.Misses _ ->
        let req i = Option.get (Plan.request plan i) in
        (* priming, as set-up does: every hit key cached *)
        (match plan with
        | Plan.Hits { keys; _ } ->
            Array.iter
              (fun (r : Plan.request) -> ignore (serve_v2 l r.frame))
              keys
        | Plan.Misses _ | Plan.Drift _ -> ());
        let words = run_ops (fun i -> serve_v2 l (req i).frame) in
        let check = Verify.request_checker plan in
        let encode i =
          let r = req i in
          Plan.partition_frame ~id:r.id r.chain ~k:r.k ()
        in
        ( words,
          (let reqs = List.init ops req in
           match workload with
           | Plan.Large_misses -> solver_detail reqs
           | Plan.Small_hits | Plan.Drift_rounds -> ring_detail reqs)
          @ client_codec ~encode ~decode:Tlp_client.Frame.decode_response
              !replies,
          List.for_all (fun (i, reply) -> check (req i) reply) !replies )
    | Plan.Drift { sessions; rounds } ->
        Array.iter
          (fun (s : Plan.session) ->
            ignore
              (ok_or "open"
                 (Session.open_session l.store ~name:s.sname
                    ~instance:(Io.Chain_instance s.chain0) ~now:0.0 ())))
          sessions;
        let words =
          run_ops (fun r ->
              String.concat "\n"
                (List.map (serve_v1 l) (Array.to_list rounds.(r).Plan.lines)))
        in
        let verdicts =
          Verify.check_drift sessions rounds ~last:(ops - 1) ~check:(fun r ->
              List.assoc_opt r !replies)
        in
        let line i =
          Plan.round_line sessions ~r:(i / 4)
            rounds.(i / 4).Plan.deltas (i mod 4)
        in
        let lines =
          List.concat_map
            (fun (r, joined) ->
              List.mapi
                (fun x reply -> ((4 * r) + x, reply))
                (String.split_on_char '\n' joined))
            !replies
        in
        ( words,
          client_codec ~encode:line ~decode:Client.classify_response lines,
          Array.for_all Fun.id verdicts )
  in
  let created, reused =
    let c1, r1 = Workspaces.counters l.workspaces and c0, r0 = !checkouts in
    (c1 - c0, r1 - r0)
  in
  {
    spans = l.spans;
    ops;
    path_us =
      per_op ops (Hashtbl.fold (fun _ a acc -> acc +. a.us) l.spans 0.0);
    minor_words = per_op ops minor_words;
    req_bytes = per_op ops (float l.req_bytes);
    resp_bytes = per_op ops (float l.resp_bytes);
    reuse_ratio = per_op (created + reused) (float reused);
    incremental_share = per_op l.resolves (float l.incremental);
    extra;
    checked;
  }

(* ---------- 2. socket pass ---------- *)

type pass = {
  untraced_us : float list;
  traced_us : float list;
  spans_ms : (string * float) list;  (** mean server trace spans *)
  write_ms : float;  (** mean write span of the servers' slow rings *)
  verdicts : bool list;
  hit_ratio : float;
  evictions : int;
}

let trace_span reply name =
  match reply with
  | Some { Verify.trace = Some t; _ } -> (
      match Servers.get t [ "spans"; name ] with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float i)
      | _ -> None)
  | _ -> None

let mean_of xs = per_op (List.length xs) (List.fold_left ( +. ) 0.0 xs)
let us_of (s : Drive.sample) = s.latency_s *. 1e6

(* small_hits only: the untraced ops again, through tlp_route over two
   shards.  Returns the round trips, their verdicts and the hedges the
   router fired. *)
let routed_pass (cfg : Bench.config) plan ~seconds =
  let servers, _ = Bench.bring_up ~routed:true cfg plan in
  Fun.protect
    ~finally:(fun () -> Servers.stop servers)
    (fun () ->
      let clients = Bench.clients_for plan servers 1 in
      let exec = Bench.executor plan clients in
      let next = Atomic.make 0 in
      Bench.warm_up cfg.workload ~conns:1 ~next exec;
      let hedges () =
        match servers.Servers.router with
        | Some p ->
            Servers.int_at (Servers.stats p.Proc.port) [ "hedge"; "fired" ]
        | None -> 0
      in
      let fired0 = hedges () in
      let pass = Drive.phase ~conns:1 ~seconds ~next exec in
      let fired = hedges () - fired0 in
      Array.iter Client.close clients;
      ( Array.to_list (Array.map us_of pass.Drive.samples),
        Array.to_list (Bench.verify plan pass),
        fired ))

(* The pass runs on the timed run's load generator, warm-up and connection
   count, so admission queueing is what the timed run sees; odd ops
   carry [trace:true]. *)
let socket_pass (cfg : Bench.config) plan ~seconds =
  let servers, _ = Bench.bring_up cfg plan in
  Fun.protect
    ~finally:(fun () -> Servers.stop servers)
    (fun () ->
      let conns = min (Bench.connections cfg.workload) (Bench.cores ()) in
      let proto = Bench.proto_of plan in
      let clients = Bench.clients_for plan servers conns in
      let next = Atomic.make 0 in
      Bench.warm_up cfg.workload ~conns ~next (Bench.executor plan clients);
      let before = Bench.snapshot servers in
      let pass =
        Drive.phase ~conns ~seconds ~next
          (Bench.executor ~traced:(fun op -> op mod 2 = 1) plan clients)
      in
      let after = Bench.snapshot servers in
      Array.iter Client.close clients;
      let samples = Array.to_list pass.Drive.samples in
      let lat parity =
        List.filter_map
          (fun (s : Drive.sample) ->
            if s.op mod 2 = parity then Some (us_of s) else None)
          samples
      in
      let decoded =
        List.concat_map
          (fun (s : Drive.sample) ->
            match (s.response, proto) with
            | None, _ -> []
            | Some raw, Client.V1 ->
                List.map Verify.decode_v1 (String.split_on_char '\n' raw)
            | Some raw, Client.V2 -> [ Verify.decode_v2 raw ])
          samples
      in
      let mean_span name =
        mean_of (List.filter_map (fun r -> trace_span r name) decoded)
      in
      let writes =
        Array.to_list after
        |> List.concat_map (fun j -> Servers.list_at j [ "slow_ring" ])
        |> List.filter_map (fun e ->
               match Servers.get e [ "spans"; "write_ms" ] with
               | Some (Json.Float f) -> Some f
               | _ -> None)
      in
      let hits = Bench.delta before after [ "cache"; "hits" ] in
      let misses = Bench.delta before after [ "cache"; "misses" ] in
      {
        untraced_us = lat 0;
        traced_us = lat 1;
        spans_ms =
          List.map
            (fun n -> (n, mean_span n))
            [ "accept_ms"; "queue_ms"; "solve_ms" ];
        write_ms = mean_of writes;
        verdicts = Array.to_list (Bench.verify plan pass);
        hit_ratio = per_op (hits + misses) (float hits);
        evictions = Bench.delta before after [ "cache"; "evictions" ];
      })

let med l = if l = [] then 0.0 else Drive.median (Array.of_list l)

let run (cfg : Bench.config) =
  let plan = Plan.make cfg.workload ~seed:cfg.seed ~seconds:cfg.seconds in
  let r = replay cfg.workload plan in
  let p = socket_pass cfg plan ~seconds:(float cfg.seconds /. 2.0) in
  let routed_us, routed_ok, hedges =
    match cfg.workload with
    | Plan.Small_hits ->
        routed_pass cfg plan ~seconds:(float cfg.seconds /. 4.0)
    | Plan.Large_misses | Plan.Drift_rounds -> ([], [], 0)
  in
  let rtt = med p.untraced_us in
  let s name = mean r.spans name in
  let server name = 1e3 *. List.assoc name p.spans_ms in
  let values =
    [
      ("server.residual_us", rtt -. r.path_us);
      ("socket.rtt_us", rtt);
      ("replay.path_us", r.path_us);
      ("gc.minor_words_per_op", r.minor_words);
      ("admission.wait_us", server "queue_ms");
      ("server.accept_us", server "accept_ms");
      ("server.solve_us", server "solve_ms");
      ("server.write_us", 1e3 *. p.write_ms);
      ("trace.overhead_us", med p.traced_us -. rtt);
      ("frame.decode_us", s "frame.decode");
      ("frame.encode_us", s "frame.encode");
      ("frame.req_bytes", r.req_bytes);
      ("frame.resp_bytes", r.resp_bytes);
      ("protocol.digest_us", s "protocol.digest");
      ("protocol.parse_us", s "protocol.parse");
      ("protocol.render_us", s "protocol.render");
      ("handler.partition_us", s "handler.partition");
      ( "workspaces.checkout_us",
        per_op
          (calls r.spans "workspaces.with_workspace")
          (total r.spans "workspaces.with_workspace"
          -. total r.spans "handler.partition"
          -. total r.spans "incremental.resolve") );
      ("workspaces.reuse_ratio", r.reuse_ratio);
      ("cache.find_us", s "cache.find");
      ("cache.add_us", s "cache.add");
      ("cache.render_us", s "cache.render");
      ("cache.hit_ratio", p.hit_ratio);
      ("cache.evictions", float p.evictions);
      ("session.update_us", s "session.update");
      ("incremental.resolve_us", s "incremental.resolve");
      ("incremental.share", r.incremental_share);
      ("router.hop_us", if routed_us = [] then 0.0 else med routed_us -. rtt);
      ("router.hedge_fired", float hedges);
    ]
    @ r.extra
  in
  let verdicts = p.verdicts @ routed_ok in
  let attempted = List.length verdicts in
  let failed = List.length (List.filter not verdicts) in
  {
    Bench.correct = r.checked && failed = 0 && attempted > 0;
    attempted;
    failed;
    metrics =
      List.map
        (fun (name, unit_, _) ->
          {
            Bench.name;
            unit_;
            value = Option.value ~default:0.0 (List.assoc_opt name values);
          })
        layer_metrics;
    notes =
      [
        ("workload", Json.String (Plan.name cfg.workload));
        ("seed", Json.Int cfg.seed);
        ("replay_ops", Json.Int r.ops);
        ("replay_checked", Json.Bool r.checked);
        ("socket_untraced", Json.Int (List.length p.untraced_us));
        ("socket_traced", Json.Int (List.length p.traced_us));
        ("routed", Json.Int (List.length routed_us));
      ];
  }
