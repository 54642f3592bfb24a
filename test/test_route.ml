(* Cluster routing tier: ring determinism and rebalance bounds, the
   hedged-race state machine, the Routing_stale client classification,
   and live v1/v2 parity + failover through an in-process router. *)

module Json = Tlp_util.Json_out
module Rng = Tlp_util.Rng
module Chain = Tlp_graph.Chain
module Io = Tlp_graph.Instance_io
module Protocol = Tlp_server.Protocol
module Server = Tlp_server.Server
module Client = Tlp_client.Client
module Backoff = Tlp_client.Backoff
module Ring = Tlp_route.Ring
module Hedge = Tlp_route.Hedge
module Router = Tlp_route.Router

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let shard name port = { Ring.name; host = "127.0.0.1"; port }

let keys n = List.init n (Printf.sprintf "key-%d")

(* ---------- ring ---------- *)

let test_ring_deterministic () =
  let members () =
    [| shard "a" 1001; shard "b" 1002; shard "c" 1003 |]
  in
  let r1 = Ring.create ~seed:42 (members ()) in
  let r2 = Ring.create ~seed:42 (members ()) in
  List.iter
    (fun k ->
      check_int ("placement of " ^ k) (Ring.shard_of r1 k) (Ring.shard_of r2 k))
    (keys 500);
  (* Placement anchors on names, not on member-list order: a permuted
     list maps every key to the same named shard. *)
  let permuted =
    Ring.create ~seed:42 [| shard "c" 1003; shard "a" 1001; shard "b" 1002 |]
  in
  List.iter
    (fun k ->
      check_string
        ("order-independent owner of " ^ k)
        (Ring.shard r1 (Ring.shard_of r1 k)).Ring.name
        (Ring.shard permuted (Ring.shard_of permuted k)).Ring.name)
    (keys 500);
  (* A different seed produces a genuinely different placement. *)
  let reseeded = Ring.create ~seed:43 (members ()) in
  let moved =
    List.length
      (List.filter
         (fun k ->
           (Ring.shard r1 (Ring.shard_of r1 k)).Ring.name
           <> (Ring.shard reseeded (Ring.shard_of reseeded k)).Ring.name)
         (keys 500))
  in
  check_bool "seed changes placement" true (moved > 0)

let test_ring_balance () =
  let r =
    Ring.create ~seed:42 [| shard "a" 1; shard "b" 2; shard "c" 3; shard "d" 4 |]
  in
  let counts = Array.make 4 0 in
  let n = 4000 in
  List.iter
    (fun k ->
      let i = Ring.shard_of r k in
      counts.(i) <- counts.(i) + 1)
    (keys n);
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int n in
      if frac < 0.10 || frac > 0.45 then
        Alcotest.failf "shard %d holds %.0f%% of the keyspace" i
          (100.0 *. frac))
    counts

let test_ring_rebalance_bound () =
  let before =
    Ring.create ~seed:42 [| shard "a" 1; shard "b" 2; shard "c" 3; shard "d" 4 |]
  in
  let after =
    Ring.create ~seed:42
      [| shard "a" 1; shard "b" 2; shard "c" 3; shard "d" 4; shard "e" 5 |]
  in
  let n = 4000 in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let o = (Ring.shard before (Ring.shard_of before k)).Ring.name in
      let o' = (Ring.shard after (Ring.shard_of after k)).Ring.name in
      if o <> o' then begin
        incr moved;
        (* Consistent hashing's defining property: growth only moves
           keys TO the new member, never between the old ones. *)
        check_string ("moved key " ^ k ^ " goes to the new shard") "e" o'
      end)
    (keys n);
  let frac = float_of_int !moved /. float_of_int n in
  (* Ideal is 1/5 of the keyspace; allow vnode-placement slack. *)
  check_bool
    (Printf.sprintf "moved fraction %.3f stays near 1/N" frac)
    true
    (frac > 0.05 && frac < 0.35)

let test_ring_replica_distinct () =
  let r = Ring.create ~seed:42 [| shard "a" 1; shard "b" 2; shard "c" 3 |] in
  List.iter
    (fun k ->
      match Ring.replica_of r k with
      | None -> Alcotest.fail "three-shard ring must offer a replica"
      | Some i ->
          check_bool
            ("replica differs from owner for " ^ k)
            true
            (i <> Ring.shard_of r k))
    (keys 200);
  let solo = Ring.create ~seed:42 [| shard "only" 1 |] in
  check_bool "single-shard ring has no replica" true
    (Ring.replica_of solo "k" = None)

let test_ring_json_roundtrip () =
  let r =
    Ring.create ~epoch:7 ~vnodes:32 ~seed:9 [| shard "a" 1; shard "b" 2 |]
  in
  match Ring.of_json (Ring.to_json r) with
  | Error msg -> Alcotest.failf "round-trip rejected: %s" msg
  | Ok r' ->
      check_int "epoch" (Ring.epoch r) (Ring.epoch r');
      List.iter
        (fun k ->
          check_int ("same placement for " ^ k) (Ring.shard_of r k)
            (Ring.shard_of r' k))
        (keys 300)

(* ---------- hedge ---------- *)

let test_hedge_primary_wins_quietly () =
  let v =
    Hedge.race ~delay_s:0.2
      ~secondary:(fun () -> (Hedge.Good, "secondary"))
      (fun () -> (Hedge.Good, "primary"))
  in
  check_string "primary's value" "primary" v.Hedge.value;
  check_bool "not fired" false v.Hedge.fired;
  check_bool "no failover" false v.Hedge.failover;
  check_int "nothing cancelled" 0 v.Hedge.cancelled

let test_hedge_fires_on_slow_primary () =
  let v =
    Hedge.race ~delay_s:0.02
      ~secondary:(fun () -> (Hedge.Good, "secondary"))
      (fun () ->
        Unix.sleepf 0.5;
        (Hedge.Good, "primary"))
  in
  check_bool "hedge fired" true v.Hedge.fired;
  check_string "secondary's value" "secondary" v.Hedge.value;
  check_bool "winner is secondary" true (v.Hedge.winner = `Secondary);
  check_int "slow primary counted cancelled" 1 v.Hedge.cancelled

let test_hedge_failover_on_primary_failure () =
  let v =
    Hedge.race ~delay_s:0.5
      ~secondary:(fun () -> (Hedge.Good, "secondary"))
      (fun () -> (Hedge.Bad, "primary-error"))
  in
  check_bool "failover, not hedge" true
    (v.Hedge.failover && not v.Hedge.fired);
  check_string "secondary's value" "secondary" v.Hedge.value

let test_hedge_double_failure_keeps_primary_error () =
  let v =
    Hedge.race ~delay_s:0.01
      ~secondary:(fun () ->
        Unix.sleepf 0.05;
        (Hedge.Bad, "secondary-error"))
      (fun () ->
        Unix.sleepf 0.1;
        (Hedge.Bad, "primary-error"))
  in
  check_string "primary's error surfaces" "primary-error" v.Hedge.value;
  check_bool "hedge fired" true v.Hedge.fired

let test_hedge_no_secondary () =
  let v = Hedge.race ~delay_s:0.01 (fun () ->
      Unix.sleepf 0.05;
      (Hedge.Good, "primary"))
  in
  check_string "primary's value" "primary" v.Hedge.value;
  check_bool "nothing fired without a replica" false v.Hedge.fired

(* Without a replica there is nothing to race: the primary runs on the
   caller's own thread. *)
let test_hedge_no_secondary_runs_inline () =
  let caller = Thread.id (Thread.self ()) in
  let v =
    Hedge.race ~delay_s:0.01 (fun () ->
        (Hedge.Good, Thread.id (Thread.self ())))
  in
  check_int "primary ran on the caller's thread" caller v.Hedge.value;
  check_int "nothing cancelled" 0 v.Hedge.cancelled

(* ---------- Routing_stale classification ---------- *)

(* An ephemeral port from a server that is fully drained: connecting
   is refused, so every attempt is a transport fault. *)
let dead_port () =
  let srv = Server.start { Server.default_config with Server.port = 0 } in
  let port = Server.port srv in
  Server.stop srv;
  Server.wait srv;
  port

let test_routing_stale_after_budget () =
  let policy = { Backoff.default with Backoff.max_attempts = 3; base_delay_ms = 1 } in
  let client = Client.create ~port:(dead_port ()) ~policy ~rng:(Rng.create 5) () in
  (match Client.call_line client {|{"method":"health"}|} with
  | Error (Client.Routing_stale _ as e) ->
      check_bool "not retryable" false (Client.retryable e)
  | Ok _ -> Alcotest.fail "dead port answered"
  | Error e ->
      Alcotest.failf "expected Routing_stale, got %s" (Client.error_to_string e));
  (* The single-attempt primitive keeps the plain Transport class. *)
  (match Client.round_trip client {|{"method":"health"}|} with
  | Error (Client.Transport _) -> ()
  | Ok _ -> Alcotest.fail "dead port answered"
  | Error e ->
      Alcotest.failf "expected Transport, got %s" (Client.error_to_string e));
  Client.close client

(* ---------- live router ---------- *)

let with_cluster ?(n = 2) ?(hedge_ms = 40) f =
  let servers =
    Array.init n (fun _ ->
        Server.start { Server.default_config with Server.port = 0; jobs = 2 })
  in
  let shards =
    Array.mapi
      (fun i s -> shard (Printf.sprintf "shard%d" i) (Server.port s))
      servers
  in
  let router =
    Router.start { Router.default_config with Router.port = 0; hedge_ms } shards
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Router.wait router;
      Array.iter
        (fun s ->
          Server.stop s;
          Server.wait s)
        servers)
    (fun () -> f ~router ~servers ~shards)

let partition_line i =
  Printf.sprintf
    {|{"id":%d,"method":"partition","params":{"instance":{"kind":"chain","alpha":[%d,2,7,3,5],"beta":[6,2,9,4]},"k":3}}|}
    i (1 + i)

let instance_key i =
  Protocol.instance_digest
    (Io.Chain_instance
       (Chain.make ~alpha:[| 1 + i; 2; 7; 3; 5 |] ~beta:[| 6; 2; 9; 4 |]))

let test_router_proxies_byte_identically () =
  with_cluster (fun ~router ~servers:_ ~shards:_ ->
      let via_router =
        Client.create ~port:(Router.port router) ~rng:(Rng.create 7) ()
      in
      let ring = Router.ring router in
      for i = 0 to 9 do
        let line = partition_line i in
        let owner = Ring.shard ring (Ring.shard_of ring (instance_key i)) in
        let direct = Client.create ~port:owner.Ring.port ~rng:(Rng.create 8) () in
        (match
           (Client.round_trip via_router line, Client.round_trip direct line)
         with
        | Ok through, Ok straight ->
            check_string
              (Printf.sprintf "request %d byte-identical through router" i)
              straight through
        | Error e, _ | _, Error e ->
            Alcotest.failf "request %d failed: %s" i (Client.error_to_string e));
        Client.close direct
      done;
      Client.close via_router)

let test_router_v1_v2_parity () =
  with_cluster (fun ~router ~servers:_ ~shards:_ ->
      let port = Router.port router in
      let v1 = Client.create ~port ~rng:(Rng.create 7) () in
      let v2 = Client.create ~port ~proto:Client.V2 ~rng:(Rng.create 7) () in
      let params i =
        Json.Obj
          [
            ( "instance",
              Json.Obj
                [
                  ("kind", Json.String "chain");
                  ( "alpha",
                    Json.List
                      (List.map (fun v -> Json.Int v) [ 1 + i; 2; 7; 3; 5 ]) );
                  ( "beta",
                    Json.List (List.map (fun v -> Json.Int v) [ 6; 2; 9; 4 ]) );
                ] );
            ("k", Json.Int 3);
          ]
      in
      for i = 0 to 4 do
        match
          ( Client.call v1 ~id:(Json.Int i) ~meth:"partition" ~params:(params i) (),
            Client.call v2 ~id:(Json.Int i) ~meth:"partition" ~params:(params i) () )
        with
        | Ok a, Ok b ->
            check_bool
              (Printf.sprintf "request %d same result on both framings" i)
              true
              (a.Client.result = b.Client.result)
        | Error e, _ | _, Error e ->
            Alcotest.failf "request %d failed: %s" i (Client.error_to_string e)
      done;
      Client.close v1;
      Client.close v2)

let test_router_pipelined_no_deadlock () =
  (* The router writes each reply on the connection thread that also
     reads the connection, like a shard answering a cache hit. *)
  with_cluster ~n:1 (fun ~router ~servers:_ ~shards:_ ->
      let port = Router.port router in
      Helpers.check_pipelined_sweeps ~port ~prime:(fun line ->
          let c = Client.create ~port ~rng:(Rng.create 7) () in
          let reply = Client.round_trip c ~deadline_ms:30_000 line in
          Client.close c;
          match reply with
          | Ok raw -> raw
          | Error e -> Alcotest.failf "priming: %s" (Client.error_to_string e)))

let field name = function
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let test_router_cluster_rpc () =
  with_cluster (fun ~router ~servers:_ ~shards:_ ->
      let client =
        Client.create ~port:(Router.port router) ~rng:(Rng.create 7) ()
      in
      (match Client.call client ~meth:"cluster" () with
      | Error e -> Alcotest.failf "cluster: %s" (Client.error_to_string e)
      | Ok r -> (
          check_bool "router role" true
            (field "role" r.Client.result = Some (Json.String "router"));
          match Ring.of_json r.Client.result with
          | Error msg -> Alcotest.failf "client cannot parse ring: %s" msg
          | Ok learned ->
              let ring = Router.ring router in
              List.iter
                (fun k ->
                  check_int ("learned ring agrees on " ^ k)
                    (Ring.shard_of ring k) (Ring.shard_of learned k))
                (keys 200)));
      Client.close client)

let test_solo_server_cluster_rpc () =
  let srv = Server.start { Server.default_config with Server.port = 0 } in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () ->
      let client =
        Client.create ~port:(Server.port srv) ~rng:(Rng.create 7) ()
      in
      (match Client.call client ~meth:"cluster" () with
      | Error e -> Alcotest.failf "cluster: %s" (Client.error_to_string e)
      | Ok r -> (
          check_bool "shard role" true
            (field "role" r.Client.result = Some (Json.String "shard"));
          check_bool "degenerate epoch" true
            (field "ring_epoch" r.Client.result = Some (Json.Int 0));
          (* Bootstrappable: the degenerate document still parses into
             a usable single-member ring. *)
          match Ring.of_json r.Client.result with
          | Ok ring -> check_int "one member" 1 (Ring.length ring)
          | Error msg -> Alcotest.failf "solo doc unparseable: %s" msg));
      Client.close client)

let test_router_failover_accounting () =
  with_cluster ~n:2 (fun ~router ~servers ~shards:_ ->
      (* Kill shard0 outright; every request it owned must transparently
         fail over to shard1 with zero client-visible errors. *)
      Server.stop servers.(0);
      Server.wait servers.(0);
      let client =
        Client.create ~port:(Router.port router) ~rng:(Rng.create 7) ()
      in
      let requests = 16 in
      for i = 0 to requests - 1 do
        match Client.call_line client (partition_line i) with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "request %d surfaced %s" i (Client.error_to_string e)
      done;
      (match Client.call client ~meth:"stats" () with
      | Error e -> Alcotest.failf "stats: %s" (Client.error_to_string e)
      | Ok r -> (
          match field "hedge" r.Client.result with
          | Some hedge ->
              let count name =
                match field name hedge with Some (Json.Int n) -> n | _ -> -1
              in
              check_bool "some requests failed over" true (count "failover" > 0);
              check_bool "winner accounting consistent" true
                (count "fired" >= count "primary_won" + count "secondary_won")
          | None -> Alcotest.fail "stats carries no hedge object"));
      Client.close client)

let test_router_unavailable_when_all_dead () =
  let p1 = dead_port () in
  let p2 = dead_port () in
  let router =
    Router.start
      { Router.default_config with Router.port = 0; shard_deadline_ms = 2_000 }
      [| shard "a" p1; shard "b" p2 |]
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Router.wait router)
    (fun () ->
      let client =
        Client.create ~port:(Router.port router) ~rng:(Rng.create 7) ()
      in
      (match Client.call_line client (partition_line 0) with
      | Error (Client.Rpc_error { code = "unavailable"; _ }) -> ()
      | Ok _ -> Alcotest.fail "dead cluster answered ok"
      | Error e ->
          Alcotest.failf "expected unavailable, got %s"
            (Client.error_to_string e));
      Client.close client)

let suite =
  [
    Alcotest.test_case "ring: deterministic, order/seed semantics" `Quick
      test_ring_deterministic;
    Alcotest.test_case "ring: balanced keyspace" `Quick test_ring_balance;
    Alcotest.test_case "ring: growth moves ~1/N keys, only to the new shard"
      `Quick test_ring_rebalance_bound;
    Alcotest.test_case "ring: replica is a distinct shard" `Quick
      test_ring_replica_distinct;
    Alcotest.test_case "ring: cluster document round-trips" `Quick
      test_ring_json_roundtrip;
    Alcotest.test_case "hedge: quiet primary never fires" `Quick
      test_hedge_primary_wins_quietly;
    Alcotest.test_case "hedge: slow primary loses to replica" `Quick
      test_hedge_fires_on_slow_primary;
    Alcotest.test_case "hedge: failed primary fails over" `Quick
      test_hedge_failover_on_primary_failure;
    Alcotest.test_case "hedge: double failure keeps primary error" `Quick
      test_hedge_double_failure_keeps_primary_error;
    Alcotest.test_case "hedge: no replica degenerates cleanly" `Quick
      test_hedge_no_secondary;
    Alcotest.test_case "hedge: no replica runs on the caller's thread"
      `Quick test_hedge_no_secondary_runs_inline;
    Alcotest.test_case "client: burned budget becomes Routing_stale" `Quick
      test_routing_stale_after_budget;
    Alcotest.test_case "router: proxied bytes identical to direct" `Quick
      test_router_proxies_byte_identically;
    Alcotest.test_case "router: v1/v2 parity" `Quick test_router_v1_v2_parity;
    Alcotest.test_case "router: pipelined requests never deadlock" `Quick
      test_router_pipelined_no_deadlock;
    Alcotest.test_case "router: cluster RPC teaches the ring" `Quick
      test_router_cluster_rpc;
    Alcotest.test_case "server: solo cluster doc bootstraps" `Quick
      test_solo_server_cluster_rpc;
    Alcotest.test_case "router: SIGKILLed shard fails over, counted" `Quick
      test_router_failover_accounting;
    Alcotest.test_case "router: all replicas dead is structured unavailable"
      `Quick test_router_unavailable_when_all_dead;
  ]
