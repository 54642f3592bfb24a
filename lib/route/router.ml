module Json = Tlp_util.Json_out
module Timer = Tlp_util.Timer
module Rng = Tlp_util.Rng
module Protocol = Tlp_server.Protocol
module Sframe = Tlp_server.Frame
module Conn = Tlp_server.Conn
module Handler = Tlp_server.Handler
module Client = Tlp_client.Client
module Io = Tlp_graph.Instance_io

type config = {
  host : string;
  port : int;
  vnodes : int;
  ring_seed : int;
  ring_epoch : int;
  hedge_ms : int;
  shard_deadline_ms : int;
  pool_capacity : int;
  max_frame_bytes : int;
  seed : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7270;
    vnodes = 64;
    ring_seed = 42;
    ring_epoch = 1;
    hedge_ms = 50;
    shard_deadline_ms = 30_000;
    pool_capacity = 8;
    max_frame_bytes = 4 * 1024 * 1024;
    seed = 0;
  }

type hedge_counters = {
  mutable fired : int;
  mutable primary_won : int;
  mutable secondary_won : int;
  mutable failover : int;
  mutable cancelled : int;
}

type shard_counters = { mutable proxied : int; mutable errors : int }

type t = {
  config : config;
  ring : Ring.t;
  listener : Conn.listener;
  (* One (v1, v2) pool pair per ring member: pooled clients are
     protocol-bound, so the two framings never share a connection. *)
  pools : (Conn_pool.t * Conn_pool.t) array;
  started_at : float;
  stats_mutex : Mutex.t;  (** guards every counter below *)
  hedge : hedge_counters;
  per_shard : shard_counters array;
  mutable requests : int;
}

let port t = Conn.port t.listener
let ring t = t.ring

(* ---------- shard calls ---------- *)

(* One proxied call to one shard: check a pooled client out, round-trip
   the raw request bytes, check it back in.  Up to two attempts, the
   second only after a transport fault — that absorbs a stale pooled
   connection (the shard restarted since the client last used it)
   without retrying anything a live shard might have executed twice
   from scratch: the client re-dials, and only a connection that never
   delivered a response is retried. *)
let shard_call t ~proto ~deadline_ms ~shard payload =
  let pool_v1, pool_v2 = t.pools.(shard) in
  let pool = match proto with Client.V1 -> pool_v1 | Client.V2 -> pool_v2 in
  let client = Conn_pool.checkout pool in
  let send () =
    match proto with
    | Client.V1 -> Client.round_trip client ~deadline_ms payload
    | Client.V2 -> Client.round_trip_frame client ~deadline_ms payload
  in
  let outcome =
    match send () with
    | Error (Client.Transport _) -> send ()
    | first -> first
  in
  Conn_pool.checkin pool client;
  Mutex.protect t.stats_mutex (fun () ->
      let c = t.per_shard.(shard) in
      c.proxied <- c.proxied + 1;
      match outcome with Ok _ -> () | Error _ -> c.errors <- c.errors + 1);
  match outcome with
  | Ok raw -> (Hedge.Good, Ok raw)
  | Error e -> (Hedge.Bad, Error (shard, e))

(* Session state lives on exactly one shard, so every method naming a
   session must land where its [open] did: they all hash the session id.
   An [open] without a client-chosen name falls through to the raw-bytes
   key — the generated id is minted by whatever shard it lands on, and
   the client cannot follow up through the router (PROTOCOL.md §9
   requires named sessions in cluster mode). *)
let session_affinity (request : Protocol.request) =
  match request with
  | Protocol.Open { session = Some name; _ } -> Some name
  | Protocol.Update { session; _ } | Protocol.Resolve { session; _ } ->
      Some session
  | Protocol.Open { session = None; _ }
  | Protocol.Partition _ | Protocol.Sweep _ | Protocol.Verify _
  | Protocol.Sleep _ | Protocol.Stats | Protocol.Health | Protocol.Cluster ->
      None

(* The request's shard placement: instance-bearing methods route by
   the server's own digest of the instance (cache affinity — every
   replay of the instance lands on the shard whose LRU already holds
   it), session-bearing methods by the session id (state affinity),
   everything else by a digest of the raw request bytes. *)
let route_key ~raw (frame : Protocol.frame) =
  match session_affinity frame.Protocol.request with
  | Some sid -> Digest.to_hex (Digest.string ("session:" ^ sid))
  | None -> (
      match frame.Protocol.request with
      | Protocol.Partition { instance; _ } ->
          Protocol.instance_digest instance
      | Protocol.Sweep { chain; _ } ->
          Protocol.instance_digest (Io.Chain_instance chain)
      | _ -> Digest.to_hex (Digest.string raw))

(* Deadline-aware hedge delay: never spend more than half the
   request's own budget waiting before the second replica fires, or
   the hedge cannot finish inside the deadline either. *)
let hedge_delay_s t (frame : Protocol.frame) =
  let ms =
    match frame.Protocol.timeout_ms with
    | Some budget -> Stdlib.min t.config.hedge_ms (budget / 2)
    | None -> t.config.hedge_ms
  in
  float_of_int ms /. 1000.0

let record_verdict t (v : _ Hedge.verdict) =
  Mutex.protect t.stats_mutex (fun () ->
      let h = t.hedge in
      if v.Hedge.fired then begin
        h.fired <- h.fired + 1;
        match v.Hedge.winner with
        | `Primary -> h.primary_won <- h.primary_won + 1
        | `Secondary -> h.secondary_won <- h.secondary_won + 1
      end;
      if v.Hedge.failover then h.failover <- h.failover + 1;
      h.cancelled <- h.cancelled + v.Hedge.cancelled)

(* Proxy one routable frame and return the shard's raw response bytes,
   or the routing error when every replica failed. *)
let proxy t ~proto ~raw frame =
  let key = route_key ~raw frame in
  let deadline_ms =
    match frame.Protocol.timeout_ms with
    | Some ms when ms > 0 -> Stdlib.min ms t.config.shard_deadline_ms
    | _ -> t.config.shard_deadline_ms
  in
  let primary = Ring.shard_of t.ring key in
  let call shard () = shard_call t ~proto ~deadline_ms ~shard raw in
  (* Never hedge a session method: the replica does not hold the
     session, and its "unknown session" reply is a well-formed response
     the race would happily declare the winner. *)
  let secondary =
    if Option.is_some (session_affinity frame.Protocol.request) then None
    else Option.map (fun s -> call s) (Ring.replica_of t.ring key)
  in
  let verdict =
    Hedge.race ?secondary ~delay_s:(hedge_delay_s t frame) (call primary)
  in
  record_verdict t verdict;
  match verdict.Hedge.value with
  | Ok raw -> Ok raw
  | Error (shard, e) ->
      let name = (Ring.shard t.ring shard).Ring.name in
      Error
        (Protocol.unavailable
           (Printf.sprintf "shard %s: %s" name (Client.error_to_string e)))

(* ---------- inline control plane ---------- *)

let cluster_doc t =
  match Ring.to_json t.ring with
  | Json.Obj fields -> Json.Obj (("role", Json.String "router") :: fields)
  | other -> other

let health_doc t =
  Json.Obj
    [
      ("status", Json.String "ok");
      ("role", Json.String "router");
      ("uptime_s", Json.Float (Timer.now () -. t.started_at));
    ]

let stats_doc t =
  Mutex.protect t.stats_mutex (fun () ->
      Json.Obj
        [
          ("role", Json.String "router");
          ("ring_epoch", Json.Int (Ring.epoch t.ring));
          ("uptime_s", Json.Float (Timer.now () -. t.started_at));
          ("requests", Json.Int t.requests);
          ( "hedge",
            Json.Obj
              [
                ("delay_ms", Json.Int t.config.hedge_ms);
                ("fired", Json.Int t.hedge.fired);
                ("primary_won", Json.Int t.hedge.primary_won);
                ("secondary_won", Json.Int t.hedge.secondary_won);
                ("failover", Json.Int t.hedge.failover);
                ("cancelled", Json.Int t.hedge.cancelled);
              ] );
          ( "shards",
            Json.List
              (List.init (Ring.length t.ring) (fun i ->
                   let s = Ring.shard t.ring i in
                   let c = t.per_shard.(i) in
                   Json.Obj
                     [
                       ("name", Json.String s.Ring.name);
                       ("host", Json.String s.Ring.host);
                       ("port", Json.Int s.Ring.port);
                       ("proxied", Json.Int c.proxied);
                       ("errors", Json.Int c.errors);
                     ])) );
        ])

(* ---------- connections ---------- *)

let reply conn ~id body =
  ignore
    (Conn.respond ~drain:true conn { Conn.resp_id = id; body } : float * float)

let doc conn ~id d = reply conn ~id (Ok (Handler.Doc d, None))

(* One parsed frame, strictly sequential per connection (the hedge
   race blocks this connection's thread, never another's).  A proxied
   response goes back verbatim, so the client sees exactly what a
   direct connection would have produced. *)
let handle_parsed t conn ~proto ~raw parsed =
  Mutex.protect t.stats_mutex (fun () -> t.requests <- t.requests + 1);
  match parsed with
  | Error (id, err) -> reply conn ~id (Error err)
  | Ok (frame : Protocol.frame) -> (
      let id = frame.Protocol.id in
      match frame.Protocol.request with
      | Protocol.Stats -> doc conn ~id (stats_doc t)
      | Protocol.Health -> doc conn ~id (health_doc t)
      | Protocol.Cluster -> doc conn ~id (cluster_doc t)
      | Protocol.Partition _ | Protocol.Sweep _ | Protocol.Verify _
      | Protocol.Sleep _ | Protocol.Open _ | Protocol.Update _
      | Protocol.Resolve _ -> (
          match proxy t ~proto ~raw frame with
          | Ok raw -> Conn.relay conn raw
          | Error err -> reply conn ~id (Error err)))

(* The shard-bound copy of a v2 frame keeps its length prefix:
   [round_trip_frame] sends its payload verbatim. *)
let handler t conn =
  {
    Conn.on_v1_line =
      (fun line ->
        handle_parsed t conn ~proto:Client.V1 ~raw:line
          (Protocol.parse_frame line));
    on_v2_frame =
      (fun bytes ~pos ~len ->
        let raw = Bytes.sub_string bytes pos len in
        handle_parsed t conn ~proto:Client.V2 ~raw
          (Sframe.decode_request bytes ~pos:(pos + 4) ~len:(len - 4)));
    on_refused = ignore;
    on_close = ignore;
  }

(* ---------- lifecycle ---------- *)

let start config shards =
  let ring =
    Ring.create ~epoch:config.ring_epoch ~vnodes:config.vnodes
      ~seed:config.ring_seed shards
  in
  let listener = Conn.listen ~host:config.host ~port:config.port in
  let rng = Rng.create (config.seed lxor 0x726f7574) in
  let pools =
    Array.map
      (fun (s : Ring.shard) ->
        let mk proto =
          Conn_pool.create ~capacity:config.pool_capacity ~host:s.Ring.host
            ~port:s.Ring.port ~proto ~rng:(Rng.split rng) ()
        in
        (mk Client.V1, mk Client.V2))
      shards
  in
  let t =
    {
      config;
      ring;
      listener;
      pools;
      started_at = Timer.now ();
      stats_mutex = Mutex.create ();
      hedge =
        { fired = 0; primary_won = 0; secondary_won = 0; failover = 0;
          cancelled = 0 };
      per_shard =
        Array.map (fun _ -> { proxied = 0; errors = 0 }) shards;
      requests = 0;
    }
  in
  Conn.serve listener ~max_frame_bytes:config.max_frame_bytes
    ~finally:ignore (handler t);
  t

let stop t = Conn.stop t.listener

let wait t =
  Conn.wait t.listener ~closed:(fun () ->
      Array.iter
        (fun (a, b) ->
          Conn_pool.drain a;
          Conn_pool.drain b)
        t.pools)

let run config shards =
  let t = start config shards in
  Conn.stop_on_signals t.listener;
  t
