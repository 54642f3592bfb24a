module Json = Tlp_util.Json_out
module Metrics = Tlp_util.Metrics
module Timer = Tlp_util.Timer
module Chain = Tlp_graph.Chain
module Io = Tlp_graph.Instance_io
module Ksweep = Tlp_engine.Ksweep
module Partition = Tlp_engine.Partition

let infeasible e =
  Json.Obj [ ("infeasible", Json.String (Tlp_core.Infeasible.to_string e)) ]

(* ---------- partition ---------- *)

let partition_result ?metrics ?workspace instance ~k ~algorithm =
  match Partition.solve ?metrics ?workspace instance ~k ~objective:algorithm with
  | Partition.Solved { doc; _ } -> Ok doc
  | Partition.Infeasible e -> Ok (infeasible e)
  | Partition.Unsupported msg -> Error (Protocol.bad_request msg)

(* ---------- sweep ---------- *)

let sweep_result ?(metrics = Metrics.null) chain ~ks ~algorithm =
  let results = Ksweep.sweep ~metrics (Ksweep.create chain) ~algorithm ks in
  Json.Obj
    [
      ("algorithm", Json.String (Ksweep.algorithm_name algorithm));
      ("n", Json.Int (Chain.n chain));
      ("entries", Ksweep.entries_json ks results);
    ]

(* ---------- verify ---------- *)

let verify_result ~rounds ~seed =
  let checked, failures =
    Tlp_baselines.Exhaustive.fuzz (Tlp_util.Rng.create seed) ~rounds
  in
  Json.Obj
    [
      ("checked", Json.Int checked);
      ("failures", Json.List (List.map (fun m -> Json.String m) failures));
    ]

(* ---------- dispatch ---------- *)

type payload = Rendered of Cache.entry | Doc of Json.t

(* The cache key's solver-identity field, a function of instance shape
   and requested objective — shared, through [partition_key], by
   [partition] and [resolve] so a session result and a one-shot result
   of the same instance never collide under different solvers. *)
let algorithm_field ~chain (algorithm : Protocol.partition_algorithm) =
  match algorithm with
  | Protocol.Bandwidth -> if chain then "hitting" else "star_knapsack"
  | Protocol.Bottleneck -> if chain then "chain_bottleneck" else "alg21"
  | Protocol.Procmin -> if chain then "tree_pipeline" else "alg22"
  | Protocol.Pipeline -> "tree_pipeline"

let partition_key ~digest ~chain ~k algorithm =
  {
    Cache.digest;
    k = string_of_int k;
    objective = Protocol.partition_algorithm_string algorithm;
    algorithm = algorithm_field ~chain algorithm;
  }

(* The cache key of a one-shot cacheable request — the one place that
   shapes [partition] and [sweep] keys.  The server computes it on the
   connection thread, looks it up there, and hands a miss's key to
   [handle] with the job, so the digest is taken once per request. *)
let cache_key ?scratch (request : Protocol.request) =
  match request with
  | Protocol.Partition { instance; k; algorithm } ->
      Some
        (partition_key ~digest:(Protocol.instance_digest ?scratch instance) ~k
           ~chain:
             (match instance with
             | Io.Chain_instance _ -> true
             | Io.Tree_instance _ -> false)
           algorithm)
  | Protocol.Sweep { chain; ks; algorithm } ->
      Some
        {
          Cache.digest =
            Protocol.instance_digest ?scratch (Io.Chain_instance chain);
          k =
            String.concat ","
              (List.map string_of_int (List.sort_uniq compare ks));
          objective = "bandwidth";
          algorithm =
            (match algorithm with
            | Ksweep.Deque -> "sweep:deque"
            | Ksweep.Hitting -> "sweep:hitting");
        }
  | Protocol.Verify _ | Protocol.Stats | Protocol.Health | Protocol.Cluster
  | Protocol.Sleep _ | Protocol.Open _ | Protocol.Update _
  | Protocol.Resolve _ ->
      None

let lookup state key =
  State.with_lock state (fun () ->
      Cache.find ~metrics:(State.metrics state) (State.cache state) key)

(* A miss renders the result for *both* protocols once — the JSON text
   spliced into v1 envelopes and the Binval bytes spliced into v2
   frames — so a hit replays either without re-serialization, and an
   entry filled over one protocol serves the other. *)
let fill state key compute =
  Result.map
    (fun doc ->
      let entry =
        { Cache.v1 = Json.to_string doc; v2 = Tlp_util.Binval.to_string doc }
      in
      Option.iter
        (fun key ->
          State.with_lock state (fun () ->
              Cache.add ~metrics:(State.metrics state) (State.cache state) key
                entry))
        key;
      Rendered entry)
    (compute ())

let cached state key compute =
  match lookup state key with
  | Some entry -> Ok (Rendered entry)
  | None -> fill state (Some key) compute

(* The degenerate ring a lone shard reports from [cluster]: epoch 0,
   one member, no virtual nodes — enough for a cluster-aware client to
   bootstrap (it learns "this address is the whole ring") while a
   router overrides the whole document with its real ring. *)
let solo_cluster_doc ~host ~port () =
  Json.Obj
    [
      ("role", Json.String "shard");
      ("ring_epoch", Json.Int 0);
      ("seed", Json.Int 0);
      ("vnodes", Json.Int 0);
      ( "shards",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "self");
                ("host", Json.String host);
                ("port", Json.Int port);
              ];
          ] );
    ]

let handle ~state ~queue_depth ~cluster ~debug ~metrics ~key request =
  match (request : Protocol.request) with
  | Protocol.Partition { instance; k; algorithm } ->
      fill state key (fun () ->
          match instance with
          | Io.Chain_instance chain when algorithm = Protocol.Bandwidth ->
              (* The only solver with a reusable workspace today; check
                 one out of the pool instead of rebuilding O(n) scratch
                 per request. *)
              Workspaces.with_workspace (State.workspaces state)
                ~n:(Chain.n chain) (fun workspace ->
                  partition_result ~metrics ~workspace instance ~k ~algorithm)
          | _ -> partition_result ~metrics instance ~k ~algorithm)
  | Protocol.Sweep { chain; ks; algorithm } ->
      fill state key (fun () -> Ok (sweep_result ~metrics chain ~ks ~algorithm))
  | Protocol.Verify { rounds; seed } -> Ok (Doc (verify_result ~rounds ~seed))
  | Protocol.Stats ->
      (* The sessions section is rendered first, outside the state lock:
         [stats_json] takes the store and per-session locks, which the
         resolve path acquires before the state lock. *)
      let sessions =
        Tlp_session.Session.stats_json (State.sessions state)
          ~now:(Timer.now ())
      in
      let doc =
        State.snapshot state ~queue_depth:(queue_depth ())
          ~uptime_s:(Timer.now () -. State.started_at state)
          ~sessions
      in
      Ok (Doc doc)
  | Protocol.Health ->
      Ok
        (Doc
           (Json.Obj
              [
                ("status", Json.String "ok");
                ( "uptime_s",
                  Json.Float (Timer.now () -. State.started_at state) );
              ]))
  | Protocol.Cluster -> Ok (Doc (cluster ()))
  | Protocol.Sleep { ms } ->
      if not debug then
        Error
          (Protocol.bad_request
             "unknown method \"sleep\" (debug methods are disabled)")
      else begin
        Thread.delay (float_of_int ms /. 1000.0);
        Ok (Doc (Json.Obj [ ("slept_ms", Json.Int ms) ]))
      end
  | Protocol.Open { instance; session } -> (
      match
        Tlp_session.Session.open_session (State.sessions state) ?name:session
          ~instance ~now:(Timer.now ()) ()
      with
      | Error msg -> Error (Protocol.bad_request msg)
      | Ok s ->
          Ok
            (Doc
               (Json.Obj
                  [
                    ("session", Json.String (Tlp_session.Session.id s));
                    ("kind", Json.String (Tlp_session.Session.kind s));
                    ("n", Json.Int (Tlp_session.Session.size s));
                    ("version", Json.Int (Tlp_session.Session.version s));
                  ])))
  | Protocol.Update { session = sid; deltas } -> (
      match
        Tlp_session.Session.find (State.sessions state) ~id:sid
          ~now:(Timer.now ())
      with
      | None ->
          Error (Protocol.bad_request (Printf.sprintf "unknown session %S" sid))
      | Some s -> (
          match Tlp_session.Session.update s deltas with
          | Error msg -> Error (Protocol.bad_request msg)
          | Ok version ->
              Ok
                (Doc
                   (Json.Obj
                      [
                        ("session", Json.String sid);
                        ("version", Json.Int version);
                        ("applied", Json.Int (List.length deltas));
                      ]))))
  | Protocol.Resolve { session = sid; k; algorithm } -> (
      match
        Tlp_session.Session.find (State.sessions state) ~id:sid
          ~now:(Timer.now ())
      with
      | None ->
          Error (Protocol.bad_request (Printf.sprintf "unknown session %S" sid))
      | Some s ->
          (* The whole resolve runs under the session lock: the version
             read for the cache key and the solve over the session's
             weights must see the same state, or a concurrent update
             could file a pre-update answer under a post-update key.
             Lock order is session -> state ([cached] takes the state
             lock inside), the reverse never happens. *)
          Tlp_session.Session.with_session s (fun () ->
              let chain =
                match Tlp_session.Session.view s with
                | Tlp_session.Session.Chain_view _ -> true
                | Tlp_session.Session.Tree_view _ -> false
              in
              let key =
                partition_key ~digest:(Tlp_session.Session.digest s) ~chain
                  ~k algorithm
              in
              (* [mode] survives the [cached] call: still [None] on a
                 cache hit, so the per-session tallies distinguish
                 replayed answers from actual solves. *)
              let mode = ref None in
              let outcome =
                cached state key (fun () ->
                    match (Tlp_session.Session.view s, algorithm) with
                    | ( Tlp_session.Session.Chain_view incr,
                        Protocol.Bandwidth ) -> (
                        Workspaces.with_workspace (State.workspaces state)
                          ~n:(Tlp_core.Incremental.n incr) (fun workspace ->
                            match
                              Tlp_core.Incremental.resolve ~metrics ~workspace
                                incr ~k
                            with
                            | Ok (sol, m) ->
                                mode := Some m;
                                Ok
                                  (Partition.bandwidth_chain_doc ~k
                                     ~component_weights:
                                       (Tlp_core.Incremental.component_weights
                                          incr
                                          sol.Tlp_core.Bandwidth_hitting.cut)
                                     sol)
                            | Error e -> Ok (infeasible e)))
                    | _ ->
                        (* Every other (kind, objective) pair recomputes
                           from the materialized instance — the same
                           code path (and bytes) as [partition]. *)
                        let r =
                          partition_result ~metrics
                            (Tlp_session.Session.materialize s)
                            ~k ~algorithm
                        in
                        (match r with
                        | Ok _ -> mode := Some Tlp_core.Incremental.Full
                        | Error _ -> ());
                        r)
              in
              (match outcome with
              | Ok _ -> Tlp_session.Session.note_resolve s !mode
              | Error _ -> ());
              outcome))
