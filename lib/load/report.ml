module Json = Tlp_util.Json_out
module Histogram = Tlp_util.Histogram

let schema = "tlp.load/v1"

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("mean_us", Json.Float (Histogram.mean h));
      ("min_us", Json.Int (Histogram.min_value h));
      ("max_us", Json.Int (Histogram.max_value h));
      ("p50_us", Json.Int (Histogram.quantile h 0.5));
      ("p90_us", Json.Int (Histogram.quantile h 0.9));
      ("p99_us", Json.Int (Histogram.quantile h 0.99));
    ]

let arrival_json = function
  | Workload.Closed -> Json.Obj [ ("mode", Json.String "closed") ]
  | Workload.Fixed_rate r ->
      Json.Obj [ ("mode", Json.String "fixed"); ("rate_rps", Json.Float r) ]
  | Workload.Poisson r ->
      Json.Obj [ ("mode", Json.String "poisson"); ("rate_rps", Json.Float r) ]

let config_json (c : Workload.config) =
  Json.Obj
    [
      ("seed", Json.Int c.seed);
      ("workers", Json.Int c.workers);
      ("requests", Json.Int c.requests);
      ("arrival", arrival_json c.arrival);
      ( "mix",
        Json.Obj
          [
            ("partition", Json.Int c.mix.partition);
            ("sweep", Json.Int c.mix.sweep);
            ("verify", Json.Int c.mix.verify);
          ] );
      ("corpus", Json.Int c.corpus);
      ("chain_n", Json.Int c.chain_n);
      ("max_weight", Json.Int c.max_weight);
      ( "timeout_ms",
        match c.timeout_ms with Some ms -> Json.Int ms | None -> Json.Null );
      ("trace_every", Json.Int c.trace_every);
      ("batch_every", Json.Int c.batch_every);
      ( "proto",
        Json.String
          (match c.proto with
          | Tlp_client.Client.V1 -> "v1"
          | Tlp_client.Client.V2 -> "v2") );
      ("drift", Json.Int c.drift);
    ]

let to_json (r : Runner.result) =
  let c = r.counts in
  Json.Obj
    ([
      ("schema", Json.String schema);
      ("config", config_json r.plan.Workload.config);
      ("digest", Json.String (Workload.sequence_digest r.plan));
      ("duration_s", Json.Float r.duration_s);
      ( "throughput_rps",
        Json.Float
          (if r.duration_s > 0.0 then
             float_of_int (Runner.total c) /. r.duration_s
           else 0.0) );
      ("connections", Json.Int r.connections);
      ("traced", Json.Int r.traced);
      ( "requests",
        Json.Obj
          [
            ("total", Json.Int (Runner.total c));
            ("ok", Json.Int c.ok);
            ("overloaded", Json.Int c.overloaded);
            ("timeout", Json.Int c.timeout);
            ("transport", Json.Int c.transport);
            ("routing_stale", Json.Int c.routing_stale);
            ("bad_response", Json.Int c.bad_response);
            ("rpc_error", Json.Int c.rpc_error);
          ] );
      ("latency_us", hist_json r.latency_us);
      ( "methods",
        Json.List
          (List.map
             (fun (m, h) ->
               Json.Obj [ ("method", Json.String m); ("latency_us", hist_json h) ])
             r.per_method) );
      ( "classes",
        Json.List
          (List.map
             (fun (p, h) ->
               Json.Obj
                 [ ("class", Json.String p); ("latency_us", hist_json h) ])
             r.per_class) );
    ]
    (* The shards section only exists for cluster runs, so solo
       reports keep their pre-cluster shape byte for byte. *)
    @ (match r.per_shard with
      | [] -> []
      | shards ->
          [
            ( "shards",
              Json.List
                (List.map
                   (fun (name, h) ->
                     Json.Obj
                       [
                         ("shard", Json.String name);
                         ( "throughput_rps",
                           Json.Float
                             (if r.duration_s > 0.0 then
                                float_of_int (Histogram.count h)
                                /. r.duration_s
                              else 0.0) );
                         ("latency_us", hist_json h);
                       ])
                   shards) );
          ])
    @ [
      ( "failures",
        Json.List
          (List.map
             (fun (seq, msg) ->
               Json.Obj [ ("seq", Json.Int seq); ("error", Json.String msg) ])
             r.failures) );
    ])

let render r = Json.to_string (to_json r) ^ "\n"

let write ~path r =
  let text = render r in
  (match Json.validate text with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Report.write: invalid rendering: " ^ msg));
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let summary (r : Runner.result) =
  let b = Buffer.create 512 in
  let c = r.counts in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "digest      %s" (Workload.sequence_digest r.plan);
  line
    "requests    %d ok=%d overloaded=%d timeout=%d transport=%d stale=%d \
     bad=%d rpc=%d"
    (Runner.total c) c.ok c.overloaded c.timeout c.transport c.routing_stale
    c.bad_response c.rpc_error;
  line "duration    %.3f s  (%.1f req/s)" r.duration_s
    (if r.duration_s > 0.0 then float_of_int (Runner.total c) /. r.duration_s
     else 0.0);
  line "connections %d  traced %d" r.connections r.traced;
  List.iter
    (fun (m, h) ->
      if Histogram.count h > 0 then
        line "%-11s n=%d p50=%dus p90=%dus p99=%dus max=%dus" m
          (Histogram.count h)
          (Histogram.quantile h 0.5)
          (Histogram.quantile h 0.9)
          (Histogram.quantile h 0.99)
          (Histogram.max_value h))
    (("all", r.latency_us) :: r.per_method);
  List.iter
    (fun (p, h) ->
      if Histogram.count h > 0 then
        line "%-11s n=%d p50=%dus p90=%dus p99=%dus max=%dus" p
          (Histogram.count h)
          (Histogram.quantile h 0.5)
          (Histogram.quantile h 0.9)
          (Histogram.quantile h 0.99)
          (Histogram.max_value h))
    r.per_class;
  List.iter
    (fun (name, h) ->
      if Histogram.count h > 0 then
        line "%-11s n=%d (%.1f req/s) p50=%dus p99=%dus" name
          (Histogram.count h)
          (if r.duration_s > 0.0 then
             float_of_int (Histogram.count h) /. r.duration_s
           else 0.0)
          (Histogram.quantile h 0.5)
          (Histogram.quantile h 0.99))
    r.per_shard;
  Buffer.contents b
