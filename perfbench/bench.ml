(* One benchmark run: plan, set-up, warm-up, timed window, correctness
   gate, workload-property asserts, metrics. *)

module Json = Tlp_util.Json_out
module Client = Tlp_client.Client

type config = {
  workload : Plan.workload;
  seed : int;
  seconds : int;
  bins : Servers.bins;
}

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * Json.t) list;  (** diagnostics, never gated *)
}

let metric name unit_ value = { name; value; unit_ }

(* Set-up is repeated and its median reported, so one slow process
   start does not decide the figure; the last set-up is the one
   measured. *)
let setup_repeats = 9
let warmup_s = 1.0

(* large_misses warms up until the servers' LRU is full, so every
   window request also evicts. *)
let warmup_ops = function
  | Plan.Large_misses ->
      Tlp_server.Server.default_config.Tlp_server.Server.cache_capacity + 16
  | Plan.Small_hits | Plan.Drift_rounds -> 0

let connections = function
  | Plan.Large_misses -> 2
  | Plan.Small_hits | Plan.Drift_rounds -> 1

(* Online CPUs of the host, whatever this process is pinned to: the
   connection cap is the machine's, not the run's affinity mask. *)
let cores () =
  match Proc.read_file "/proc/cpuinfo" with
  | Some s ->
      String.split_on_char '\n' s
      |> List.filter (fun l -> String.starts_with ~prefix:"processor" l)
      |> List.length |> max 1
  | None -> Domain.recommended_domain_count ()

let expect_ok what = function
  | Ok _ -> ()
  | Error e -> failwith (what ^ ": " ^ Client.error_to_string e)

(* Bring fresh servers (a routed cluster when [routed]) to the measured
   state: every hit key cached, every drift session open.  Returns the
   servers and the seconds from spawn to ready. *)
let bring_up ?(routed = false) cfg plan =
  let t0 = Clock.now () in
  let servers = Servers.start cfg.bins ~routed in
  let port = servers.Servers.entry.Proc.port in
  (match plan with
  | Plan.Hits { keys; _ } ->
      let c = Servers.client ~proto:Client.V2 port in
      Array.iter
        (fun (r : Plan.request) ->
          expect_ok "prime" (Client.round_trip_frame c r.frame))
        keys;
      Client.close c
  | Plan.Misses _ -> ()
  | Plan.Drift { sessions; _ } ->
      let c = Servers.client port in
      Array.iter
        (fun (s : Plan.session) ->
          expect_ok "open" (Client.call_line c s.open_line))
        sessions;
      Client.close c);
  (servers, Clock.now () -. t0)

(* [setup_repeats] fresh bring-ups; the last one's servers are kept.
   Returns them with every set-up time, in order. *)
let setup cfg plan =
  let rec go i times =
    let servers, dt = bring_up cfg plan in
    let times = dt :: times in
    if i + 1 >= setup_repeats then (servers, Array.of_list (List.rev times))
    else begin
      Servers.stop servers;
      go (i + 1) times
    end
  in
  go 0 []

(* Warm-up phases, never measured: at least one, and for large_misses
   until the LRU is full. *)
let warm_up workload ~conns ~next exec =
  while Atomic.get next = 0 || Atomic.get next < warmup_ops workload do
    ignore (Drive.phase ~conns ~seconds:warmup_s ~next exec)
  done

let proto_of = function
  | Plan.Drift _ -> Client.V1
  | Plan.Hits _ | Plan.Misses _ -> Client.V2

let clients_for plan (servers : Servers.t) conns =
  Array.init conns (fun _ ->
      Servers.client ~proto:(proto_of plan) servers.Servers.entry.Proc.port)

(* [exec conn op] for the plan, on per-connection clients.  Ops for
   which [traced] holds ask for [trace:true] (re-encoded on the spot;
   only the traced run uses it). *)
let executor ?(traced = fun _ -> false) plan (clients : Client.t array) =
  fun conn op ->
    let c = clients.(conn) in
    match (plan, Plan.request plan op) with
    | _, Some r ->
        let frame =
          if traced op then
            Plan.partition_frame ~trace:true ~id:r.id r.chain ~k:r.k ()
          else r.frame
        in
        Some (Result.to_option (Client.round_trip_frame c frame))
    | Plan.Drift { sessions; rounds }, None ->
        if op >= Array.length rounds then None
        else
          let line x =
            if traced op then
              Plan.round_line ~trace:true sessions ~r:op rounds.(op).deltas x
            else rounds.(op).lines.(x)
          in
          let rec go acc x =
            if x = 4 then Some (String.concat "\n" (List.rev acc))
            else
              match Client.round_trip c (line x) with
              | Ok raw -> go (raw :: acc) (x + 1)
              | Error _ -> None
          in
          Some (go [] 0)
    | (Plan.Hits _ | Plan.Misses _), None -> None

(* The correctness verdict of every sample of a phase. *)
let verify plan (phase : Drive.phase) =
  let samples = phase.Drive.samples in
  match plan with
  | Plan.Hits _ | Plan.Misses _ ->
      let check = Verify.request_checker plan in
      Array.map
        (fun (s : Drive.sample) ->
          match (s.response, Plan.request plan s.op) with
          | Some raw, Some r -> check r raw
          | _ -> false)
        samples
  | Plan.Drift { sessions; rounds } ->
      let by_op = Hashtbl.create 1024 in
      Array.iter
        (fun (s : Drive.sample) -> Hashtbl.replace by_op s.op s.response)
        samples;
      let first = if Array.length samples = 0 then 0 else samples.(0).op in
      let last =
        Array.fold_left (fun m (s : Drive.sample) -> max m s.op) (-1) samples
      in
      let verdicts =
        Verify.check_drift sessions rounds ~last ~check:(fun r ->
            if r < first then None
            else
              match Hashtbl.find_opt by_op r with
              | Some (Some joined) -> Some joined
              | Some None | None -> Some "")
      in
      Array.map
        (fun (s : Drive.sample) -> s.response <> None && verdicts.(s.op))
        samples

(* The servers' [stats] documents, taken on each side of a phase. *)
let snapshot (servers : Servers.t) =
  Array.map (fun p -> Servers.stats p.Proc.port) servers.Servers.shards

(* The change of a counter summed over the shards; [per_session] sums
   it over each shard's session list instead. *)
let delta ?(per_session = false) before after path =
  let sum s =
    Array.fold_left
      (fun acc j ->
        if per_session then
          List.fold_left
            (fun acc e -> acc + Servers.int_at e path)
            acc
            (Servers.list_at j [ "sessions"; "list" ])
        else acc + Servers.int_at j path)
      0 s
  in
  sum after - sum before

(* Assert the property each workload exists for, from the servers' own
   counters; returns the failures and the figures behind them. *)
let properties workload ~ops before after =
  let hits = delta before after [ "cache"; "hits" ] in
  let misses = delta before after [ "cache"; "misses" ] in
  let evictions = delta before after [ "cache"; "evictions" ] in
  let hit_ratio =
    if hits + misses = 0 then nan else float hits /. float (hits + misses)
  in
  let figures =
    [
      ("cache_hit_ratio", Json.Float hit_ratio);
      ("cache_evictions", Json.Int evictions);
    ]
  in
  let unless ok msg = if ok then [] else [ msg ] in
  match workload with
  | Plan.Small_hits ->
      ( unless (hits = ops && misses = 0) "small_hits: hit ratio is not 1.0",
        figures )
  | Plan.Large_misses ->
      ( unless (misses = ops && hits = 0) "large_misses: hit ratio is not 0.0"
        @ unless (evictions > 0) "large_misses: no evictions",
        figures )
  | Plan.Drift_rounds ->
      let sessions field = delta ~per_session:true before after [ field ] in
      let resolves = sessions "resolves" in
      let inc = sessions "resolves_incremental" in
      let full = sessions "resolves_full" in
      let share =
        if inc + full = 0 then nan else float inc /. float (inc + full)
      in
      ( unless
          (resolves = 2 * ops && inc + full = resolves && hits = 0)
          "drift_rounds: incremental.share not reported for every resolve",
        figures @ [ ("incremental_share", Json.Float share) ] )

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

let run cfg =
  let plan = Plan.make cfg.workload ~seed:cfg.seed ~seconds:cfg.seconds in
  let conns = min (connections cfg.workload) (cores ()) in
  let servers, setups = setup cfg plan in
  Fun.protect
    ~finally:(fun () -> Servers.stop servers)
    (fun () ->
      let clients = clients_for plan servers conns in
      let exec = executor plan clients in
      let next = Atomic.make 0 in
      warm_up cfg.workload ~conns ~next exec;
      let before = snapshot servers in
      let steal0, total0 = Proc.steal_total () in
      let self0 = Proc.self_cpu_s () in
      let ticks = Array.make (cfg.seconds + 1) 0 in
      let window =
        Drive.phase ~conns ~seconds:(float cfg.seconds) ~next exec
          ~tick:(fun j -> ticks.(j) <- Servers.cpu_ticks servers)
      in
      let self1 = Proc.self_cpu_s () in
      let steal1, total1 = Proc.steal_total () in
      let after = snapshot servers in
      let hwm_kb = Servers.hwm_kb servers in
      Array.iter Client.close clients;
      (* the servers are idle from here; the gate needs the CPU *)
      Servers.stop servers;
      let ok = verify plan window in
      let attempted = Array.length window.Drive.samples in
      let n_ok = Array.fold_left (fun a b -> if b then a + 1 else a) 0 ok in
      let failures, figures =
        properties cfg.workload ~ops:attempted before after
      in
      let slices = Drive.slices window ~seconds:cfg.seconds ~ok ~ticks in
      let over_slices f =
        Array.to_list slices
        |> List.filter_map (fun (s : Drive.slice) ->
               if s.ok_ops = 0 then None else Some (f s))
        |> Array.of_list |> Drive.median
      in
      let latency_ms q =
        over_slices (fun s -> 1e3 *. Drive.quantile s.latencies q)
      in
      let metrics =
        [
          metric "throughput_rps" "1/s" (over_slices (fun s -> s.rate));
          metric "p50_ms" "ms" (latency_ms 0.5);
          metric "p90_ms" "ms" (latency_ms 0.9);
          metric "server_cpu_us_per_op" "us"
            (over_slices (fun s ->
                 float s.cpu_ticks *. Proc.tick_us /. float s.ok_ops));
          metric "ok_ratio" "ratio" (float n_ok /. float (max 1 attempted));
          metric "rss_mb" "MB" (float hwm_kb /. 1024.0);
          metric "setup_s" "s" (Drive.median setups);
        ]
      in
      let all_ms =
        Array.of_list
          (List.filter_map
             (fun (s : Drive.sample) ->
               Option.map (fun _ -> 1e3 *. s.latency_s) s.response)
             (Array.to_list window.Drive.samples))
      in
      Array.sort compare all_ms;
      let notes =
        [
          ("workload", Json.String (Plan.name cfg.workload));
          ("seed", Json.Int cfg.seed);
          ("plan_digest", Json.String (Plan.digest plan));
          ("connections", Json.Int conns);
          ("cores", Json.Int (cores ()));
          ("cpus_allowed", Json.Int (Domain.recommended_domain_count ()));
          ( "steal_share",
            Json.Float
              (float (steal1 - steal0) /. float (max 1 (total1 - total0))) );
          ("loadgen_cpu_s", Json.Float (self1 -. self0));
          ("window_s", Json.Float window.Drive.wall_s);
          ("window_ops", Json.Int attempted);
          ("setup_s_each", floats (Array.to_list setups));
          ( "latency_ms_p10_p25_p50_p75_p90_p99_max",
            floats
              (List.map (Drive.quantile all_ms)
                 [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]) );
          ( "slice_rates",
            floats
              (Array.to_list
                 (Array.map (fun (s : Drive.slice) -> s.rate) slices)) );
          ( "property_failures",
            Json.List (List.map (fun s -> Json.String s) failures) );
        ]
        @ figures
      in
      {
        correct = n_ok = attempted && attempted > 0 && failures = [];
        attempted;
        failed = attempted - n_ok;
        metrics;
        notes;
      })

let to_json o =
  let value m =
    Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
  in
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", Json.Obj (List.map (fun m -> (m.name, value m)) o.metrics));
    ]
