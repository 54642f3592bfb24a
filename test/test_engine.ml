(* The batch engine: domain pool scheduling, the determinism contract
   (parallel solve_batch byte-identical to the sequential fold), metrics
   merging across per-request sinks, and the incremental K-sweep against
   the one-shot solvers and the Prime_subpaths reference. *)

open Helpers
module Metrics = Tlp_util.Metrics
module Chain_gen = Tlp_graph.Chain_gen
module Prime_subpaths = Tlp_core.Prime_subpaths
module Hitting = Tlp_core.Bandwidth_hitting
module Pool = Tlp_engine.Pool
module Batch = Tlp_engine.Batch
module Ksweep = Tlp_engine.Ksweep

(* ---------- pool ---------- *)

let test_parallel_map_order () =
  let items = Array.init 100 (fun i -> i) in
  let results =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.parallel_map pool (fun i -> (i * i) + 1) items)
  in
  Alcotest.(check (array int))
    "input order preserved"
    (Array.map (fun i -> (i * i) + 1) items)
    results

let test_parallel_map_empty () =
  let results =
    Pool.with_pool ~jobs:2 (fun pool -> Pool.parallel_map pool (fun i -> i) [||])
  in
  check_int "empty input" 0 (Array.length results)

let test_parallel_map_exception () =
  Pool.with_pool ~jobs:3 (fun pool ->
      match
        Pool.parallel_map pool
          (fun i -> if i = 17 then failwith "task 17" else i)
          (Array.init 40 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected the task failure to propagate"
      | exception Failure msg -> check_bool "message" true (msg = "task 17"));
  (* The pool survives a failed map and accepts more work. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let r = Pool.parallel_map pool (fun i -> i + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool still works" [| 2; 3; 4 |] r)

let test_pool_reuse_across_maps () =
  Pool.with_pool ~jobs:2 (fun pool ->
      for round = 1 to 5 do
        let r = Pool.parallel_map pool (fun i -> i * round) [| 1; 2; 3; 4 |] in
        Alcotest.(check (array int))
          "round result"
          [| round; 2 * round; 3 * round; 4 * round |]
          r
      done)

(* ---------- batch determinism ---------- *)

let random_requests rng count =
  List.init count (fun _ ->
      let n = 1 + Rng.int rng 40 in
      let alpha = Array.init n (fun _ -> 1 + Rng.int rng 20) in
      let beta =
        Array.init (Stdlib.max 0 (n - 1)) (fun _ -> 1 + Rng.int rng 30)
      in
      let chain = Tlp_graph.Chain.make ~alpha ~beta in
      (* Bias K low so some requests are infeasible. *)
      let k = 1 + Rng.int rng (2 * Tlp_graph.Chain.max_alpha chain) in
      let algorithm =
        match Rng.int rng 5 with
        | 0 -> Batch.Naive
        | 1 -> Batch.Heap
        | 2 -> Batch.Deque
        | 3 -> Batch.Hitting
        | _ -> Batch.Hitting_galloping
      in
      { Batch.chain; k; algorithm })

let test_batch_parallel_equals_sequential () =
  let requests = random_requests (Rng.create 42) 48 in
  let sequential = Batch.solve_batch ~seed:9 requests in
  let parallel = Batch.solve_batch ~jobs:4 ~seed:9 requests in
  check_int "same length" (List.length sequential) (List.length parallel);
  List.iteri
    (fun i (a, b) ->
      check_bool (Printf.sprintf "request %d identical" i) true (a = b))
    (List.combine sequential parallel);
  (* Byte-identical, not merely structurally equal. *)
  check_bool "marshalled representations identical" true
    (Marshal.to_string sequential [] = Marshal.to_string parallel [])

let test_batch_all_weights_optimal () =
  (* Every algorithm choice must return the same optimal weight, so a
     batch re-solved with a different algorithm map is weight-identical. *)
  let requests = random_requests (Rng.create 77) 30 in
  let as_algo a = List.map (fun r -> { r with Batch.algorithm = a }) requests in
  let weights rs =
    List.map
      (function Ok s -> Some s.Batch.weight | Error _ -> None)
      (Batch.solve_batch ~jobs:2 rs)
  in
  let reference = weights (as_algo Batch.Deque) in
  List.iter
    (fun a ->
      check_bool "weights agree across algorithms" true
        (weights (as_algo a) = reference))
    [ Batch.Naive; Batch.Heap; Batch.Hitting; Batch.Hitting_galloping ]

let test_batch_custom_rng_deterministic () =
  (* Custom algorithms see per-request RNG streams split from the batch
     seed; scheduling must not leak into what they draw. *)
  let chain = Chain_gen.figure2 (Rng.create 1) ~n:50 ~max_weight:20 in
  let custom =
    Batch.Custom
      (fun ~rng ~metrics:_ _chain ~k:_ ->
        Ok { Batch.cut = [ Rng.int rng 1000 ]; weight = Rng.int rng 1000 })
  in
  let requests =
    List.init 20 (fun _ -> { Batch.chain; k = 100; algorithm = custom })
  in
  let a = Batch.solve_batch ~seed:3 requests in
  let b = Batch.solve_batch ~jobs:4 ~seed:3 requests in
  check_bool "custom draws independent of scheduling" true (a = b)

let test_batch_metrics_merge_matches_sequential () =
  let requests = random_requests (Rng.create 11) 32 in
  let seq_metrics = Metrics.create () in
  let par_metrics = Metrics.create () in
  let seq = Batch.solve_batch ~metrics:seq_metrics requests in
  let par = Batch.solve_batch ~jobs:4 ~metrics:par_metrics requests in
  check_bool "outcomes agree" true (seq = par);
  Alcotest.(check (list (pair string int)))
    "merged counters equal sequential counters"
    (Metrics.counters seq_metrics)
    (Metrics.counters par_metrics)

(* ---------- metrics merge unit behavior (see also test_metrics.ml) ---------- *)

let test_merge_counters_and_spans () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a "x" 2;
  Metrics.add b "x" 3;
  Metrics.add b "y" 7;
  ignore (Metrics.with_span b "solve" (fun () -> ()));
  Metrics.merge a b;
  check_int "counters add" 5 (Metrics.get a "x");
  check_int "new counters appear" 7 (Metrics.get a "y");
  (match Metrics.span a "solve" with
  | Some s -> check_int "span count carried" 1 s.Metrics.count
  | None -> Alcotest.fail "span not merged");
  (* src unchanged; null endpoints are no-ops. *)
  check_int "src untouched" 3 (Metrics.get b "x");
  Metrics.merge Metrics.null a;
  Metrics.merge a Metrics.null;
  check_int "null merge is a no-op" 5 (Metrics.get a "x")

(* ---------- K-sweep ---------- *)

let test_ksweep_matches_one_shot =
  qcheck ~count:200 "K-sweep entries match one-shot solves" small_chain_gen
    (fun (chain, k) ->
      let ks = [ k; k + 1; 2 * k; Stdlib.max 1 (k - 1) ] in
      let t = Ksweep.create chain in
      let swept = Ksweep.sweep t ~algorithm:Ksweep.Hitting ks in
      let sorted = List.sort_uniq compare ks in
      List.length swept = List.length sorted
      && List.for_all2
           (fun k entry ->
             match (entry, Hitting.solve chain ~k) with
             | Ok e, Ok { Hitting.cut; weight; _ } ->
                 e.Ksweep.k = k && e.Ksweep.weight = weight
                 && e.Ksweep.cut = cut
             | Error _, Error _ -> true
             | _ -> false)
           sorted swept)

let test_ksweep_decomposition_matches_reference =
  qcheck ~count:200 "two-pointer primes match Prime_subpaths" small_chain_gen
    (fun (chain, k) ->
      let t = Ksweep.create chain in
      (* Exercise workspace reuse: decompose at a couple of other K
         values first, then compare at k. *)
      ignore (Ksweep.decomposition t ~k:(k + 3));
      ignore (Ksweep.decomposition t ~k:(2 * k));
      match (Ksweep.decomposition t ~k, Prime_subpaths.compute chain ~k) with
      | Ok ranges, Ok primes ->
          let reference =
            Array.map
              (fun pr -> (pr.Prime_subpaths.a, pr.Prime_subpaths.b))
              primes.Prime_subpaths.primes
          in
          ranges = reference
      | Error _, Error _ -> true
      | _ -> false)

let test_ksweep_parallel_equals_sequential () =
  let chain = Chain_gen.figure2 (Rng.create 13) ~n:800 ~max_weight:50 in
  let ks = List.init 24 (fun i -> 60 + (i * 35)) in
  List.iter
    (fun algorithm ->
      let seq = Ksweep.sweep (Ksweep.create chain) ~algorithm ks in
      let par = Ksweep.sweep_parallel ~jobs:4 chain ~algorithm ks in
      check_bool "parallel sweep equals sequential" true (seq = par))
    [ Ksweep.Deque; Ksweep.Hitting ]

let test_ksweep_deque_agrees_with_hitting () =
  let chain = Chain_gen.figure2 (Rng.create 21) ~n:600 ~max_weight:40 in
  let t = Ksweep.create chain in
  let ks = List.init 16 (fun i -> 50 + (i * 45)) in
  let weights algorithm =
    List.map
      (function Ok e -> Some e.Ksweep.weight | Error _ -> None)
      (Ksweep.sweep t ~algorithm ks)
  in
  check_bool "deque and hitting sweeps agree" true
    (weights Ksweep.Deque = weights Ksweep.Hitting)

(* The built [tlp_cli] sits next to this test's own directory in the
   build tree. *)
let cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/tlp_cli.exe")

(* [tlp_cli sweep]'s text table names the K of every row, an
   infeasible one included, in the sweep's sorted, deduplicated order. *)
let test_cli_sweep_text_names_infeasible_k () =
  let instance = Filename.temp_file "tlp_sweep" ".txt" in
  Out_channel.with_open_text instance (fun oc ->
      output_string oc "chain\n12 7 9 14 6\n40 3 25 8\n");
  let ic =
    Unix.open_process_args_in cli
      [| cli; "sweep"; "-i"; instance; "--k-values"; "48,5,21"; "-a"; "deque" |]
  in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  Sys.remove instance;
  check_bool "sweep exits 0" true (status = Unix.WEXITED 0);
  let rows =
    List.filter_map
      (fun line ->
        match String.split_on_char '|' line with
        | "" :: cells -> (
            match List.map String.trim cells with
            | "K" :: _ -> None
            | k :: cells -> Some (k, cells)
            | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' output)
  in
  Alcotest.(check (list string))
    "K column" [ "5"; "21"; "48" ] (List.map fst rows);
  let infeasible (_, cells) =
    List.mem "infeasible: vertex 0 has weight 12 > bound K=5" cells
  in
  check_bool "K=5 is the infeasible row" true
    (List.map infeasible rows = [ true; false; false ])

(* [tlp_cli partition] runs the server's dispatch: over every
   (instance kind, objective) pair its JSON output, [metrics] dropped,
   is [Handler.partition_result]'s document, and the two non-answers
   exit 1 with the server's message. *)
let test_cli_partition_is_server_document () =
  let module Handler = Tlp_server.Handler in
  let module Protocol = Tlp_server.Protocol in
  let module Io = Tlp_graph.Instance_io in
  let module Json = Tlp_util.Json_out in
  let chain = Io.Chain_instance (Chain.of_lists [ 12; 7; 9; 14; 6 ] [ 40; 3; 25; 8 ])
  and tree =
    Io.Tree_instance
      (Tlp_graph.Tree.of_parents ~weights:[| 9; 5; 7; 4 |]
         ~parents:[| (0, 12); (0, 3); (1, 8) |])
  and star =
    Io.Tree_instance
      (Tlp_graph.Tree.of_parents ~weights:[| 6; 4; 5; 3 |]
         ~parents:[| (0, 7); (0, 2); (0, 9) |])
  in
  let run instance ~k ~algorithm =
    let path = Filename.temp_file "tlp_partition" ".txt" in
    Io.save path instance;
    let out, inp, err =
      Unix.open_process_args_full cli
        [|
          cli; "partition"; "-i"; path; "-k"; string_of_int k; "-a";
          Protocol.partition_algorithm_string algorithm; "--metrics"; "json";
        |]
        (Unix.environment ())
    in
    let stdout = In_channel.input_all out and stderr = In_channel.input_all err in
    let status = Unix.close_process_full (out, inp, err) in
    Sys.remove path;
    (status, stdout, stderr)
  in
  let all = Tlp_engine.Partition.objectives in
  List.iter
    (fun (instance, k, objectives) ->
      List.iter
        (fun (name, algorithm) ->
          let status, stdout, _ = run instance ~k ~algorithm in
          check_bool (name ^ " exits 0") true (status = Unix.WEXITED 0);
          let printed =
            match Json.parse stdout with
            | Ok (Json.Obj fields) ->
                Json.to_string (Json.Obj (List.remove_assoc "metrics" fields))
            | _ -> Alcotest.fail (name ^ ": output is not a JSON object")
          in
          match Handler.partition_result instance ~k ~algorithm with
          | Ok doc ->
              Alcotest.(check string) name (Json.to_string doc) printed
          | Error _ -> Alcotest.fail (name ^ ": the server refuses it"))
        objectives)
    [
      (chain, 21, all);
      (tree, 12, List.remove_assoc "bandwidth" all);
      (star, 12, [ ("bandwidth", Protocol.Bandwidth) ]);
    ];
  let fails_like_server what instance ~k ~algorithm message =
    let status, stdout, stderr = run instance ~k ~algorithm in
    check_bool (what ^ " exits 1") true (status = Unix.WEXITED 1);
    Alcotest.(check string) (what ^ " prints nothing") "" stdout;
    Alcotest.(check string) what ("error: " ^ message ^ "\n") stderr
  in
  (match Handler.partition_result chain ~k:5 ~algorithm:Protocol.Bandwidth with
  | Ok (Json.Obj [ ("infeasible", Json.String msg) ]) ->
      fails_like_server "infeasible K" chain ~k:5 ~algorithm:Protocol.Bandwidth
        msg
  | _ -> Alcotest.fail "K=5 is not infeasible");
  match Handler.partition_result tree ~k:12 ~algorithm:Protocol.Bandwidth with
  | Error { Protocol.message; _ } ->
      fails_like_server "non-star bandwidth" tree ~k:12
        ~algorithm:Protocol.Bandwidth message
  | Ok _ -> Alcotest.fail "bandwidth on a non-star tree is solved"

let suite =
  [
    Alcotest.test_case "parallel_map preserves input order" `Quick
      test_parallel_map_order;
    Alcotest.test_case "parallel_map on empty input" `Quick
      test_parallel_map_empty;
    Alcotest.test_case "parallel_map propagates exceptions" `Quick
      test_parallel_map_exception;
    Alcotest.test_case "pool reusable across maps" `Quick
      test_pool_reuse_across_maps;
    Alcotest.test_case "solve_batch ~jobs:4 byte-identical to sequential"
      `Quick test_batch_parallel_equals_sequential;
    Alcotest.test_case "optimal weights agree across algorithms" `Quick
      test_batch_all_weights_optimal;
    Alcotest.test_case "custom-algorithm RNG independent of scheduling" `Quick
      test_batch_custom_rng_deterministic;
    Alcotest.test_case "parallel metrics merge equals sequential" `Quick
      test_batch_metrics_merge_matches_sequential;
    Alcotest.test_case "Metrics.merge counters and spans" `Quick
      test_merge_counters_and_spans;
    test_ksweep_matches_one_shot;
    test_ksweep_decomposition_matches_reference;
    Alcotest.test_case "parallel K-sweep equals sequential" `Quick
      test_ksweep_parallel_equals_sequential;
    Alcotest.test_case "deque and hitting sweeps agree" `Quick
      test_ksweep_deque_agrees_with_hitting;
    Alcotest.test_case "tlp_cli sweep text names the infeasible K" `Quick
      test_cli_sweep_text_names_infeasible_k;
    Alcotest.test_case "tlp_cli partition prints the server's document"
      `Quick test_cli_partition_is_server_document;
  ]
