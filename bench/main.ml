(* Benchmark and experiment harness.

   Regenerates every table/figure of the paper's evaluation (see
   DESIGN.md's experiment index) plus the supporting claims:

     figure2   E1  Figure 2 panels: p, q, p log q vs n, K, max weight
     claims    E2  mean prime length ~ 2K/(w1+w2); E3 TEMP_S ~ log q
     timing    E4  bandwidth solver timings; E5 bottleneck timings
     frag      E6  fragmentation: bottleneck cut vs proc-min
     apps      E7  real-time pipeline (Fig 3) + logic simulation
     ladder    E8  Bokhari / Hansen-Lih / Nicol baseline ladder
     theorem1  E9  star bandwidth via knapsack vs greedy
     ablation  E10 TEMP_S vs naive recurrence; prune vs Alg 2.2; CMB nulls
     json      instrumented solver records -> BENCH_partitioning.json
     engine    batch/K-sweep engine -> BENCH_engine.json

   Run all sections:        dune exec bench/main.exe
   Run selected sections:   dune exec bench/main.exe -- figure2 timing

   --jobs N caps the domain counts the engine section measures. *)

let max_jobs = ref 8

let sections =
  [
    ("figure2", Exp_figure2.run);
    ("claims", Exp_claims.run);
    ("timing", Exp_timing.run);
    ("frag", Exp_fragmentation.run);
    ("apps", Exp_applications.run);
    ("ladder", Exp_chain_on_chain.run);
    ("theorem1", Exp_theorem1.run);
    ("ablation", Exp_ablation.run);
    ("json", fun () -> Bench_runner.run_partitioning_suite ());
    ("engine", fun () -> Exp_engine.run ~max_jobs:!max_jobs ());
  ]

let () =
  let rec strip_jobs = function
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> max_jobs := j
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 1);
        strip_jobs rest
    | x :: rest -> x :: strip_jobs rest
    | [] -> []
  in
  let requested =
    match strip_jobs (List.tl (Array.to_list Sys.argv)) with
    | _ :: _ as names -> names
    | [] -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested
