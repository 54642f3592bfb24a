(* tlp: command-line interface to the partitioning library.

   Subcommands:
     generate   make a random chain/tree instance file
     partition  run a partitioning algorithm on an instance
     stats      prime-subpath statistics across a K sweep
     sweep      solve one chain at many K values with shared scratch
     simulate   execute a partitioned chain on a machine model *)

open Cmdliner
module Chain = Tlp_graph.Chain
module Weights = Tlp_graph.Weights
module Io = Tlp_graph.Instance_io
module Rng = Tlp_util.Rng
module Texttab = Tlp_util.Texttab
module Metrics = Tlp_util.Metrics
module Json = Tlp_util.Json_out
module Partition = Tlp_engine.Partition
module Ksweep = Tlp_engine.Ksweep

(* ---------- shared arguments ---------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let k_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "k"; "bound" ] ~docv:"K" ~doc:"Execution-time bound (component capacity).")

let instance_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "instance"; "i" ] ~docv:"FILE" ~doc:"Instance file (see docs).")

let dist_conv =
  let parse s =
    match Weights.of_string s with
    | d -> Ok d
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Weights.to_string d))

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains.  With N > 1 the work is spread over a \
              fixed pool of N domains; results are identical to N = 1.")

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("json", `Json); ("text", `Text) ])) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Report solver instrumentation (op counts, wall time, \
           allocations).  With $(b,json) the entire output is a single \
           JSON document; with $(b,text) a metrics table follows the \
           normal output.")

(* Every instrumented subcommand funnels its result through [emit]: the
   solution as JSON fields plus a thunk printing the classic text form.
   JSON mode prints exactly one JSON document on stdout. *)
let emit mode metrics ~json_fields ~text =
  match mode with
  | Some `Json ->
      print_endline
        (Json.to_string
           (Json.Obj (json_fields @ [ ("metrics", Metrics.to_json metrics) ])))
  | Some `Text ->
      text ();
      print_string (Metrics.render_text metrics)
  | None -> text ()

let json_cut cut = Json.List (List.map (fun e -> Json.Int e) cut)

let fail msg =
  prerr_endline ("error: " ^ msg);
  exit 1

let load_instance path =
  match Io.load path with Ok i -> i | Error msg -> fail msg

let load_chain path =
  match load_instance path with
  | Io.Chain_instance c -> c
  | Io.Tree_instance _ -> fail "expected a chain instance"

(* ---------- generate ---------- *)

let generate kind n alpha_dist beta_dist seed output =
  let rng = Rng.create seed in
  let instance =
    match kind with
    | `Chain ->
        Io.Chain_instance
          (Tlp_graph.Chain_gen.random rng ~n ~alpha_dist ~beta_dist)
    | `Tree ->
        Io.Tree_instance
          (Tlp_graph.Tree_gen.random_attachment rng ~n ~weight_dist:alpha_dist
             ~delta_dist:beta_dist)
  in
  match output with
  | Some path ->
      Io.save path instance;
      Printf.printf "wrote %s\n" path
  | None -> print_string (Io.to_string instance)

let generate_cmd =
  let kind =
    Arg.(
      value
      & opt (enum [ ("chain", `Chain); ("tree", `Tree) ]) `Chain
      & info [ "kind" ] ~docv:"KIND" ~doc:"Instance kind: chain or tree.")
  in
  let n =
    Arg.(value & opt int 100 & info [ "n"; "size" ] ~docv:"N" ~doc:"Number of tasks.")
  in
  let alpha =
    Arg.(
      value
      & opt dist_conv (Weights.Uniform (1, 100))
      & info [ "alpha" ] ~docv:"DIST"
          ~doc:"Vertex weight distribution (const:C, uniform:LO:HI, exp:M, \
                bimodal:S:L:P).")
  in
  let beta =
    Arg.(
      value
      & opt dist_conv (Weights.Uniform (1, 100))
      & info [ "beta" ] ~docv:"DIST" ~doc:"Edge weight distribution.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random task-graph instance")
    Term.(const generate $ kind $ n $ alpha $ beta $ seed_arg $ output)

(* ---------- partition ---------- *)

let write_dot dot contents =
  match dot with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc contents);
      (* stderr so that [--metrics json] output stays a single document *)
      Printf.eprintf "dot written to %s\n" path

(* The shared dispatch ([Tlp_engine.Partition], also behind the
   server's [partition]): the cut and its result document, or exit 1
   with the message the server would answer. *)
let solve ?metrics instance ~k objective =
  match Partition.solve ?metrics instance ~k ~objective with
  | Partition.Solved { cut; doc } -> (cut, doc)
  | Partition.Infeasible e -> fail (Tlp_core.Infeasible.to_string e)
  | Partition.Unsupported msg -> fail msg

let doc_fields = function Json.Obj fields -> fields | _ -> []

let doc_int doc name =
  match List.assoc_opt name (doc_fields doc) with
  | Some (Json.Int i) -> i
  | _ -> invalid_arg ("result document has no integer " ^ name)

let partition objective path k dot metrics_mode =
  let metrics =
    match metrics_mode with Some _ -> Metrics.create () | None -> Metrics.null
  in
  let instance = load_instance path in
  let cut, doc = solve ~metrics instance ~k objective in
  (match (instance, objective) with
  | Io.Chain_instance chain, (Partition.Bandwidth | Partition.Bottleneck) ->
      write_dot dot
        (Tlp_graph.Dot.of_chain ~assignment:(Chain.assignment chain cut) chain)
  | Io.Tree_instance t, Partition.Pipeline ->
      write_dot dot
        (Tlp_graph.Dot.of_tree
           ~assignment:(Tlp_core.Tree_pipeline.assignment t cut)
           t)
  | _ -> ());
  (* Text mode prints the document itself, one [field: value] line per
     field: strings bare, everything else as its JSON. *)
  emit metrics_mode metrics ~json_fields:(doc_fields doc) ~text:(fun () ->
      List.iter
        (fun (name, v) ->
          Printf.printf "%s: %s\n" name
            (match v with Json.String s -> s | v -> Json.to_string v))
        (doc_fields doc))

let partition_cmd =
  let objective =
    Arg.(
      value
      & opt (enum Partition.objectives) Partition.Bandwidth
      & info [ "algorithm"; "a" ] ~docv:"ALGO"
          ~doc:(String.concat " | " (List.map fst Partition.objectives) ^ "."))
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Also write a Graphviz rendering colored by component.")
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Partition an instance under bound K")
    Term.(
      const partition $ objective $ instance_arg $ k_arg $ dot $ metrics_arg)

(* ---------- stats ---------- *)

let stats path ks =
  let chain = load_chain path in
  let tab =
    Texttab.create
      ~title:(Printf.sprintf "prime-subpath statistics, n = %d" (Chain.n chain))
      [ "K"; "p"; "r"; "q"; "plogq"; "nlogn"; "opt weight" ]
  in
  let nlogn =
    let n = float_of_int (Chain.n chain) in
    n *. (log n /. log 2.0)
  in
  let sweep = Ksweep.create chain in
  List.iter
    (fun k ->
      match Ksweep.solve sweep ~algorithm:Ksweep.Hitting ~k with
      | Ok { Ksweep.weight; stats; _ } ->
          let s = Option.get stats in
          let plogq =
            float_of_int s.Tlp_core.Bandwidth_hitting.p
            *. (log (Stdlib.max 2.0 s.Tlp_core.Bandwidth_hitting.q_mean)
               /. log 2.0)
          in
          Texttab.add_row tab
            [
              string_of_int k;
              string_of_int s.Tlp_core.Bandwidth_hitting.p;
              string_of_int s.Tlp_core.Bandwidth_hitting.r;
              Printf.sprintf "%.2f" s.Tlp_core.Bandwidth_hitting.q_mean;
              Printf.sprintf "%.1f" plogq;
              Printf.sprintf "%.1f" nlogn;
              string_of_int weight;
            ]
      | Error e ->
          Texttab.add_row tab
            [ string_of_int k; "-"; "-"; "-"; "-"; "-";
              "infeasible: " ^ Tlp_core.Infeasible.to_string e ])
    ks;
  Texttab.print tab

let stats_cmd =
  let ks =
    Arg.(
      non_empty
      & opt (list int) []
      & info [ "k-values" ] ~docv:"K1,K2,..." ~doc:"Bounds to sweep.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Prime-subpath statistics across a K sweep")
    Term.(const stats $ instance_arg $ ks)

(* ---------- sweep ---------- *)

let sweep path ks algorithm jobs metrics_mode =
  let chain = load_chain path in
  let metrics =
    match metrics_mode with Some _ -> Metrics.create () | None -> Metrics.null
  in
  let results =
    Metrics.with_span metrics "sweep" (fun () ->
        if jobs <= 1 then
          Ksweep.sweep ~metrics (Ksweep.create chain) ~algorithm ks
        else Ksweep.sweep_parallel ~metrics ~jobs chain ~algorithm ks)
  in
  let algo_name = Ksweep.algorithm_name algorithm in
  emit metrics_mode metrics
    ~json_fields:
      [
        ("algorithm", Json.String algo_name);
        ("n", Json.Int (Chain.n chain));
        ("jobs", Json.Int jobs);
        ("entries", Ksweep.entries_json ks results);
      ]
    ~text:(fun () ->
      let tab =
        Texttab.create
          ~title:
            (Printf.sprintf "K sweep (%s), n = %d, jobs = %d" algo_name
               (Chain.n chain) jobs)
          [ "K"; "opt weight"; "cut size"; "p"; "r"; "q" ]
      in
      List.iter2
        (fun k -> function
          | Ok e ->
              let p, r, q =
                match e.Ksweep.stats with
                | Some s ->
                    ( string_of_int s.Tlp_core.Bandwidth_hitting.p,
                      string_of_int s.Tlp_core.Bandwidth_hitting.r,
                      Printf.sprintf "%.2f" s.Tlp_core.Bandwidth_hitting.q_mean
                    )
                | None -> ("-", "-", "-")
              in
              Texttab.add_row tab
                [
                  string_of_int e.Ksweep.k;
                  string_of_int e.Ksweep.weight;
                  string_of_int (List.length e.Ksweep.cut);
                  p; r; q;
                ]
          | Error err ->
              Texttab.add_row tab
                [ string_of_int k; "-"; "-"; "-"; "-";
                  "infeasible: " ^ Tlp_core.Infeasible.to_string err ])
        (Ksweep.sorted_ks ks) results;
      Texttab.print tab)

let sweep_cmd =
  let ks =
    Arg.(
      non_empty
      & opt (list int) []
      & info [ "k-values" ] ~docv:"K1,K2,..."
          ~doc:"Bounds to sweep (deduplicated, solved in ascending order).")
  in
  let algorithm =
    Arg.(
      value
      & opt
          (enum
             [
               ("deque", Ksweep.Deque);
               ("hitting", Ksweep.Hitting);
             ])
          Ksweep.Hitting
      & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc:"deque | hitting.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Solve one chain at many K values, reusing solver scratch \
          across the sweep (optionally across worker domains)")
    Term.(
      const sweep $ instance_arg $ ks $ algorithm $ jobs_arg $ metrics_arg)

(* ---------- simulate ---------- *)

let simulate path k processors bandwidth jobs interconnect metrics_mode =
  let chain = load_chain path in
  let metrics =
    match metrics_mode with Some _ -> Metrics.create () | None -> Metrics.null
  in
  let cut, _ = solve ~metrics (Io.Chain_instance chain) ~k Partition.Bandwidth in
  let machine =
    Tlp_archsim.Machine.make ~interconnect ~bandwidth ~processors ()
  in
  let r =
    Metrics.with_span metrics "pipeline_sim" (fun () ->
        Tlp_archsim.Pipeline_sim.run ~machine ~chain ~cut ~jobs)
  in
  emit metrics_mode metrics
    ~json_fields:
      [
        ("algorithm", Json.String "pipeline simulation");
        ("cut", json_cut cut);
        ("stages", Json.Int r.Tlp_archsim.Pipeline_sim.n_stages);
        ("makespan", Json.Int r.Tlp_archsim.Pipeline_sim.makespan);
        ("throughput", Json.Float r.Tlp_archsim.Pipeline_sim.throughput);
        ("avg_latency", Json.Float r.Tlp_archsim.Pipeline_sim.avg_latency);
        ( "network_busy_time",
          Json.Int r.Tlp_archsim.Pipeline_sim.network_busy_time );
        ( "traffic_per_job",
          Json.Int r.Tlp_archsim.Pipeline_sim.traffic_per_job );
      ]
    ~text:(fun () ->
      Format.printf "%a@." Tlp_archsim.Pipeline_sim.pp_report r)

let simulate_cmd =
  let processors =
    Arg.(value & opt int 16 & info [ "processors"; "p" ] ~docv:"P" ~doc:"Processor count.")
  in
  let bandwidth =
    Arg.(value & opt int 1 & info [ "bandwidth" ] ~docv:"B" ~doc:"Network bandwidth.")
  in
  let jobs =
    Arg.(value & opt int 100 & info [ "jobs" ] ~docv:"J" ~doc:"Jobs to stream.")
  in
  let interconnect =
    Arg.(
      value
      & opt
          (enum
             [
               ("bus", Tlp_archsim.Machine.Bus);
               ("crossbar", Tlp_archsim.Machine.Crossbar);
               ("multistage", Tlp_archsim.Machine.Multistage 4);
             ])
          Tlp_archsim.Machine.Bus
      & info [ "interconnect" ] ~docv:"IC" ~doc:"bus | crossbar | multistage.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Partition a chain and execute it on a machine model")
    Term.(
      const simulate $ instance_arg $ k_arg $ processors $ bandwidth $ jobs
      $ interconnect $ metrics_arg)

(* ---------- dual ---------- *)

let dual path budget processors =
  let chain = load_chain path in
  (match budget with
  | Some b ->
      let { Tlp_core.Chain_dual.k; cut; cut_weight } =
        Tlp_core.Chain_dual.min_bound_for_budget chain ~budget:b
      in
      Printf.printf "budget %d: minimal K = %d (cut [%s], weight %d)\n" b k
        (String.concat "; " (List.map string_of_int cut))
        cut_weight
  | None -> ());
  match processors with
  | Some m ->
      let { Tlp_core.Chain_dual.k; cut; cut_weight } =
        Tlp_core.Chain_dual.min_bound_for_processors chain ~m
      in
      Printf.printf
        "processors %d: minimal K = %d (cheapest cut [%s], weight %d)\n" m k
        (String.concat "; " (List.map string_of_int cut))
        cut_weight
  | None -> ()

let dual_cmd =
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"B" ~doc:"Fix the communication budget.")
  in
  let processors =
    Arg.(
      value
      & opt (some int) None
      & info [ "processors"; "m" ] ~docv:"M" ~doc:"Fix the processor count.")
  in
  Cmd.v
    (Cmd.info "dual"
       ~doc:"Minimize the execution bound K under a fixed budget or \
             processor count")
    Term.(const dual $ instance_arg $ budget $ processors)

(* ---------- tree-simulate ---------- *)

let tree_simulate path k processors =
  match load_instance path with
  | Io.Chain_instance _ -> fail "expected a tree instance"
  | Io.Tree_instance t as instance ->
      let cut, doc = solve instance ~k Partition.Pipeline in
      let machine = Tlp_archsim.Machine.make ~processors () in
      let report = Tlp_archsim.Tree_sim.run ~machine ~tree:t ~cut () in
      Printf.printf "components: %d (bottleneck %d, bandwidth %d)\n"
        (doc_int doc "components") (doc_int doc "bottleneck")
        (doc_int doc "bandwidth");
      Format.printf "%a@." Tlp_archsim.Tree_sim.pp_report report

let tree_simulate_cmd =
  let processors =
    Arg.(
      value & opt int 64
      & info [ "processors"; "p" ] ~docv:"P" ~doc:"Processor count.")
  in
  Cmd.v
    (Cmd.info "tree-simulate"
       ~doc:"Partition a tree with the full pipeline and execute it on \
             the machine model")
    Term.(const tree_simulate $ instance_arg $ k_arg $ processors)

(* ---------- verify ---------- *)

let verify rounds seed jobs =
  let chunks =
    (* Split the rounds into [jobs] near-equal chunks, each on its own
       RNG stream split from the seed, so the worker domains never touch
       a shared generator. *)
    let jobs = Stdlib.max 1 (Stdlib.min jobs rounds) in
    let rngs = Rng.split_n (Rng.create seed) jobs in
    let base = rounds / jobs and extra = rounds mod jobs in
    List.init jobs (fun i -> (rngs.(i), base + if i < extra then 1 else 0))
  in
  let fuzz (rng, rounds) = Tlp_baselines.Exhaustive.fuzz rng ~rounds in
  let results =
    match chunks with
    | [ chunk ] -> [ fuzz chunk ]
    | _ ->
        Array.to_list
          (Tlp_engine.Pool.with_pool ~jobs:(List.length chunks) (fun pool ->
               Tlp_engine.Pool.parallel_map pool fuzz (Array.of_list chunks)))
  in
  let checked = List.fold_left (fun acc (c, _) -> acc + c) 0 results in
  let mismatches = List.concat_map snd results in
  List.iter prerr_endline mismatches;
  Printf.printf "verified %d random instances: %d failures\n" checked
    (List.length mismatches);
  if mismatches <> [] then exit 1

let verify_cmd =
  let rounds =
    Arg.(
      value & opt int 500
      & info [ "rounds" ] ~docv:"N" ~doc:"Random instances to check.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Differential check of every solver against exhaustive oracles")
    Term.(const verify $ rounds $ seed_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "tlp" ~version:"1.0.0"
      ~doc:"Partitioning tree and linear task graphs on shared memory \
            architecture (Ray & Jiang, ICDCS 1994)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; partition_cmd; stats_cmd; sweep_cmd; simulate_cmd;
            dual_cmd; tree_simulate_cmd; verify_cmd;
          ]))
