open Tlp_perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let () =
  let bins = { Servers.serve = Sys.argv.(1); route = Sys.argv.(2) } in
  List.iter
    (fun (name, workload) ->
      let digest seed = Plan.digest (Plan.make workload ~seed ~seconds:1) in
      check (name ^ ": same seed, same requests") (digest 1 = digest 1);
      check (name ^ ": other seed, other requests") (digest 1 <> digest 2))
    Plan.workloads;
  List.iter
    (fun (name, workload) ->
      let cfg = { Bench.workload; seed = 3; seconds = 1; bins } in
      let timed = Bench.run cfg in
      check (name ^ ": timed smoke run verified")
        (timed.Bench.correct && timed.failed = 0 && timed.attempted > 0);
      check (name ^ ": every end-to-end metric measured")
        (List.for_all
           (fun m -> Float.is_finite m.Bench.value && m.value > 0.0)
           timed.metrics);
      let traced = Trace.run cfg in
      check (name ^ ": traced smoke run verified") traced.Bench.correct;
      check (name ^ ": every layer metric reported")
        (List.map (fun m -> m.Bench.name) traced.metrics
        = List.map (fun (n, _, _) -> n) Trace.layer_metrics))
    Plan.workloads;
  if !failures > 0 then exit 1
