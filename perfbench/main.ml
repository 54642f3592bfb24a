(* perfbench: run one workload of the end-to-end benchmark and print
   its result as the last line of stdout.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--serve PATH] [--route PATH]

   Diagnostics go to the preceding "# ..." lines. *)

module Json = Tlp_util.Json_out
open Tlp_perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload \
     small_hits|large_misses|drift_rounds --seed N --seconds S \
     --trace 0|1 [--serve PATH] [--route PATH]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: v :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt key default = Option.value ~default (List.assoc_opt key opts) in
  let int_opt key default =
    match int_of_string_opt (opt key (string_of_int default)) with
    | Some i -> i
    | None -> usage ()
  in
  let workload =
    match Plan.of_name (opt "workload" "") with
    | Some w -> w
    | None -> usage ()
  in
  let bins =
    {
      Servers.serve = opt "serve" "_build/default/bin/tlp_serve.exe";
      route = opt "route" "_build/default/bin/tlp_route.exe";
    }
  in
  List.iter
    (fun exe ->
      if not (Sys.file_exists exe) then (
        Printf.eprintf
          "perfbench: %s not found (build the repository first)\n" exe;
        exit 1))
    [ bins.serve; bins.route ];
  let cfg =
    {
      Bench.workload;
      seed = int_opt "seed" 1;
      seconds = max 1 (int_opt "seconds" 10);
      bins;
    }
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run =
    match int_opt "trace" 0 with
    | 0 -> Bench.run
    | 1 -> Trace.run
    | _ -> usage ()
  in
  match run cfg with
  | o ->
      Printf.printf "# %s\n" (Json.to_string (Json.Obj o.Bench.notes));
      Printf.printf "%s\n%!" (Json.to_string (Bench.to_json o))
  | exception e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      Proc.stop_all ();
      exit 1
