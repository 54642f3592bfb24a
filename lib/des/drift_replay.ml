module Rng = Tlp_util.Rng
module Chain = Tlp_graph.Chain
module Chain_gen = Tlp_graph.Chain_gen
module Incr = Tlp_core.Incremental

type config = {
  n : int;
  max_weight : int;
  rounds : int;
  batch : int;
  k : int option;
  plan : Incr.plan;
}

let default_config =
  { n = 256; max_weight = 20; rounds = 50; batch = 3; k = None; plan = Incr.Auto }

type round = {
  index : int;
  deltas : int;
  k : int;
  mode : Incr.mode;
  cut_size : int;
  bandwidth : int;
  migrated : int;
  migrated_weight : int;
}

type report = {
  config : config;
  rounds : round list;
  resolves_incremental : int;
  resolves_full : int;
  total_migrated : int;
  max_migrated : int;
  final_bandwidth : int;
  trace_digest : string;
}

let check (config : config) =
  let require cond fmt =
    Printf.ksprintf
      (fun m -> if not cond then invalid_arg ("Drift_replay.run: " ^ m))
      fmt
  in
  require (config.n >= 2) "n must be >= 2";
  require (config.max_weight >= 1) "max_weight must be >= 1";
  require (config.rounds >= 1) "rounds must be >= 1";
  require (config.batch >= 1) "batch must be >= 1";
  match config.k with
  | Some k -> require (k >= 1) "k must be >= 1"
  | None -> ()

(* One drift step against the plan-side weight copies: magnitude in
   [1, max_weight], sign chosen only when the weight stays positive —
   the same walk tlp_load --drift drives over the wire. *)
let draw_delta rng ~alpha ~beta ~max_weight =
  let step = 1 + Rng.int rng max_weight in
  let signed current =
    if current - step >= 1 && Rng.int rng 2 = 0 then -step else step
  in
  if Array.length beta = 0 || Rng.int rng 2 = 0 then begin
    let i = Rng.int rng (Array.length alpha) in
    let d = signed alpha.(i) in
    alpha.(i) <- alpha.(i) + d;
    Incr.Vertex (i, d)
  end
  else begin
    let j = Rng.int rng (Array.length beta) in
    let d = signed beta.(j) in
    beta.(j) <- beta.(j) + d;
    Incr.Edge (j, d)
  end

let draw_k rng (config : config) ~alpha =
  match config.k with
  | Some k -> k
  | None ->
      let max_alpha = Array.fold_left Stdlib.max 1 alpha in
      let total = Array.fold_left ( + ) 0 alpha in
      Rng.int_in rng max_alpha total

let run rng (config : config) =
  check config;
  let chain = Chain_gen.figure2 rng ~n:config.n ~max_weight:config.max_weight in
  let incr = Incr.create chain in
  let alpha = Array.copy chain.Chain.alpha in
  let beta = Array.copy chain.Chain.beta in
  let previous = ref (Array.make config.n 0) in
  let trace = Buffer.create 1024 in
  let rounds = ref [] in
  for index = 1 to config.rounds do
    let batch_len = 1 + Rng.int rng config.batch in
    let deltas = ref [] in
    for _ = 1 to batch_len do
      deltas := draw_delta rng ~alpha ~beta ~max_weight:config.max_weight :: !deltas
    done;
    (match Incr.apply incr (List.rev !deltas) with
    | Ok () -> ()
    | Error msg ->
        (* The walk keeps every weight positive, so a rejected batch
           means the plan-side copies diverged from the session state. *)
        invalid_arg ("Drift_replay.run: rejected delta batch: " ^ msg));
    let k = draw_k rng config ~alpha in
    match Incr.resolve ~plan:config.plan incr ~k with
    | Error e ->
        invalid_arg
          ("Drift_replay.run: infeasible bound: " ^ Tlp_core.Infeasible.to_string e)
    | Ok (solution, mode) ->
        let cut = solution.Tlp_core.Bandwidth_hitting.cut in
        let current = Incr.chain incr in
        let assign = Chain.assignment current cut in
        let migrated = ref 0 and migrated_weight = ref 0 in
        Array.iteri
          (fun v b ->
            if b <> !previous.(v) then begin
              Stdlib.incr migrated;
              migrated_weight := !migrated_weight + alpha.(v)
            end)
          assign;
        previous := assign;
        let round =
          {
            index;
            deltas = batch_len;
            k;
            mode;
            cut_size = List.length cut;
            bandwidth = solution.Tlp_core.Bandwidth_hitting.weight;
            migrated = !migrated;
            migrated_weight = !migrated_weight;
          }
        in
        rounds := round :: !rounds;
        Buffer.add_string trace
          (Printf.sprintf "round=%d deltas=%d k=%d mode=%s cut=%d bw=%d moved=%d\n"
             index batch_len k
             (match mode with Incr.Incremental -> "incr" | Incr.Full -> "full")
             round.cut_size round.bandwidth round.migrated)
  done;
  let rounds = List.rev !rounds in
  let count mode =
    List.length (List.filter (fun r -> r.mode = mode) rounds)
  in
  let final_bandwidth =
    match List.rev rounds with r :: _ -> r.bandwidth | [] -> 0
  in
  {
    config;
    rounds;
    resolves_incremental = count Incr.Incremental;
    resolves_full = count Incr.Full;
    total_migrated = List.fold_left (fun acc r -> acc + r.migrated) 0 rounds;
    max_migrated = List.fold_left (fun acc r -> Stdlib.max acc r.migrated) 0 rounds;
    final_bandwidth;
    trace_digest = Digest.to_hex (Digest.string (Buffer.contents trace));
  }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>rounds %d  resolves incr=%d full=%d@,migrated total=%d max=%d@,final bandwidth %d@,digest %s@]"
    (List.length r.rounds) r.resolves_incremental r.resolves_full
    r.total_migrated r.max_migrated r.final_bandwidth r.trace_digest
