module Chain = Tlp_graph.Chain
module Tree = Tlp_graph.Tree
module Metrics = Tlp_util.Metrics
module Rng = Tlp_util.Rng

let max_edges = 20

let subsets m =
  (* All subsets of edge indices 0..m-1 as sorted lists, by bitmask. *)
  if m > max_edges then invalid_arg "Exhaustive: too many edges";
  Seq.init (1 lsl m) (fun mask ->
      List.filter (fun e -> mask land (1 lsl e) <> 0) (List.init m Fun.id))

let best_by ~metrics ~feasible ~score m =
  Seq.fold_left
    (fun acc cut ->
      Metrics.bump metrics "exhaustive_cuts";
      if feasible cut then begin
        let s = score cut in
        match acc with
        | Some (_, best) when best <= s -> acc
        | _ -> Some (cut, s)
      end
      else acc)
    None (subsets m)

let chain_min_bandwidth ?(metrics = Metrics.null) c ~k =
  best_by ~metrics
    ~feasible:(Chain.is_feasible c ~k)
    ~score:(Chain.cut_weight c) (Chain.n_edges c)

let chain_min_bottleneck ?(metrics = Metrics.null) c ~k =
  best_by ~metrics
    ~feasible:(Chain.is_feasible c ~k)
    ~score:(Chain.max_cut_edge c) (Chain.n_edges c)

let chain_min_cardinality ?(metrics = Metrics.null) c ~k =
  best_by ~metrics
    ~feasible:(Chain.is_feasible c ~k)
    ~score:List.length (Chain.n_edges c)

let tree_min_bandwidth ?(metrics = Metrics.null) t ~k =
  best_by ~metrics
    ~feasible:(Tree.is_feasible t ~k)
    ~score:(Tree.cut_weight t) (Tree.n_edges t)

let tree_min_bottleneck ?(metrics = Metrics.null) t ~k =
  best_by ~metrics
    ~feasible:(Tree.is_feasible t ~k)
    ~score:(Tree.max_cut_edge t) (Tree.n_edges t)

let tree_min_cardinality ?(metrics = Metrics.null) t ~k =
  best_by ~metrics
    ~feasible:(Tree.is_feasible t ~k)
    ~score:List.length (Tree.n_edges t)

(* ---------- differential fuzz ---------- *)

let fuzz rng ~rounds =
  let failures = ref [] in
  let note fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  for _ = 1 to rounds do
    let n = 1 + Rng.int rng 12 in
    let alpha = Array.init n (fun _ -> 1 + Rng.int rng 20) in
    let beta =
      Array.init (Stdlib.max 0 (n - 1)) (fun _ -> 1 + Rng.int rng 30)
    in
    let chain = Chain.make ~alpha ~beta in
    let total = Chain.total_weight chain in
    let k = Chain.max_alpha chain + Rng.int rng (Stdlib.max 1 total) in
    let oracle = Option.map snd (chain_min_bandwidth chain ~k) in
    let weight_of = function
      | Ok { Tlp_core.Bandwidth.weight; _ } -> Some weight
      | Error _ -> None
    in
    let candidates =
      [
        weight_of (Tlp_core.Bandwidth.deque chain ~k);
        weight_of (Tlp_core.Bandwidth.heap chain ~k);
        (match Tlp_core.Bandwidth_hitting.solve chain ~k with
        | Ok { Tlp_core.Bandwidth_hitting.weight; _ } -> Some weight
        | Error _ -> None);
        (match Tlp_core.Bandwidth_primes_naive.solve chain ~k with
        | Ok { Tlp_core.Bandwidth_primes_naive.weight; _ } -> Some weight
        | Error _ -> None);
      ]
    in
    if not (List.for_all (( = ) oracle) candidates) then
      note "chain bandwidth mismatch n=%d k=%d" n k;
    let weights = Array.init n (fun _ -> 1 + Rng.int rng 20) in
    let parents =
      Array.init (n - 1) (fun i -> (Rng.int rng (i + 1), 1 + Rng.int rng 30))
    in
    let t = Tree.of_parents ~weights ~parents in
    let tk =
      Array.fold_left Stdlib.max 1 weights
      + Rng.int rng (Stdlib.max 1 (Tree.total_weight t))
    in
    (match
       (Tlp_core.Bottleneck.fast t ~k:tk, tree_min_bottleneck t ~k:tk)
     with
    | Ok { Tlp_core.Bottleneck.bottleneck; _ }, Some (_, best)
      when bottleneck = best ->
        ()
    | _ -> note "tree bottleneck mismatch n=%d k=%d" n tk);
    match (Tlp_core.Proc_min.solve t ~k:tk, tree_min_cardinality t ~k:tk) with
    | Ok { Tlp_core.Proc_min.cut; _ }, Some (_, best)
      when List.length cut = best ->
        ()
    | _ -> note "proc-min mismatch n=%d k=%d" n tk
  done;
  (rounds, List.rev !failures)
