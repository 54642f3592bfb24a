module Chain = Tlp_graph.Chain
module Metrics = Tlp_util.Metrics
module Bandwidth = Tlp_core.Bandwidth
module Hitting = Tlp_core.Bandwidth_hitting
module Infeasible = Tlp_core.Infeasible
module Json = Tlp_util.Json_out

type t = {
  chain : Chain.t;
  hws : Hitting.Workspace.t;
  dws : Bandwidth.Workspace.t;
}

type algorithm = Deque | Hitting

type entry = {
  k : int;
  weight : int;
  cut : Chain.cut;
  stats : Hitting.stats option;
}

let create chain =
  let n = Chain.n chain in
  {
    chain;
    hws = Hitting.Workspace.create n;
    dws = Bandwidth.Workspace.create n;
  }

let chain t = t.chain

let solve ?(metrics = Metrics.null) t ~algorithm ~k =
  match algorithm with
  | Deque ->
      Result.map
        (fun (s : Bandwidth.solution) ->
          { k; weight = s.Bandwidth.weight; cut = s.Bandwidth.cut; stats = None })
        (Bandwidth.deque ~metrics ~workspace:t.dws t.chain ~k)
  | Hitting ->
      Result.map
        (fun (s : Hitting.solution) ->
          {
            k;
            weight = s.Hitting.weight;
            cut = s.Hitting.cut;
            stats = Some s.Hitting.stats;
          })
        (Hitting.solve ~metrics ~workspace:t.hws t.chain ~k)

let sorted_ks ks = List.sort_uniq compare ks

let sweep ?(metrics = Metrics.null) t ~algorithm ks =
  List.map (fun k -> solve ~metrics t ~algorithm ~k) (sorted_ks ks)

let algorithm_name = function Deque -> "deque" | Hitting -> "hitting"

let entries_json ks results =
  let int i = Json.Int i in
  Json.List
    (List.map2
       (fun k -> function
         | Ok e ->
             Json.Obj
               ([
                  ("k", int e.k);
                  ("weight", int e.weight);
                  ("cut", Json.List (List.map int e.cut));
                ]
               @
               match e.stats with
               | None -> []
               | Some s ->
                   [
                     ("primes", int s.Hitting.p);
                     ("groups", int s.Hitting.r);
                     ("q_mean", Json.Float s.Hitting.q_mean);
                   ])
         | Error err ->
             Json.Obj
               [
                 ("k", int k);
                 ("infeasible", Json.String (Infeasible.to_string err));
               ])
       (sorted_ks ks) results)

(* Split [ks] (already sorted) into [m] contiguous chunks of near-equal
   size, dropping empty tails.  Contiguity keeps each worker's sweep
   ascending in K, the access pattern the shared scratch is built for. *)
let chunks m ks =
  let arr = Array.of_list ks in
  let n = Array.length arr in
  let m = Stdlib.max 1 (Stdlib.min m n) in
  let base = n / m and extra = n mod m in
  let rec go i start acc =
    if i >= m then List.rev acc
    else
      let len = base + if i < extra then 1 else 0 in
      go (i + 1) (start + len) (Array.sub arr start len :: acc)
  in
  if n = 0 then [] else go 0 0 []

let sweep_parallel ?(metrics = Metrics.null) ?pool ?(jobs = 1) chain ~algorithm
    ks =
  let ks = sorted_ks ks in
  let run pool =
    let parts = Array.of_list (chunks (Pool.jobs pool) ks) in
    let sinks =
      if Metrics.is_null metrics then
        Array.make (Array.length parts) Metrics.null
      else Array.init (Array.length parts) (fun _ -> Metrics.create ())
    in
    let results =
      Pool.parallel_map pool
        (fun i ->
          (* Fresh sweep state per chunk: workspaces are single-domain. *)
          let t = create chain in
          Array.to_list
            (Array.map
               (fun k -> solve ~metrics:sinks.(i) t ~algorithm ~k)
               parts.(i)))
        (Array.init (Array.length parts) (fun i -> i))
    in
    Array.iter (fun sink -> Metrics.merge metrics sink) sinks;
    List.concat (Array.to_list results)
  in
  match pool with
  | Some pool -> run pool
  | None ->
      if jobs <= 1 then sweep ~metrics (create chain) ~algorithm ks
      else Pool.with_pool ~jobs run

let decomposition t ~k = Hitting.prime_ranges ~workspace:t.hws t.chain ~k
