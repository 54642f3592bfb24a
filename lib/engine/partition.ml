module Json = Tlp_util.Json_out
module Metrics = Tlp_util.Metrics
module Chain = Tlp_graph.Chain
module Tree = Tlp_graph.Tree
module Io = Tlp_graph.Instance_io
module Hitting = Tlp_core.Bandwidth_hitting
module Tp = Tlp_core.Tree_pipeline

type objective = Bandwidth | Bottleneck | Procmin | Pipeline

(* A match, not a lookup: the server names the objective in every
   partition request's cache key. *)
let objective_name = function
  | Bandwidth -> "bandwidth"
  | Bottleneck -> "bottleneck"
  | Procmin -> "procmin"
  | Pipeline -> "pipeline"

let objectives =
  List.map
    (fun o -> (objective_name o, o))
    [ Bandwidth; Bottleneck; Procmin; Pipeline ]

type outcome =
  | Solved of { cut : int list; doc : Json.t }
  | Infeasible of Tlp_core.Infeasible.t
  | Unsupported of string

let ints xs = Json.List (List.map (fun x -> Json.Int x) xs)

let bandwidth_chain_doc ~k ~component_weights (s : Hitting.solution) =
  Json.Obj
    [
      ("algorithm", Json.String "bandwidth (TEMP_S)");
      ("k", Json.Int k);
      ("cut", ints s.Hitting.cut);
      ("weight", Json.Int s.Hitting.weight);
      ("components", Json.Int (List.length s.Hitting.cut + 1));
      ("component_weights", ints component_weights);
      ("primes", Json.Int s.Hitting.stats.Hitting.p);
      ("groups", Json.Int s.Hitting.stats.Hitting.r);
      ("q_mean", Json.Float s.Hitting.stats.Hitting.q_mean);
    ]

let solve ?(metrics = Metrics.null) ?workspace instance ~k ~objective =
  (* Every document leads with the objective's name, [k] and the cut. *)
  let solved name cut fields =
    let common =
      [
        ("algorithm", Json.String name);
        ("k", Json.Int k);
        ("cut", ints cut);
      ]
    in
    Solved { cut; doc = Json.Obj (common @ fields) }
  in
  let ( >>| ) r f = match r with Ok s -> f s | Error e -> Infeasible e in
  let int name v = (name, Json.Int v) in
  match (instance, objective) with
  | Io.Chain_instance chain, Bandwidth ->
      Hitting.solve ~metrics ?workspace chain ~k >>| fun s ->
      let component_weights = Chain.component_weights chain s.Hitting.cut in
      Solved
        { cut = s.Hitting.cut; doc = bandwidth_chain_doc ~k ~component_weights s }
  | Io.Chain_instance chain, Bottleneck ->
      Tlp_core.Chain_bottleneck.solve ~metrics chain ~k
      >>| fun { Tlp_core.Chain_bottleneck.cut; bottleneck } ->
      solved "chain bottleneck" cut
        [
          int "weight" (Chain.cut_weight chain cut);
          int "bottleneck" bottleneck;
          int "components" (List.length cut + 1);
        ]
  | Io.Chain_instance chain, (Procmin | Pipeline) ->
      (* A chain is a tree; run the tree pipeline on it. *)
      Tp.partition ~metrics (Tree.of_chain chain) ~k >>| fun r ->
      solved "tree pipeline on chain" r.Tp.cut
        [
          int "components" r.Tp.n_components;
          int "bottleneck" r.Tp.bottleneck;
          int "bandwidth" r.Tp.bandwidth;
        ]
  | Io.Tree_instance t, Bottleneck ->
      Tlp_core.Bottleneck.fast ~metrics t ~k
      >>| fun { Tlp_core.Bottleneck.cut; bottleneck } ->
      solved "tree bottleneck (Alg 2.1)" cut
        [
          int "bottleneck" bottleneck;
          int "components" (List.length cut + 1);
        ]
  | Io.Tree_instance t, Procmin ->
      Tlp_core.Proc_min.solve ~metrics t ~k
      >>| fun { Tlp_core.Proc_min.cut; n_components } ->
      solved "processor minimization (Alg 2.2)" cut
        [
          int "components" n_components;
          ("component_weights", ints (Tree.component_weights t cut));
        ]
  | Io.Tree_instance t, Pipeline ->
      Tp.partition ~metrics t ~k >>| fun r ->
      solved "full pipeline (bottleneck + proc-min)" r.Tp.cut
        [
          int "bottleneck" r.Tp.bottleneck;
          int "bandwidth" r.Tp.bandwidth;
          int "components" r.Tp.n_components;
          int "raw_components" r.Tp.raw_components;
        ]
  | Io.Tree_instance t, Bandwidth -> (
      (* NP-complete in general (Theorem 1); exact for stars. *)
      match Tlp_core.Star_bandwidth.center t with
      | Some _ ->
          Tlp_core.Star_bandwidth.solve t ~k
          >>| fun { Tlp_core.Star_bandwidth.cut; weight; _ } ->
          solved "star bandwidth (knapsack reduction)" cut
            [ int "weight" weight ]
      | None ->
          Unsupported
            "bandwidth minimization on general trees is NP-complete \
             (Theorem 1); only stars are solved exactly — use algorithm \
             'pipeline' for the bottleneck+proc-min composition")
