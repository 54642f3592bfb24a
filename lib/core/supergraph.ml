module Chain = Tlp_graph.Chain
module Graph = Tlp_graph.Graph

type t = {
  chain : Chain.t;
  level_of_vertex : int array;
  intra_level_weight : int;
}

let linearize ?(src = 0) g =
  let levels = Graph.bfs_levels g src in
  (* Lay out any further components after the first, each levelled from
     its own smallest vertex. *)
  let offset = ref (1 + Array.fold_left Stdlib.max 0 levels) in
  let rec place () =
    match
      Array.to_seqi levels
      |> Seq.find_map (fun (v, l) -> if l < 0 then Some v else None)
    with
    | None -> ()
    | Some v ->
        let extra = Graph.bfs_levels g v in
        let depth = ref 0 in
        Array.iteri
          (fun u l ->
            if l >= 0 && levels.(u) < 0 then begin
              levels.(u) <- !offset + l;
              depth := Stdlib.max !depth l
            end)
          extra;
        offset := !offset + !depth + 1;
        place ()
  in
  place ();
  let n_levels = 1 + Array.fold_left Stdlib.max 0 levels in
  let alpha = Array.make n_levels 0 in
  Array.iteri (fun v l -> alpha.(l) <- alpha.(l) + Graph.weight g v) levels;
  let beta = Array.make (Stdlib.max 0 (n_levels - 1)) 0 in
  let intra = ref 0 in
  Array.iter
    (fun (u, v, w) ->
      let lu = levels.(u) and lv = levels.(v) in
      if lu = lv then intra := !intra + w
      else begin
        (* BFS on an undirected graph: |lu - lv| = 1. *)
        let lo = Stdlib.min lu lv in
        beta.(lo) <- beta.(lo) + w
      end)
    g.Graph.edges;
  (* Clamp to the chain's positivity invariant; a zero-weight level or
     link only arises from zero-weight inputs. *)
  let alpha = Array.map (fun w -> Stdlib.max 1 w) alpha in
  let beta = Array.map (fun w -> Stdlib.max 1 w) beta in
  {
    chain = Chain.make ~alpha ~beta;
    level_of_vertex = levels;
    intra_level_weight = !intra;
  }

let assignment_of_cut t cut =
  let block_of_level = Chain.assignment t.chain cut in
  Array.map (fun l -> block_of_level.(l)) t.level_of_vertex

let partition ?src g ~k =
  let t = linearize ?src g in
  match Bandwidth_hitting.solve t.chain ~k with
  | Error e -> Error e
  | Ok { Bandwidth_hitting.cut; _ } -> Ok (assignment_of_cut t cut, cut, t)
