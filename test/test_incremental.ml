(* Incremental re-solving (lib/core/incremental.ml): the repaired prime
   state and the prime-event-swept DP must be indistinguishable from a
   from-scratch solve on the materialized chain — cut, weight, and
   every stats field — across random delta streams, both plans, and
   the lifecycle edges (log wrap, rejected batches, infeasibility). *)

open Helpers
module Incr = Tlp_core.Incremental
module BH = Tlp_core.Bandwidth_hitting
module Infeasible = Tlp_core.Infeasible
module Rng = Tlp_util.Rng
module Metrics = Tlp_util.Metrics
module Min_tree = Incr.Min_tree

let stats_testable : BH.stats Alcotest.testable =
  Alcotest.testable
    (fun ppf (s : BH.stats) ->
      Format.fprintf ppf "{p=%d; r=%d; q_mean=%f; q_max=%d; len=%f/%d; steps=%d}"
        s.p s.r s.q_mean s.q_max s.temps_mean_len s.temps_max_len
        s.search_steps)
    ( = )

let check_matches_scratch ~msg incr ~k ~plan =
  let scratch = BH.solve (Incr.chain incr) ~k in
  match (Incr.resolve ~plan incr ~k, scratch) with
  | Ok (sol, _mode), Ok expect ->
      Alcotest.check cut_testable (msg ^ ": cut") expect.BH.cut sol.BH.cut;
      check_int (msg ^ ": weight") expect.BH.weight sol.BH.weight;
      Alcotest.check stats_testable (msg ^ ": stats") expect.BH.stats
        sol.BH.stats
  | Error e, Error e' ->
      if e <> e' then
        Alcotest.failf "%s: infeasibility mismatch: %s vs %s" msg
          (Infeasible.to_string e) (Infeasible.to_string e')
  | Ok _, Error e ->
      Alcotest.failf "%s: incremental Ok but scratch infeasible (%s)" msg
        (Infeasible.to_string e)
  | Error e, Ok _ ->
      Alcotest.failf "%s: incremental infeasible (%s) but scratch Ok" msg
        (Infeasible.to_string e)

(* A drift step over a live instance: mostly vertex deltas, some edge
   deltas, magnitudes small enough that most batches are accepted but
   occasional rejections exercise the rollback. *)
let random_batch rng incr =
  let n = Incr.n incr in
  let len = 1 + Rng.int rng 4 in
  List.init len (fun _ ->
      if n > 1 && Rng.int rng 4 = 0 then
        Incr.Edge (Rng.int rng (n - 1), Rng.int_in rng (-3) 5)
      else Incr.Vertex (Rng.int rng n, Rng.int_in rng (-3) 5))

let prop_differential =
  (* The tentpole acceptance test at the core layer: >= 200 random
     (instance, delta stream, K) triples, each replayed as a session
     would — update, resolve (forced incremental), compare against a
     from-scratch solve of the materialized instance. *)
  qcheck ~count:220 "incremental resolve == from-scratch solve"
    QCheck2.Gen.(
      tup3 small_chain_gen (int_range 0 1_000_000) (int_range 2 8))
    (fun ((c, k), seed, steps) ->
      let incr = Incr.create c in
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to steps do
        (match Incr.apply incr (random_batch rng incr) with
        | Ok () -> ()
        | Error _ -> ());
        (* Vary K across the stream too: per-K states repair lazily
           from different log positions. *)
        let k' = Stdlib.max 1 (k + Rng.int_in rng (-2) 2) in
        let scratch = BH.solve (Incr.chain incr) ~k:k' in
        let inc = Incr.resolve ~plan:Incr.Prefer_incremental incr ~k:k' in
        (match (inc, scratch) with
        | Ok (sol, _), Ok expect ->
            if
              sol.BH.cut <> expect.BH.cut
              || sol.BH.weight <> expect.BH.weight
              || sol.BH.stats <> expect.BH.stats
            then ok := false
        | Error e, Error e' -> if e <> e' then ok := false
        | _ -> ok := false)
      done;
      !ok)

let prop_auto_plan_matches =
  qcheck ~count:100 "auto plan picks a correct mode"
    QCheck2.Gen.(tup2 small_chain_gen (int_range 0 1_000_000))
    (fun ((c, k), seed) ->
      let incr = Incr.create c in
      let rng = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 3 do
        (match Incr.apply incr (random_batch rng incr) with
        | Ok () -> ()
        | Error _ -> ());
        match (Incr.resolve incr ~k, BH.solve (Incr.chain incr) ~k) with
        | Ok (sol, _), Ok expect -> if sol <> expect then ok := false
        | Error e, Error e' -> if e <> e' then ok := false
        | _ -> ok := false
      done;
      !ok)

let prop_primes_match =
  qcheck ~count:150 "repaired primes == rediscovered primes"
    QCheck2.Gen.(tup2 small_chain_gen (int_range 0 1_000_000))
    (fun ((c, k), seed) ->
      let incr = Incr.create c in
      let rng = Rng.create seed in
      (match Incr.apply incr (random_batch rng incr) with
      | Ok () -> ()
      | Error _ -> ());
      match
        ( Incr.prime_ranges ~plan:Incr.Prefer_incremental incr ~k,
          BH.prime_ranges (Incr.chain incr) ~k )
      with
      | Ok a, Ok b -> a = b
      | Error e, Error e' -> e = e'
      | _ -> false)

let test_known_repair () =
  (* 4,4,4,4 at K=7 has primes on every adjacent pair.  Bumping v1 to 5
     keeps the structure; dropping v3 to 1 dissolves the right prime. *)
  let c = Chain.of_lists [ 4; 4; 4; 4 ] [ 1; 1; 1 ] in
  let incr = Incr.create c in
  check_matches_scratch ~msg:"initial" incr ~k:7 ~plan:Incr.Prefer_incremental;
  (match Incr.apply incr [ Incr.Vertex (1, 1) ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check_matches_scratch ~msg:"bump v1" incr ~k:7 ~plan:Incr.Prefer_incremental;
  (match Incr.apply incr [ Incr.Vertex (3, -3) ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check_matches_scratch ~msg:"drop v3" incr ~k:7 ~plan:Incr.Prefer_incremental

let test_edge_deltas_reroute_cut () =
  (* 4,4,4 at K=8: one prime spanning edges {0,1}, hittable by either
     edge.  Inflating the currently chosen edge must reroute the cut to
     the other one — purely an edge-delta effect (primes unchanged). *)
  let c = Chain.of_lists [ 4; 4; 4 ] [ 5; 7 ] in
  let incr = Incr.create c in
  (match Incr.resolve ~plan:Incr.Prefer_incremental incr ~k:8 with
  | Ok (sol, _) ->
      Alcotest.check cut_testable "initial cut" [ 0 ] sol.BH.cut;
      check_int "initial weight" 5 sol.BH.weight
  | Error _ -> Alcotest.fail "unexpected infeasibility");
  (match Incr.apply incr [ Incr.Edge (0, 50) ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Incr.resolve ~plan:Incr.Prefer_incremental incr ~k:8 with
  | Ok (sol, _) ->
      Alcotest.check cut_testable "rerouted cut" [ 1 ] sol.BH.cut;
      check_int "rerouted weight" 7 sol.BH.weight
  | Error _ -> Alcotest.fail "unexpected infeasibility");
  check_matches_scratch ~msg:"edge 0 heavy" incr ~k:8
    ~plan:Incr.Prefer_incremental

let test_infeasible_first_offender () =
  let c = Chain.of_lists [ 2; 3; 2 ] [ 1; 1 ] in
  let incr = Incr.create c in
  (match Incr.apply incr [ Incr.Vertex (1, 20); Incr.Vertex (2, 20) ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  match Incr.resolve incr ~k:10 with
  | Error { Infeasible.vertex = 1; weight = 23; bound = 10 } -> ()
  | Error e -> Alcotest.failf "wrong offender: %s" (Infeasible.to_string e)
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_rejected_batch_atomic () =
  let c = Chain.of_lists [ 4; 4; 4; 4 ] [ 1; 1; 1 ] in
  let incr = Incr.create c in
  let before =
    match Incr.resolve incr ~k:7 with
    | Ok (sol, _) -> sol
    | Error _ -> Alcotest.fail "unexpected infeasibility"
  in
  (* Second delta drives v2 nonpositive: the whole batch must roll
     back, including the already-applied first delta. *)
  (match Incr.apply incr [ Incr.Vertex (0, 2); Incr.Vertex (2, -9) ] with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error _ -> ());
  check_int "total weight unchanged" 16 (Incr.total_weight incr);
  (match Incr.apply incr [ Incr.Vertex (0, 1); Incr.Edge (9, 1) ] with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error _ -> ());
  (match Incr.resolve ~plan:Incr.Prefer_incremental incr ~k:7 with
  | Ok (sol, _) ->
      Alcotest.check cut_testable "solution unchanged" before.BH.cut
        sol.BH.cut
  | Error _ -> Alcotest.fail "unexpected infeasibility");
  check_matches_scratch ~msg:"after rollbacks" incr ~k:7
    ~plan:Incr.Prefer_incremental

let test_log_wrap_falls_back () =
  (* Hammer one vertex past the log capacity (64 for small chains): the
     generation bumps, the next resolve must take the Full path and
     still agree with scratch. *)
  let c = Chain.of_lists [ 4; 4; 4; 4 ] [ 1; 1; 1 ] in
  let incr = Incr.create c in
  (match Incr.resolve incr ~k:7 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unexpected infeasibility");
  for _ = 1 to 70 do
    match Incr.apply incr [ Incr.Vertex (1, 1); Incr.Vertex (1, -1) ] with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  done;
  (match Incr.resolve ~plan:Incr.Prefer_incremental incr ~k:7 with
  | Ok (_, Incr.Full) -> ()
  | Ok (_, Incr.Incremental) ->
      Alcotest.fail "expected Full after log wrap"
  | Error _ -> Alcotest.fail "unexpected infeasibility");
  check_matches_scratch ~msg:"post-wrap" incr ~k:7
    ~plan:Incr.Prefer_incremental

(* Heavy spikes every 100 vertices dwarf the base weights, so segment
   ends stall at spikes: the prime count collapses to about n / 100 and
   update windows stay a few segments wide, the regime the paper's p-
   and q-dependent bound targets. *)
let spiky_chain n =
  let alpha = Array.init n (fun i -> if i mod 100 = 99 then 5_000 else 1) in
  let beta = Array.init (n - 1) (fun i -> 1 + (i * 7 mod 97)) in
  Chain.make ~alpha ~beta

(* Uniform weights in 1..20: the figure-2 shape, with primes on most
   vertices and groups a few edges long. *)
let uniform_chain n =
  let rng = Rng.create 17 in
  let alpha = Array.init n (fun _ -> 1 + Rng.int rng 20) in
  let beta = Array.init (n - 1) (fun _ -> 1 + Rng.int rng 20) in
  Chain.make ~alpha ~beta

let test_large_spiky_goes_incremental () =
  (* A large chain with periodic heavy vertices keeps the prime count
     and window spans far below n, so Auto must choose the incremental
     plan after a small drift batch — and still match scratch. *)
  let incr = Incr.create (spiky_chain 50_000) in
  let k = 20_000 in
  (match Incr.resolve incr ~k with
  | Ok (_, Incr.Full) -> ()
  | Ok (_, Incr.Incremental) -> Alcotest.fail "first resolve must rescan"
  | Error _ -> Alcotest.fail "unexpected infeasibility");
  (match
     Incr.apply incr
       [ Incr.Vertex (777, 3); Incr.Vertex (12_399, -400); Incr.Edge (40, 9) ]
   with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  (match Incr.resolve incr ~k with
  | Ok (_, Incr.Incremental) -> ()
  | Ok (_, Incr.Full) -> Alcotest.fail "expected the incremental plan"
  | Error _ -> Alcotest.fail "unexpected infeasibility");
  check_matches_scratch ~msg:"large spiky" incr ~k ~plan:Incr.Auto

(* Auto prices only the prime rebuild: on the figure-2 shape (about
   0.7 n primes) a small batch is repaired, since both plans pay the
   same group stream and DP, while a batch whose windows cover a large
   share of the chain is rescanned. *)
let test_auto_prices_the_rebuild () =
  let incr = Incr.create (uniform_chain 50_000) in
  let k = 300 in
  let resolve_mode () =
    match Incr.resolve incr ~k with
    | Ok (_, mode) -> mode
    | Error _ -> Alcotest.fail "unexpected infeasibility"
  in
  ignore (resolve_mode ());
  (match Incr.apply incr [ Incr.Vertex (123, 1); Incr.Vertex (45_678, 2) ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check_bool "small batch repairs" true (resolve_mode () = Incr.Incremental);
  check_matches_scratch ~msg:"uniform repaired" incr ~k ~plan:Incr.Auto;
  (match Incr.apply incr (List.init 500 (fun i -> Incr.Vertex (i * 97, 1))) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check_bool "wide batch rescans" true (resolve_mode () = Incr.Full);
  check_matches_scratch ~msg:"uniform rescanned" incr ~k ~plan:Incr.Auto

let test_component_weights_match () =
  let c = Chain.of_lists [ 4; 4; 4; 4; 4 ] [ 1; 2; 3; 4 ] in
  let incr = Incr.create c in
  (match Incr.apply incr [ Incr.Vertex (2, 5) ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let cut = [ 1; 3 ] in
  Alcotest.(check (list int))
    "component weights via Fenwick"
    (Chain.component_weights (Incr.chain incr) cut)
    (Incr.component_weights incr cut)

(* The group-representative lookup against a naive leftmost-minimum
   scan.  Three weight palettes, picked per case: 1..3 makes ties
   common, so a lookup that returns any minimum but the leftmost fails;
   [max_int - 2 .. max_int] puts the ties at the top of the int range;
   all [max_int] makes every range, long ones included, a single tie.
   Lengths mix single elements, the full range, exactly [scan_max] and
   one more (the two sides of the scan/tree cut-over), interleaved with
   point updates. *)
let prop_leftmost_min =
  qcheck ~count:200 "min-tree leftmost minimum == naive scan"
    QCheck2.Gen.(pair (int_range 1 300) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let weight =
        match seed mod 3 with
        | 0 -> fun () -> 1 + Rng.int rng 3
        | 1 -> fun () -> max_int - Rng.int rng 3
        | _ -> fun () -> max_int
      in
      let w = Array.init n (fun _ -> weight ()) in
      let t = Min_tree.create w in
      let naive l r =
        let best = ref l in
        for j = l + 1 to r - 1 do
          if w.(j) < w.(!best) then best := j
        done;
        !best
      in
      let ok = ref true in
      for _ = 1 to 80 do
        if Rng.int rng 3 = 0 then begin
          let i = Rng.int rng n and v = weight () in
          w.(i) <- v;
          Min_tree.set t i v
        end
        else begin
          let len =
            match Rng.int rng 5 with
            | 0 -> 1
            | 1 -> n
            | 2 -> Min_tree.scan_max
            | 3 -> Min_tree.scan_max + 1
            | _ -> 1 + Rng.int rng n
          in
          let len = Stdlib.min len n in
          let l = Rng.int rng (n - len + 1) in
          if Min_tree.leftmost_min t l (l + len) <> naive l (l + len) then
            ok := false
        end
      done;
      !ok)

(* Edge weights of [max_int] are valid input.  On the spiky shape the
   groups are about 100 edges long, so the representative lookup takes
   the tree path over ranges that are a single [max_int] tie; both plans
   must still answer, and answer as the one-shot solver does. *)
let test_max_int_edge_weights () =
  let n = 2_000 in
  let alpha = Array.init n (fun i -> if i mod 100 = 99 then 5_000 else 1) in
  let beta = Array.make (n - 1) max_int in
  let incr = Incr.create (Chain.make ~alpha ~beta) in
  List.iter
    (fun plan ->
      check_matches_scratch ~msg:"all max_int" incr ~k:20_000 ~plan;
      (match Incr.apply incr [ Incr.Vertex (777, 3); Incr.Edge (40, -1) ] with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      check_matches_scratch ~msg:"max_int after deltas" incr ~k:20_000 ~plan)
    [ Incr.Prefer_incremental; Incr.Force_full ]

(* A resolve allocates its answer and nothing in proportion to n or p:
   the cut list (3 words per edge) plus a constant for the solution and
   stats records, the result boxes, the DP's closures and the sorted
   copy of a few pending updates.  Measured through an [Active] sink,
   as the server resolves. *)
let test_resolve_alloc_budget () =
  let n = 50_000 in
  List.iter
    (fun (shape, c, k) ->
      List.iter
        (fun (plan, want) ->
          let incr = Incr.create c in
          let ws = BH.Workspace.create n in
          let metrics = Metrics.create () in
          (match Incr.resolve ~metrics ~workspace:ws incr ~k with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "unexpected infeasibility");
          (match
             Incr.apply incr
               [
                 Incr.Vertex (777, 1);
                 Incr.Vertex (30_001, 1);
                 Incr.Edge (40, 2);
               ]
           with
          | Ok () -> ()
          | Error msg -> Alcotest.fail msg);
          let w0 = Gc.minor_words () in
          let result = Incr.resolve ~metrics ~plan ~workspace:ws incr ~k in
          let words = Gc.minor_words () -. w0 in
          match result with
          | Ok (sol, mode) ->
              check_bool (shape ^ ": plan ran") true (mode = want);
              let budget = (3 * List.length sol.BH.cut) + 256 in
              check_bool
                (Printf.sprintf "%s: %.0f words within %d" shape words budget)
                true
                (words <= float_of_int budget)
          | Error _ -> Alcotest.fail "unexpected infeasibility")
        [
          (Incr.Prefer_incremental, Incr.Incremental);
          (Incr.Force_full, Incr.Full);
        ])
    [ ("spiky", spiky_chain n, 20_000); ("uniform", uniform_chain n, 300) ]

(* The solver adds its counters once per solve; they must equal the
   stats it returns, and a zero total must leave its counter absent
   (the stats transcripts in PROTOCOL.md print what is present). *)
let test_counter_parity () =
  let present m name = List.mem_assoc name (Metrics.counters m) in
  let c = uniform_chain 3_000 in
  List.iter
    (fun search ->
      let m = Metrics.create () in
      match BH.solve ~metrics:m ~search c ~k:300 with
      | Ok sol ->
          check_bool "steps taken" true (sol.BH.stats.search_steps > 0);
          check_int "hitting_groups = r" sol.BH.stats.r
            (Metrics.get m "hitting_groups");
          check_int "hitting_search_steps = search_steps"
            sol.BH.stats.search_steps
            (Metrics.get m "hitting_search_steps")
      | Error _ -> Alcotest.fail "unexpected infeasibility")
    [ BH.Binary; BH.Galloping ];
  List.iter
    (fun search ->
      (* One prime: one group, no search step. *)
      let m = Metrics.create () in
      ignore (BH.solve ~metrics:m ~search (Chain.of_lists [ 4; 4 ] [ 1 ]) ~k:7);
      check_int "one group" 1 (Metrics.get m "hitting_groups");
      check_bool "zero steps absent" false (present m "hitting_search_steps");
      (* No prime at all: neither counter appears. *)
      let m = Metrics.create () in
      ignore (BH.solve ~metrics:m ~search (Chain.of_lists [ 1; 1 ] [ 1 ]) ~k:7);
      check_bool "zero groups absent" false (present m "hitting_groups");
      check_bool "zero steps absent" false (present m "hitting_search_steps"))
    [ BH.Binary; BH.Galloping ];
  let m = Metrics.create () in
  let incr = Incr.create c in
  let groups = ref 0 and steps = ref 0 and full = ref 0 and inc = ref 0 in
  List.iter
    (fun (plan, deltas) ->
      (match Incr.apply incr deltas with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      match Incr.resolve ~metrics:m ~plan incr ~k:300 with
      | Ok (sol, mode) ->
          groups := !groups + sol.BH.stats.r;
          steps := !steps + sol.BH.stats.search_steps;
          if mode = Incr.Full then Stdlib.incr full else Stdlib.incr inc
      | Error _ -> Alcotest.fail "unexpected infeasibility")
    [
      (Incr.Auto, []);
      (Incr.Auto, [ Incr.Vertex (5, 1) ]);
      (Incr.Prefer_incremental, [ Incr.Edge (9, 1) ]);
      (Incr.Force_full, [ Incr.Vertex (1_000, -1) ]);
      (Incr.Auto, [ Incr.Vertex (2_000, 2) ]);
    ];
  check_int "resolve_full tally" !full (Metrics.get m "resolve_full");
  check_int "resolve_incremental tally" !inc
    (Metrics.get m "resolve_incremental");
  check_bool "both plans ran" true (!full >= 2 && !inc >= 2);
  check_int "session hitting_groups" !groups (Metrics.get m "hitting_groups");
  check_int "session hitting_search_steps" !steps
    (Metrics.get m "hitting_search_steps")

(* Session resolves under weight drift, timed in process on the two
   session shapes perfbench's drift_rounds serves (PROTOCOL.md section
   9).  Three replicas of one n=50000 chain take the same 30 rounds of
   three +1 vertex deltas: one resolves under Auto, one under
   [Force_full], and one is materialized and solved from scratch by
   [BH.solve], as a session-less server would.  Answers must agree in
   every round.  On the spiky shape (a heavy vertex every 100, so few
   primes) Auto repairs every round and beats the forced rescan; on
   both shapes its p50 beats the from-scratch solve. *)
let drift_rounds ~name chain ~k =
  let n = Chain.n chain and rounds = 30 in
  let auto = Incr.create chain and full = Incr.create chain in
  let workspace = BH.Workspace.create n in
  (* Warm the per-K state: rounds time repairs, not the first scan. *)
  (match Incr.resolve ~workspace auto ~k with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail (name ^ ": warmup infeasible"));
  let rng = Rng.create 5 in
  let timed f =
    let t0 = Tlp_util.Timer.now () in
    let x = f () in
    (x, Tlp_util.Timer.now () -. t0)
  in
  let auto_s = Array.make rounds 0.0 and full_s = Array.make rounds 0.0 in
  let scratch_s = Array.make rounds 0.0 and repaired = ref 0 in
  for round = 0 to rounds - 1 do
    let deltas =
      List.init 3 (fun _ -> Incr.Vertex (1 + Rng.int rng (n - 1), 1))
    in
    (match (Incr.apply auto deltas, Incr.apply full deltas) with
    | Ok (), Ok () -> ()
    | _ -> Alcotest.fail (name ^ ": delta batch rejected"));
    let auto_r, ta = timed (fun () -> Incr.resolve ~workspace auto ~k) in
    let full_r, tf =
      timed (fun () -> Incr.resolve ~plan:Incr.Force_full ~workspace full ~k)
    in
    let scratch_r, ts =
      timed (fun () -> BH.solve ~workspace (Incr.chain full) ~k)
    in
    auto_s.(round) <- ta;
    full_s.(round) <- tf;
    scratch_s.(round) <- ts;
    match (auto_r, full_r, scratch_r) with
    | Ok (a, mode), Ok (f, _), Ok sc ->
        if mode = Incr.Incremental then incr repaired;
        check_bool (name ^ ": answers agree") true (a = sc && f = sc)
    | _ -> Alcotest.fail (name ^ ": resolve infeasible")
  done;
  let p50 times =
    let sorted = Array.copy times in
    Array.sort Float.compare sorted;
    sorted.(rounds / 2)
  in
  let auto_p50 = p50 auto_s and scratch_p50 = p50 scratch_s in
  check_bool
    (Printf.sprintf "%s: 0 < auto p50 %.3fms < from-scratch p50 %.3fms"
       name (auto_p50 *. 1e3) (scratch_p50 *. 1e3))
    true
    (0.0 < auto_p50 && auto_p50 < scratch_p50);
  (rounds, !repaired, auto_p50, p50 full_s)

let test_drift_resolves () =
  let n = 50_000 in
  let spiky =
    Chain.make
      ~alpha:(Array.init n (fun i -> if i mod 100 = 0 then 5_000 else 1))
      ~beta:(Array.make (n - 1) 1)
  in
  let rounds, repaired, auto_p50, full_p50 =
    drift_rounds ~name:"spiky" spiky ~k:20_000
  in
  check_int "spiky: Auto repairs every round" rounds repaired;
  check_bool
    (Printf.sprintf "spiky: auto p50 %.3fms < force-full p50 %.3fms"
       (auto_p50 *. 1e3) (full_p50 *. 1e3))
    true (auto_p50 < full_p50);
  let figure2 = Tlp_graph.Chain_gen.figure2 (Rng.create 7) ~n ~max_weight:20 in
  ignore (drift_rounds ~name:"figure2" figure2 ~k:300)

let suite =
  [
    Alcotest.test_case "known repair" `Quick test_known_repair;
    Alcotest.test_case "edge deltas reroute cut" `Quick
      test_edge_deltas_reroute_cut;
    Alcotest.test_case "infeasible first offender" `Quick
      test_infeasible_first_offender;
    Alcotest.test_case "rejected batch is atomic" `Quick
      test_rejected_batch_atomic;
    Alcotest.test_case "log wrap falls back to full" `Quick
      test_log_wrap_falls_back;
    Alcotest.test_case "large spiky instance goes incremental" `Quick
      test_large_spiky_goes_incremental;
    Alcotest.test_case "auto plan prices the prime rebuild" `Quick
      test_auto_prices_the_rebuild;
    Alcotest.test_case "component weights match" `Quick
      test_component_weights_match;
    Alcotest.test_case "resolve allocation budget" `Quick
      test_resolve_alloc_budget;
    Alcotest.test_case "solver counters match stats" `Quick
      test_counter_parity;
    Alcotest.test_case "max_int edge weights" `Quick
      test_max_int_edge_weights;
    Alcotest.test_case "drift: Auto beats rescan and scratch" `Quick
      test_drift_resolves;
    prop_leftmost_min;
    prop_differential;
    prop_auto_plan_matches;
    prop_primes_match;
  ]
