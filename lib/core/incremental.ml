module Chain = Tlp_graph.Chain
module Metrics = Tlp_util.Metrics

(* Fenwick tree over the vertex weights, 1-indexed internally.  Gives
   O(log n) prefix sums, point adds, and — because weights are positive,
   so prefixes are strictly increasing — an O(log n) lower_bound by
   bitmask descent. *)
module Fenwick = struct
  type t = { tree : int array; n : int; highbit : int }

  let create n =
    let highbit = ref 1 in
    while !highbit * 2 <= n do
      highbit := !highbit * 2
    done;
    { tree = Array.make (n + 1) 0; n; highbit = !highbit }

  let add t i delta =
    let i = ref (i + 1) in
    while !i <= t.n do
      t.tree.(!i) <- t.tree.(!i) + delta;
      i := !i + (!i land - !i)
    done

  (* Sum of elements [0, i). *)
  let prefix t i =
    let s = ref 0 and i = ref i in
    while !i > 0 do
      s := !s + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !s

  (* Smallest i in [0, n] with [prefix t i >= x]; [n + 1] when even the
     full sum falls short. *)
  let lower_bound t x =
    if x <= 0 then 0
    else begin
      let pos = ref 0 and rem = ref x in
      let bit = ref t.highbit in
      while !bit > 0 do
        let next = !pos + !bit in
        if next <= t.n && t.tree.(next) < !rem then begin
          pos := next;
          rem := !rem - t.tree.(next)
        end;
        bit := !bit / 2
      done;
      if !pos >= t.n then t.n + 1 else !pos + 1
    end
end

(* Max segment tree over the vertex weights: point set plus "leftmost
   vertex exceeding k", reproducing Infeasible.check_weights'
   first-offender answer in O(log n). *)
module Max_tree = struct
  type t = { tree : int array; size : int }

  let create weights =
    let n = Array.length weights in
    let size = ref 1 in
    while !size < n do
      size := !size * 2
    done;
    let size = !size in
    let tree = Array.make (2 * size) 0 in
    Array.blit weights 0 tree size n;
    for i = size - 1 downto 1 do
      tree.(i) <- Stdlib.max tree.(2 * i) tree.((2 * i) + 1)
    done;
    { tree; size }

  let set t i v =
    let i = ref (t.size + i) in
    t.tree.(!i) <- v;
    i := !i / 2;
    while !i >= 1 do
      t.tree.(!i) <- Stdlib.max t.tree.(2 * !i) t.tree.((2 * !i) + 1);
      i := !i / 2
    done

  (* Leftmost index with weight > k, or -1 when all fit.  The padding
     leaves hold 0, which never exceeds a bound k >= 0. *)
  let first_exceeding t k =
    if t.tree.(1) <= k then -1
    else begin
      let i = ref 1 in
      while !i < t.size do
        i := if t.tree.(2 * !i) > k then 2 * !i else (2 * !i) + 1
      done;
      !i - t.size
    end
end

(* Min segment tree over the edge weights.  Leaves hold the weights
   themselves, so a short range is scanned straight off them and only a
   long one climbs the tree. *)
module Min_tree = struct
  type t = { value : int array; size : int }

  (* Ranges up to this many edges are scanned leaf by leaf; longer ones
     take the bottom-up query plus its descent, at most 3 log2 size node
     visits.  Measured on n = 50000 in the dev profile (2-vCPU x86-64
     guest), the two cost the same at 30-40 edges: about 85 ns at 32
     edges with weights in 1..3, 100 ns at 40 with weights in 1..20.
     Groups in the drift shapes sit far on either side (uniform
     weights: a few edges; spiky: about 100). *)
  let scan_max = 32

  let create weights =
    let n = Array.length weights in
    let size = ref 1 in
    while !size < n do
      size := !size * 2
    done;
    let size = !size in
    let value = Array.make (2 * size) max_int in
    Array.blit weights 0 value size n;
    for i = size - 1 downto 1 do
      value.(i) <- Stdlib.min value.(2 * i) value.((2 * i) + 1)
    done;
    { value; size }

  let set t i v =
    let j = ref (t.size + i) in
    t.value.(!j) <- v;
    j := !j / 2;
    while !j >= 1 do
      t.value.(!j) <- Stdlib.min t.value.(2 * !j) t.value.((2 * !j) + 1);
      j := !j / 2
    done

  (* Index of the leftmost minimum over the half-open range [l, r),
     l < r: the edge the solver's left-to-right strict-< scan picks.
     The bottom-up walk meets the left-boundary nodes in ascending
     position (keep the first strict minimum) and the right-boundary
     ones in descending position (keep the last non-strict one); the
     left side wins ties.  -1 marks a side with no node yet, so a range
     of [max_int] weights still picks a real node (l < r sets at least
     one side).  The descent then takes the left child whenever it holds
     the minimum.  Allocation-free. *)
  let leftmost_min t l r =
    let value = t.value and size = t.size in
    if r - l <= scan_max then begin
      let best = ref l in
      for j = l + 1 to r - 1 do
        if value.(size + j) < value.(size + !best) then best := j
      done;
      !best
    end
    else begin
      let lo = ref (l + size) and hi = ref (r + size) in
      let ln = ref (-1) and rn = ref (-1) in
      while !lo < !hi do
        if !lo land 1 = 1 then begin
          if !ln < 0 || value.(!lo) < value.(!ln) then ln := !lo;
          incr lo
        end;
        if !hi land 1 = 1 then begin
          decr hi;
          if !rn < 0 || value.(!hi) <= value.(!rn) then rn := !hi
        end;
        lo := !lo / 2;
        hi := !hi / 2
      done;
      let node =
        ref
          (if !rn < 0 || (!ln >= 0 && value.(!ln) <= value.(!rn)) then !ln
           else !rn)
      in
      let v = value.(!node) in
      while !node < size do
        node := if value.(2 * !node) = v then 2 * !node else (2 * !node) + 1
      done;
      !node - size
    end
end

(* Prime-subpath state for one bound K: the inclusive edge ranges
   [pa, pb] of the primes, plus how much of the owner's alpha-update
   log has been folded in. *)
type kstate = {
  pa : int array;
  pb : int array;
  mutable p : int;
  mutable gen : int;  (** owner generation this state belongs to *)
  mutable log_pos : int;  (** updates [0, log_pos) already folded in *)
  mutable stamp : int;  (** LRU recency *)
}

type mode = Incremental | Full
type plan = Auto | Prefer_incremental | Force_full

type delta = Vertex of int * int | Edge of int * int

type t = {
  n : int;
  alpha : int array;
  beta : int array;
  fen : Fenwick.t;
  amax : Max_tree.t;
  bmin : Min_tree.t;
  log : int array;  (** vertices whose alpha changed, append-only *)
  mutable log_len : int;
  mutable gen : int;  (** bumped when the log wraps; staler states rescan *)
  states : (int, kstate) Hashtbl.t;
  mutable stamp : int;
  merge_pa : int array;  (** repair double-buffer *)
  merge_pb : int array;
  win_lo : int array;
  win_hi : int array;
  log2n : int;  (** cost model: ceil log2 n, at least 1 *)
}

let max_kstates = 4

let create (chain : Chain.t) =
  let n = Chain.n chain in
  let alpha = Array.copy chain.Chain.alpha in
  let beta = Array.copy chain.Chain.beta in
  let fen = Fenwick.create n in
  Array.iteri (fun i w -> Fenwick.add fen i w) alpha;
  let cap = Stdlib.max 64 (n / 4) in
  let log2n =
    let b = ref 1 and m = ref n in
    while !m > 2 do
      incr b;
      m := (!m + 1) / 2
    done;
    !b
  in
  {
    n;
    alpha;
    beta;
    fen;
    amax = Max_tree.create alpha;
    bmin = Min_tree.create beta;
    log = Array.make cap 0;
    log_len = 0;
    gen = 0;
    states = Hashtbl.create 8;
    stamp = 0;
    merge_pa = Array.make n 0;
    merge_pb = Array.make n 0;
    win_lo = Array.make cap 0;
    win_hi = Array.make cap 0;
    log2n;
  }

let n t = t.n
let total_weight t = Fenwick.prefix t.fen t.n

let chain t = Chain.make ~alpha:t.alpha ~beta:t.beta

(* Same component boundaries as Chain.component_weights on the
   materialized chain, but via prefix sums so the incremental path
   never touches O(n) state. *)
let component_weights t cut =
  let total = total_weight t in
  let rec go start = function
    | [] -> [ total - Fenwick.prefix t.fen start ]
    | e :: rest ->
        (Fenwick.prefix t.fen (e + 1) - Fenwick.prefix t.fen start)
        :: go (e + 1) rest
  in
  go 0 cut

let note_alpha t v =
  if t.log_len >= Array.length t.log then begin
    (* Log full: wrap and bump the generation; every held K-state
       becomes stale and will take the full-rescan path once. *)
    t.gen <- t.gen + 1;
    t.log_len <- 0
  end;
  t.log.(t.log_len) <- v;
  t.log_len <- t.log_len + 1

let set_alpha t i v =
  Fenwick.add t.fen i (v - t.alpha.(i));
  t.alpha.(i) <- v;
  Max_tree.set t.amax i v;
  note_alpha t i

let set_beta t j v =
  t.beta.(j) <- v;
  Min_tree.set t.bmin j v

let apply t deltas =
  let rec go applied = function
    | [] -> Ok ()
    | Vertex (i, d) :: rest ->
        if i < 0 || i >= t.n then
          Error
            (applied, Printf.sprintf "vertex %d out of range [0, %d)" i t.n)
        else if t.alpha.(i) + d < 1 then
          Error
            ( applied,
              Printf.sprintf "vertex %d: weight %d%+d must stay positive" i
                t.alpha.(i) d )
        else begin
          set_alpha t i (t.alpha.(i) + d);
          go (Vertex (i, d) :: applied) rest
        end
    | Edge (j, d) :: rest ->
        if j < 0 || j >= t.n - 1 then
          Error
            (applied, Printf.sprintf "edge %d out of range [0, %d)" j (t.n - 1))
        else if t.beta.(j) + d < 1 then
          Error
            ( applied,
              Printf.sprintf "edge %d: weight %d%+d must stay positive" j
                t.beta.(j) d )
        else begin
          set_beta t j (t.beta.(j) + d);
          go (Edge (j, d) :: applied) rest
        end
  in
  match go [] deltas with
  | Ok () -> Ok ()
  | Error (applied, msg) ->
      (* Roll back the applied prefix so a rejected batch is atomic.
         The rollback re-notes the touched vertices, which only makes
         later repairs conservative, never wrong. *)
      List.iter
        (function
          | Vertex (i, d) -> set_alpha t i (t.alpha.(i) - d)
          | Edge (j, d) -> set_beta t j (t.beta.(j) - d))
        applied;
      Error msg

let full_rescan t st ~k =
  st.p <- Bandwidth_hitting.scan_primes t.alpha ~n:t.n ~k ~pa:st.pa ~pb:st.pb

(* Dirty windows of prime starts after the pending alpha updates.  A
   start l is affected by an update at vertex v iff l <= v and
   weight(l..v-1) <= k — that sum excludes alpha(v) itself, so the
   window [lo(v), v] is the same under old and new weights, and any
   start outside every window keeps its prime candidate unchanged.
   Windows are merged when overlapping or adjacent; returns their count
   and total span. *)
let compute_windows t st ~k =
  let u = t.log_len - st.log_pos in
  if u = 0 then (0, 0)
  else begin
    let pending = Array.sub t.log st.log_pos u in
    Array.sort Stdlib.compare pending;
    let nwin = ref 0 and span = ref 0 in
    Array.iter
      (fun v ->
        let lo = Fenwick.lower_bound t.fen (Fenwick.prefix t.fen v - k) in
        if !nwin > 0 && lo <= t.win_hi.(!nwin - 1) + 1 then begin
          if v > t.win_hi.(!nwin - 1) then begin
            span := !span + (v - t.win_hi.(!nwin - 1));
            t.win_hi.(!nwin - 1) <- v
          end
        end
        else begin
          t.win_lo.(!nwin) <- lo;
          t.win_hi.(!nwin) <- v;
          span := !span + (v - lo + 1);
          incr nwin
        end)
      pending;
    (!nwin, !span)
  end

(* Merge the stored primes with freshly recomputed candidates over the
   dirty windows.  Both streams arrive in ascending start order with
   nondecreasing right endpoints, so one dominance pass — same right
   endpoint keeps the larger start, exactly the discovery rule —
   rebuilds the prime array.  Starts strictly left of a window never
   share a right endpoint with in-window starts (their reach stops
   before the updated vertex), so dropped old candidates outside the
   windows can never resurface as primes; see DESIGN.md section 10. *)
let repair t st ~k ~nwin =
  let out = ref 0 in
  let push l b =
    if !out > 0 && t.merge_pb.(!out - 1) = b then t.merge_pa.(!out - 1) <- l
    else begin
      t.merge_pa.(!out) <- l;
      t.merge_pb.(!out) <- b;
      incr out
    end
  in
  let i = ref 0 in
  for w = 0 to nwin - 1 do
    let lo = t.win_lo.(w) and hi = t.win_hi.(w) in
    while !i < st.p && st.pa.(!i) < lo do
      push st.pa.(!i) st.pb.(!i);
      incr i
    done;
    while !i < st.p && st.pa.(!i) <= hi do
      incr i
    done;
    for l = lo to hi do
      let m = Fenwick.lower_bound t.fen (Fenwick.prefix t.fen l + k + 1) in
      if m <= t.n then push l (m - 2)
    done
  done;
  while !i < st.p do
    push st.pa.(!i) st.pb.(!i);
    incr i
  done;
  Array.blit t.merge_pa 0 st.pa 0 !out;
  Array.blit t.merge_pb 0 st.pb 0 !out;
  st.p <- !out

(* Non-redundant edge groups streamed straight off the prime arrays by
   an open/close event sweep.  Coverage (c, d) is constant between
   events and every event changes it, so this emits the identical group
   sequence to the solver's edge scan.  The inter-event ranges [j, j_end)
   are disjoint and run left to right; each representative is the
   range's leftmost minimum, read off the min-tree's leaves when the
   range is short and through the tree when it is long, so a group
   costs O(min(len, log n)) and the sweep allocates nothing. *)
let stream_prime_groups t st emit =
  let p = st.p in
  let pa = st.pa and pb = st.pb in
  let i_a = ref 0 and i_b = ref 0 in
  let j = ref (if p > 0 then pa.(0) else 0) in
  while !i_b < p do
    while !i_a < p && pa.(!i_a) <= !j do
      incr i_a
    done;
    if !i_a = !i_b then j := pa.(!i_a)
    else begin
      let j_end =
        let e = pb.(!i_b) + 1 in
        if !i_a < p && pa.(!i_a) < e then pa.(!i_a) else e
      in
      let rep = Min_tree.leftmost_min t.bmin !j j_end in
      emit ~rep ~beta_g:t.beta.(rep) ~c:!i_b ~d:(!i_a - 1);
      while !i_b < p && pb.(!i_b) < j_end do
        incr i_b
      done;
      j := j_end
    end
  done

let kstate t ~k =
  match Hashtbl.find_opt t.states k with
  | Some st -> st
  | None ->
      if Hashtbl.length t.states >= max_kstates then begin
        let victim : (int * kstate) option ref = ref None in
        Hashtbl.iter
          (fun key (st : kstate) ->
            match !victim with
            | Some (_, best) when best.stamp <= st.stamp -> ()
            | _ -> victim := Some (key, st))
          t.states;
        match !victim with
        | Some (key, _) -> Hashtbl.remove t.states key
        | None -> ()
      end;
      let st =
        {
          pa = Array.make t.n 0;
          pb = Array.make t.n 0;
          p = 0;
          gen = -1;
          log_pos = 0;
          stamp = 0;
        }
      in
      Hashtbl.add t.states k st;
      st

let resolve ?(metrics = Metrics.null) ?(plan = Auto) ?workspace t ~k =
  let offender = Max_tree.first_exceeding t.amax k in
  if offender >= 0 then
    Error
      { Infeasible.vertex = offender; weight = t.alpha.(offender); bound = k }
  else begin
    let st = kstate t ~k in
    t.stamp <- t.stamp + 1;
    st.stamp <- t.stamp;
    let mode =
      if st.gen <> t.gen || plan = Force_full then Full
      else begin
        let nwin, span = compute_windows t st ~k in
        (* Both plans then stream the same groups through the same DP,
           so only the prime rebuild is priced: the repair's two
           Fenwick searches per window start (span x log n) plus its
           merge pass over the kept primes, against the O(n) rescan.
           A sweep over both drift shapes (DESIGN.md section 10) puts
           the measured crossover at or just past this line.
           [Prefer_incremental] skips the estimate (tests force the
           repair path on instances too small to ever win). *)
        if plan = Auto && (span * t.log2n) + st.p >= t.n then Full
        else begin
          Metrics.add metrics "incr_windows" nwin;
          Metrics.add metrics "incr_window_span" span;
          if nwin > 0 then repair t st ~k ~nwin;
          Incremental
        end
      end
    in
    (match mode with
    | Full -> full_rescan t st ~k
    | Incremental -> ());
    st.gen <- t.gen;
    st.log_pos <- t.log_len;
    Metrics.bump metrics
      (match mode with
      | Full -> "resolve_full"
      | Incremental -> "resolve_incremental");
    let ws =
      match workspace with
      | Some ws ->
          Bandwidth_hitting.Workspace.ensure ws t.n;
          ws
      | None -> Bandwidth_hitting.Workspace.create t.n
    in
    let sol =
      Bandwidth_hitting.dp ~metrics ws ~p:st.p ~each_group:(fun emit ->
          stream_prime_groups t st emit)
    in
    Ok (sol, mode)
  end

let prime_ranges ?(plan = Auto) t ~k =
  match resolve ~plan t ~k with
  | Error e -> Error e
  | Ok _ ->
      let st = kstate t ~k in
      Ok (Array.init st.p (fun i -> (st.pa.(i), st.pb.(i))))
