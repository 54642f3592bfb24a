module Chain = Tlp_graph.Chain
module Metrics = Tlp_util.Metrics

type stats = {
  p : int;
  r : int;
  q_mean : float;
  q_max : int;
  temps_mean_len : float;
  temps_max_len : int;
  search_steps : int;
}

type solution = {
  cut : Chain.cut;
  weight : int;
  stats : stats;
}

let empty_stats =
  {
    p = 0;
    r = 0;
    q_mean = 0.0;
    q_max = 0;
    temps_mean_len = 0.0;
    temps_max_len = 0;
    search_steps = 0;
  }

type search = Binary | Galloping

(* All scratch is O(n) int arrays gathered in a reusable workspace, so a
   one-shot solve performs exactly one round of array allocations and a
   K-sweep reusing the workspace performs none at all.  Indices: a chain
   of n vertices has at most n-1 primes (right endpoints are distinct
   edges) and at most p+1 live TEMP_S rows. *)
module Workspace = struct
  type t = {
    mutable cap : int;  (** largest supported [Chain.n] *)
    mutable pa : int array;  (** prime left edge endpoints *)
    mutable pb : int array;  (** prime right edge endpoints *)
    mutable cost : int array;  (** finalized minimum W per prime *)
    mutable ch_edge : int array;  (** chosen representative edge per prime *)
    mutable ch_prev : int array;  (** previous finalized prime, -1 at start *)
    mutable row_l : int array;  (** TEMP_S rows, struct-of-arrays *)
    mutable row_r : int array;
    mutable row_w : int array;
    mutable row_edge : int array;
    mutable row_prev : int array;
  }

  let create cap =
    let cap = Stdlib.max cap 1 in
    {
      cap;
      pa = Array.make cap 0;
      pb = Array.make cap 0;
      cost = Array.make cap 0;
      ch_edge = Array.make cap 0;
      ch_prev = Array.make cap 0;
      row_l = Array.make (cap + 1) 0;
      row_r = Array.make (cap + 1) 0;
      row_w = Array.make (cap + 1) 0;
      row_edge = Array.make (cap + 1) 0;
      row_prev = Array.make (cap + 1) 0;
    }

  let ensure t n =
    if t.cap < n then begin
      t.cap <- n;
      t.pa <- Array.make n 0;
      t.pb <- Array.make n 0;
      t.cost <- Array.make n 0;
      t.ch_edge <- Array.make n 0;
      t.ch_prev <- Array.make n 0;
      t.row_l <- Array.make (n + 1) 0;
      t.row_r <- Array.make (n + 1) 0;
      t.row_w <- Array.make (n + 1) 0;
      t.row_edge <- Array.make (n + 1) 0;
      t.row_prev <- Array.make (n + 1) 0
    end
end

(* Fill [pa]/[pb] with the prime subpaths of [alpha.(0 .. n-1)] at [k]
   (as inclusive edge ranges) and return their count.  Same two-pointer
   computation as [Prime_subpaths.compute] — differentially tested
   against it — but writing into reused buffers with zero allocation.
   Precondition: no single vertex exceeds [k]. *)
let scan_primes alpha ~n ~k ~pa ~pb =
  let np = ref 0 in
  let r = ref 0 in
  let sum = ref 0 in
  (* Invariant: [sum] = weight of vertices [l .. !r - 1]. *)
  for l = 0 to n - 1 do
    while !r < n && !sum <= k do
      sum := !sum + alpha.(!r);
      incr r
    done;
    if !sum > k then begin
      (* Vertex segment [l, !r-1], breakable edges [l, !r-2]. *)
      let b = !r - 2 in
      if !np > 0 && pb.(!np - 1) = b then
        (* Previous candidate shares the right endpoint, hence contains
           this one and is not prime: replace it in place. *)
        pa.(!np - 1) <- l
      else begin
        pa.(!np) <- l;
        pb.(!np) <- b;
        incr np
      end;
      sum := !sum - alpha.(l)
    end
    else if !r > l then sum := !sum - alpha.(l)
  done;
  !np

let scan_primes_ws ws chain ~k =
  scan_primes chain.Chain.alpha ~n:(Chain.n chain) ~k ~pa:ws.Workspace.pa
    ~pb:ws.Workspace.pb

let prime_ranges ?workspace chain ~k =
  match Infeasible.check_chain chain ~k with
  | Error e -> Error e
  | Ok () ->
      let n = Chain.n chain in
      let ws =
        match workspace with
        | Some ws ->
            Workspace.ensure ws n;
            ws
        | None -> Workspace.create n
      in
      let p = scan_primes_ws ws chain ~k in
      Ok (Array.init p (fun i -> (ws.Workspace.pa.(i), ws.Workspace.pb.(i))))

(* The TEMP_S dynamic program over an already-discovered prime set.
   [each_group emit] must call [emit ~rep ~beta_g ~c ~d] once per
   non-redundant edge group in left-to-right order (coverage ranges
   [c, d] with both endpoints nondecreasing); [rep] is the group's
   leftmost cheapest edge and [beta_g] its weight.  Both the one-shot
   solver (streaming groups off the edge array) and the incremental
   session resolver (streaming them off maintained prime state) funnel
   through this single function, which is what makes their answers
   byte-identical.  Only the [cost]/[ch_*]/[row_*] workspace arrays are
   touched — [pa]/[pb] are the caller's business. *)
let dp ?(metrics = Metrics.null) ?(search = Binary) ws ~p ~each_group =
  if p = 0 then { cut = []; weight = 0; stats = empty_stats }
  else begin
    let cost = ws.Workspace.cost in
    let ch_edge = ws.Workspace.ch_edge and ch_prev = ws.Workspace.ch_prev in
    let row_l = ws.Workspace.row_l and row_r = ws.Workspace.row_r in
    let row_w = ws.Workspace.row_w in
    let row_edge = ws.Workspace.row_edge and row_prev = ws.Workspace.row_prev in
    (* TEMP_S rows [top..bottom] are live; a row spans primes
       [row_l, row_r] sharing minimum W-value [row_w], achieved by the
       partial solution (row_edge, solution of prime row_prev). *)
    let top = ref 0 and bottom = ref (-1) in
    let hi = ref (-1) in
    (* max open prime index *)
    let search_steps = ref 0 in
    let len_sum = ref 0 and len_max = ref 0 in
    let n_groups = ref 0 in
    let q_sum = ref 0 and q_max = ref 0 in
    let close_primes_below bound =
      (* Finalize every open prime with index < bound.  They sit at
         the top of TEMP_S with their minimum W-value in the covering
         row. *)
      let continue = ref true in
      while !continue && !top <= !bottom do
        let i = row_l.(!top) in
        if i < bound then begin
          cost.(i) <- row_w.(!top);
          ch_edge.(i) <- row_edge.(!top);
          ch_prev.(i) <- row_prev.(!top);
          row_l.(!top) <- i + 1;
          if row_l.(!top) > row_r.(!top) then incr top
        end
        else continue := false
      done
    in
    let binary_search w_g lo0 hi0 =
      let lo = ref lo0 and hi_s = ref hi0 in
      while !lo < !hi_s do
        incr search_steps;
        let mid = (!lo + !hi_s) / 2 in
        if row_w.(mid) >= w_g then hi_s := mid else lo := mid + 1
      done;
      !lo
    in
    let process_group ~rep ~beta_g ~c ~d =
      incr n_groups;
      let q = d - c + 1 in
      q_sum := !q_sum + q;
      if q > !q_max then q_max := q;
      close_primes_below c;
      let w_g = beta_g + (if c = 0 then 0 else cost.(c - 1)) in
      let prev_g = c - 1 in
      (* Find the first live row with w >= w_g; all rows from there
         to the bottom are superseded by w_g. *)
      let s =
        match search with
        | Binary -> binary_search w_g !top (!bottom + 1)
        | Galloping ->
            (* W-values skew upward, so the superseded suffix is
               usually short: gallop from the bottom row in doubling
               steps until a row survives, then binary-search the
               bracketed window. *)
            if !bottom < !top then !top
            else begin
              incr search_steps;
              if row_w.(!bottom) < w_g then !bottom + 1
              else begin
                (* hi_known: smallest index verified to satisfy
                   w >= w_g; probe walks down in doubling steps. *)
                let hi_known = ref !bottom in
                let step = ref 1 in
                let probe = ref (!bottom - 1) in
                let stop = ref false in
                while (not !stop) && !probe >= !top do
                  incr search_steps;
                  if row_w.(!probe) >= w_g then begin
                    hi_known := !probe;
                    step := !step * 2;
                    probe := !probe - !step
                  end
                  else stop := true
                done;
                (* answer in [probe+1, hi_known]; binary returns
                   hi_known when the half-open range is empty. *)
                binary_search w_g (Stdlib.max !top (!probe + 1)) !hi_known
              end
            end
      in
      if s <= !bottom then begin
        row_r.(s) <- row_r.(!bottom);
        row_w.(s) <- w_g;
        row_edge.(s) <- rep;
        row_prev.(s) <- prev_g;
        bottom := s
      end;
      if d > !hi then begin
        (* Primes !hi+1 .. d open with this group; their window so
           far is only group g, so their minimum W-value is w_g. *)
        if !bottom >= !top && row_w.(!bottom) = w_g then
          row_r.(!bottom) <- d
        else begin
          incr bottom;
          row_l.(!bottom) <- !hi + 1;
          row_r.(!bottom) <- d;
          row_w.(!bottom) <- w_g;
          row_edge.(!bottom) <- rep;
          row_prev.(!bottom) <- prev_g
        end;
        hi := d
      end;
      let len = !bottom - !top + 1 in
      len_sum := !len_sum + len;
      if len > !len_max then len_max := len
    in
    each_group process_group;
    close_primes_below p;
    (* The counters are added once per solve, not bumped per group or
       step: a bump on an [Active] sink is a string hash.  Zero totals
       stay absent from the sink, as they were when nothing bumped. *)
    if !n_groups > 0 then Metrics.add metrics "hitting_groups" !n_groups;
    if !search_steps > 0 then
      Metrics.add metrics "hitting_search_steps" !search_steps;
    (* Recover the optimal cut by following the per-prime choice
       links back from the last prime.  Representative edges strictly
       decrease along the chain, so consing yields the cut already
       sorted ascending. *)
    let cut = ref [] in
    let i = ref (p - 1) in
    while !i >= 0 do
      cut := ch_edge.(!i) :: !cut;
      i := ch_prev.(!i)
    done;
    let r = !n_groups in
    {
      cut = !cut;
      weight = cost.(p - 1);
      stats =
        {
          p;
          r;
          q_mean =
            (if r = 0 then 0.0 else float_of_int !q_sum /. float_of_int r);
          q_max = !q_max;
          temps_mean_len =
            (if r = 0 then 0.0 else float_of_int !len_sum /. float_of_int r);
          temps_max_len = !len_max;
          search_steps = !search_steps;
        };
    }
  end

(* Stream the non-redundant edge groups straight off the prime arrays
   instead of materializing per-edge coverage: edge j is covered by the
   contiguous prime range [ci, di], and runs of equal (ci, di) form one
   group represented by their cheapest edge. *)
let stream_edge_groups ws chain ~p emit =
  let pa = ws.Workspace.pa and pb = ws.Workspace.pb in
  let beta = chain.Chain.beta in
  let n_edges = Chain.n_edges chain in
  let ci = ref 0 and di = ref (-1) in
  let cur_valid = ref false in
  let cur_rep = ref 0 and cur_w = ref 0 in
  let cur_c = ref 0 and cur_d = ref 0 in
  let flush () =
    if !cur_valid then begin
      emit ~rep:!cur_rep ~beta_g:!cur_w ~c:!cur_c ~d:!cur_d;
      cur_valid := false
    end
  in
  for j = 0 to n_edges - 1 do
    while !ci < p && pb.(!ci) < j do
      incr ci
    done;
    while !di + 1 < p && pa.(!di + 1) <= j do
      incr di
    done;
    if !ci < p && !ci <= !di then
      if !cur_valid && !cur_c = !ci && !cur_d = !di then begin
        if beta.(j) < !cur_w then begin
          cur_rep := j;
          cur_w := beta.(j)
        end
      end
      else begin
        flush ();
        cur_rep := j;
        cur_w := beta.(j);
        cur_c := !ci;
        cur_d := !di;
        cur_valid := true
      end
    else flush ()
  done;
  flush ()

let solve ?(metrics = Metrics.null) ?(search = Binary) ?workspace chain ~k =
  match Infeasible.check_chain chain ~k with
  | Error e -> Error e
  | Ok () ->
      let n = Chain.n chain in
      let ws =
        match workspace with
        | Some ws ->
            Workspace.ensure ws n;
            ws
        | None -> Workspace.create n
      in
      Metrics.add metrics "prime_scan_vertices" n;
      let p = scan_primes_ws ws chain ~k in
      Metrics.add metrics "primes_found" p;
      Ok
        (dp ~metrics ~search ws ~p
           ~each_group:(fun emit -> stream_edge_groups ws chain ~p emit))
