type t = { alpha : int array; beta : int array }

(* Plain loops, not [Array.iter] closures: a decoded n=20000 instance
   is validated once per request on the serve path. *)
let of_owned ~alpha ~beta =
  let n = Array.length alpha in
  if n = 0 then invalid_arg "Chain.make: empty chain";
  if Array.length beta <> n - 1 then
    invalid_arg "Chain.make: need exactly n-1 edge weights";
  for i = 0 to n - 1 do
    if alpha.(i) <= 0 then
      invalid_arg "Chain.make: vertex weights must be positive"
  done;
  for i = 0 to n - 2 do
    if beta.(i) <= 0 then invalid_arg "Chain.make: edge weights must be positive"
  done;
  { alpha; beta }

let make ~alpha ~beta =
  of_owned ~alpha:(Array.copy alpha) ~beta:(Array.copy beta)

let of_lists alphas betas =
  of_owned ~alpha:(Array.of_list alphas) ~beta:(Array.of_list betas)

let n c = Array.length c.alpha

let n_edges c = Array.length c.beta

let total_weight c = Array.fold_left ( + ) 0 c.alpha

let max_alpha c = Array.fold_left Stdlib.max c.alpha.(0) c.alpha

let prefix_sums c =
  let n = n c in
  let p = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    p.(i + 1) <- p.(i) + c.alpha.(i)
  done;
  p

let segment_weight c i j =
  if i < 0 || j >= n c || i > j then invalid_arg "Chain.segment_weight: bad range";
  let acc = ref 0 in
  for k = i to j do
    acc := !acc + c.alpha.(k)
  done;
  !acc

type cut = int list

let is_valid_cut c cut =
  let m = n_edges c in
  let rec check prev = function
    | [] -> true
    | e :: rest -> e > prev && e < m && check e rest
  in
  check (-1) cut

let cut_weight c cut = List.fold_left (fun acc e -> acc + c.beta.(e)) 0 cut

let max_cut_edge c cut = List.fold_left (fun acc e -> Stdlib.max acc c.beta.(e)) 0 cut

let components c cut =
  let last = n c - 1 in
  let rec go start = function
    | [] -> [ (start, last) ]
    | e :: rest -> (start, e) :: go (e + 1) rest
  in
  go 0 cut

let assignment c cut =
  let a = Array.make (n c) 0 in
  List.iteri
    (fun b (lo, hi) -> Array.fill a lo (hi - lo + 1) b)
    (components c cut);
  a

let component_weights c cut =
  List.map (fun (i, j) -> segment_weight c i j) (components c cut)

let is_feasible c ~k cut =
  is_valid_cut c cut
  && List.for_all (fun w -> w <= k) (component_weights c cut)

let reverse c =
  let n = n c in
  {
    alpha = Array.init n (fun i -> c.alpha.(n - 1 - i));
    beta = Array.init (n - 1) (fun i -> c.beta.(n - 2 - i));
  }

let sub c i j =
  if i < 0 || j >= n c || i > j then invalid_arg "Chain.sub: bad range";
  {
    alpha = Array.sub c.alpha i (j - i + 1);
    beta = (if i = j then [||] else Array.sub c.beta i (j - i));
  }

let pp ppf c =
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun i a ->
      if i > 0 then Format.fprintf ppf " -%d- " c.beta.(i - 1);
      Format.fprintf ppf "[%d]" a)
    c.alpha;
  Format.fprintf ppf "@]"
