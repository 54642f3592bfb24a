(* Shared generators and Alcotest/QCheck glue for the test suites. *)

module Rng = Tlp_util.Rng
module Chain = Tlp_graph.Chain
module Tree = Tlp_graph.Tree
module Weights = Tlp_graph.Weights

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* QCheck2 generator for a small random chain together with a bound K
   chosen to land in interesting regimes (from "everything fits" to
   "barely above max vertex weight"). *)
let small_chain_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 12 in
  let* alpha = array_size (return n) (int_range 1 20) in
  let* beta = array_size (return (n - 1)) (int_range 1 30) in
  let total = Array.fold_left ( + ) 0 alpha in
  let maxa = Array.fold_left Stdlib.max 1 alpha in
  let* k = int_range maxa (Stdlib.max maxa total) in
  return (Chain.make ~alpha ~beta, k)

let chain_print (c, k) =
  Format.asprintf "%a K=%d" Chain.pp c k

(* Random small tree via random attachment, with an interesting K. *)
let small_tree_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 10 in
  let* weights = array_size (return n) (int_range 1 20) in
  let* deltas = array_size (return (n - 1)) (int_range 1 30) in
  let* parents_raw = array_size (return (n - 1)) (int_range 0 1000) in
  let parents =
    Array.mapi (fun i p -> (p mod (i + 1), deltas.(i))) parents_raw
  in
  let t = Tree.of_parents ~weights ~parents in
  let total = Array.fold_left ( + ) 0 weights in
  let maxw = Array.fold_left Stdlib.max 1 weights in
  let* k = int_range maxw (Stdlib.max maxw total) in
  return (t, k)

let tree_print (t, k) = Format.asprintf "%a K=%d" Tree.pp t k

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cut_testable = Alcotest.(list int)

(* A client that sends all its pipelined requests before reading any
   reply must still get every answer, from the daemon listening on
   [port]: 50 sweeps of one n=20000 chain, padded with JSON whitespace
   to about 8 MB in all, whose replies (about 45 MB) far exceed the
   socket buffers.  [prime] sends one request line on its own
   connection and returns the reply line; every pipelined reply must
   replay those bytes.  After 30 s with requests still unsent the test
   fails, unblocking both sides first so the daemon can drain. *)
let check_pipelined_sweeps ~port ~prime =
  let module Io = Tlp_graph.Instance_io in
  let chain =
    Tlp_graph.Chain_gen.figure2 (Rng.create 7) ~n:20_000 ~max_weight:20
  in
  let line =
    Printf.sprintf
      {|{"id":1,%s"method":"sweep","params":{"instance":%s,"k_values":[%s]}}|}
      (String.make 60_000 ' ')
      (Tlp_util.Json_out.to_string
         (Tlp_util.Json_out.String (Io.to_string (Io.Chain_instance chain))))
      (String.concat "," (List.init 64 (fun i -> string_of_int (40 + (3 * i)))))
  in
  let primed = prime line in
  let repeats = 50 in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  let sent = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        let bytes =
          Bytes.of_string
            (String.concat "" (List.init repeats (fun _ -> line ^ "\n")))
        in
        let n = Bytes.length bytes in
        let written = ref 0 in
        try
          while !written < n do
            written := !written + Unix.write fd bytes !written (n - !written)
          done;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          Atomic.set sent true
        with Unix.Unix_error _ -> ())
      ()
  in
  let give_up = Unix.gettimeofday () +. 30.0 in
  while (not (Atomic.get sent)) && Unix.gettimeofday () < give_up do
    Thread.delay 0.02
  done;
  if not (Atomic.get sent) then begin
    Unix.shutdown fd Unix.SHUTDOWN_ALL;
    Thread.join writer;
    Unix.close fd;
    Alcotest.fail "requests still unsent after 30 s: the daemon stopped reading"
  end;
  Thread.join writer;
  let ic = Unix.in_channel_of_descr fd in
  let rec count ok n =
    match input_line ic with
    | l -> count (ok && String.equal l primed) (n + 1)
    | exception End_of_file -> (ok, n)
  in
  let same, answered = count true 0 in
  Unix.close fd;
  check_int "every pipelined request answered" repeats answered;
  check_bool "each reply replays the primed bytes" true same
