(* tlp_util: rng, minheap, texttab, csv, timer.  The metrics
   subsystem has its own suite in test_metrics.ml. *)

open Helpers
module Minheap = Tlp_util.Minheap
module Texttab = Tlp_util.Texttab
module Csv_out = Tlp_util.Csv_out

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    check_bool "in [0,10)" true (x >= 0 && x < 10);
    let y = Rng.int_in rng 5 9 in
    check_bool "in [5,9]" true (y >= 5 && y <= 9)
  done

let test_rng_int_covers () =
  let rng = Rng.create 11 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 10) <- true
  done;
  check_bool "all values hit" true (Array.for_all Fun.id seen)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    check_bool "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_rng_split_independent () =
  let rng = Rng.create 9 in
  let s = Rng.split rng in
  check_bool "split differs from parent" true
    (Rng.next_int64 s <> Rng.next_int64 rng)

let test_rng_exponential_positive () =
  let rng = Rng.create 13 in
  for _ = 1 to 500 do
    check_bool "positive" true (Rng.exponential rng 10.0 >= 0.0)
  done

let prop_minheap_sorts =
  qcheck ~count:200 "minheap pops in sorted order"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range (-1000) 1000))
    (fun xs ->
      let h = Minheap.create ~cmp:compare in
      List.iter (Minheap.push h) xs;
      let rec drain acc =
        match Minheap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

let test_minheap_basics () =
  let h = Minheap.create ~cmp:compare in
  check_bool "empty" true (Minheap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Minheap.pop h);
  Minheap.push h 5;
  Minheap.push h 2;
  Minheap.push h 8;
  Alcotest.(check (option int)) "peek" (Some 2) (Minheap.peek h);
  check_int "size" 3 (Minheap.size h);
  Alcotest.(check (option int)) "pop" (Some 2) (Minheap.pop h);
  Minheap.clear h;
  check_bool "cleared" true (Minheap.is_empty h)

let test_texttab_render () =
  let t = Texttab.create ~title:"demo" [ "name"; "value" ] in
  Texttab.add_row t [ "alpha"; "1" ];
  Texttab.add_row t [ "b"; "22" ];
  let s = Texttab.render t in
  check_bool "has title" true (String.length s > 0 && String.sub s 0 4 = "demo");
  check_bool "aligned header" true
    (String.split_on_char '\n' s
    |> List.exists (fun l -> l = "| name  | value |"))

let test_texttab_arity () =
  let t = Texttab.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Texttab.add_row: arity mismatch")
    (fun () -> Texttab.add_row t [ "only one" ])

let test_texttab_fmt () =
  Alcotest.(check string) "int" "1,234,567" (Texttab.fmt_int 1234567);
  Alcotest.(check string) "neg int" "-1,000" (Texttab.fmt_int (-1000));
  Alcotest.(check string) "small int" "42" (Texttab.fmt_int 42);
  Alcotest.(check string) "whole float" "12" (Texttab.fmt_float 12.0);
  Alcotest.(check string) "frac" "0.0450" (Texttab.fmt_float 0.045)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv_out.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv_out.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv_out.escape "a\"b");
  Alcotest.(check string) "row" "a,\"b,c\",d"
    (Csv_out.row_to_string [ "a"; "b,c"; "d" ])

let test_timer () =
  let x, dt = Tlp_util.Timer.time (fun () -> 42) in
  check_int "result" 42 x;
  check_bool "non-negative" true (dt >= 0.0);
  let x, dt = Tlp_util.Timer.time_median ~repeats:3 (fun () -> "ok") in
  Alcotest.(check string) "median result" "ok" x;
  check_bool "median non-negative" true (dt >= 0.0)

let suite =
  [
    Alcotest.test_case "rng is deterministic per seed" `Quick
      test_rng_deterministic;
    Alcotest.test_case "rng seeds give distinct streams" `Quick
      test_rng_seeds_differ;
    Alcotest.test_case "rng int stays in range" `Quick test_rng_int_range;
    Alcotest.test_case "rng int covers the range" `Quick test_rng_int_covers;
    Alcotest.test_case "shuffle is a permutation" `Quick
      test_rng_shuffle_permutation;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "split stream is independent" `Quick
      test_rng_split_independent;
    Alcotest.test_case "exponential samples are positive" `Quick
      test_rng_exponential_positive;
    prop_minheap_sorts;
    Alcotest.test_case "minheap basics" `Quick test_minheap_basics;
    Alcotest.test_case "texttab renders aligned" `Quick test_texttab_render;
    Alcotest.test_case "texttab rejects bad arity" `Quick test_texttab_arity;
    Alcotest.test_case "number formatting" `Quick test_texttab_fmt;
    Alcotest.test_case "csv escaping" `Quick test_csv_escape;
    Alcotest.test_case "timer" `Quick test_timer;
  ]
