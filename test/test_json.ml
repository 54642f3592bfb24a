(* The JSON scanner against the reference oracle ([Json_ref], the
   tree-building parser it replaced): [Json_out.parse] with and without
   [~int_arrays], [Json_out.validate] and [Protocol.parse_frame] must
   give the reference's documents and the reference's errors, byte for
   byte, on generated documents and on byte mutations of real v1
   request lines. *)

open Helpers
module Json = Tlp_util.Json_out
module Binval = Tlp_util.Binval
module Bytebuf = Tlp_util.Bytebuf
module Io = Tlp_graph.Instance_io
module Protocol = Tlp_server.Protocol
module Client = Tlp_client.Client

(* [Ints] spelled out as the [List] of [Int] it stands for. *)
let rec expand = function
  | Json.Ints a -> Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))
  | Json.List l -> Json.List (List.map expand l)
  | Json.Obj fields -> Json.Obj (List.map (fun (k, v) -> (k, expand v)) fields)
  | v -> v

(* Where the reference has a non-empty array of integers below 10^18
   in magnitude (at most 18 digits), [~int_arrays] must give [Ints];
   everywhere else the same node. *)
let short_int = function
  | Json.Int i -> i > -1_000_000_000_000_000_000 && i < 1_000_000_000_000_000_000
  | _ -> false

let rec same_shape (r : Json.t) (v : Json.t) =
  match (r, v) with
  | Json.List (_ :: _ as l), Json.Ints a ->
      List.for_all short_int l && List.length l = Array.length a
  | Json.List l, Json.List l' ->
      (l = [] || not (List.for_all short_int l))
      && List.length l = List.length l'
      && List.for_all2 same_shape l l'
  | Json.Obj f, Json.Obj f' ->
      List.length f = List.length f'
      && List.for_all2 (fun (_, a) (_, b) -> same_shape a b) f f'
  | _, (Json.List _ | Json.Ints _ | Json.Obj _) -> false
  | _ -> true

(* The reference's v1 reader: parse, then the unchanged request
   validation. *)
let ref_parse_frame line =
  match Json_ref.parse line with
  | Error msg ->
      Error
        (Json.Null, Protocol.bad_request ("malformed JSON frame: " ^ msg))
  | Ok doc -> Protocol.parse_request doc

(* Frames hold chains, trees and delta lists; with sharing off their
   marshalled bytes are equal exactly when the frames are. *)
let frame_string (f : Protocol.frame) =
  Marshal.to_string f [ Marshal.No_sharing ]

let error_string (id, (e : Protocol.error)) =
  Printf.sprintf "%s %s %s" (Json.to_string id)
    (Protocol.error_code_string e.Protocol.code)
    e.Protocol.message

let result_string = function
  | Ok f -> "ok " ^ frame_string f
  | Error err -> "error " ^ error_string err

(* Every property at once, for one line; [Error] says which failed. *)
let agree line =
  let expected = Json_ref.parse line in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let show = function Ok v -> Json.to_string v | Error m -> "Error " ^ m in
  if Json.parse line <> expected then
    fail "parse: %s vs reference %s" (show (Json.parse line)) (show expected)
  else
    let with_ints = Json.parse ~int_arrays:true line in
    if Result.map expand with_ints <> expected then
      fail "parse ~int_arrays: %s vs reference %s" (show with_ints)
        (show expected)
    else if
      match (expected, with_ints) with
      | Ok r, Ok v -> not (same_shape r v)
      | _ -> false
    then fail "parse ~int_arrays: wrong Ints placement in %s" (show with_ints)
    else if Json.validate line <> Result.map ignore expected then
      fail "validate disagrees with %s" (show expected)
    else
      let got = result_string (Protocol.parse_frame line)
      and want = result_string (ref_parse_frame line) in
      if got <> want then fail "parse_frame: %S vs reference %S" got want
      else Ok ()

let check_agree line =
  match agree line with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%S: %s" line m

let prop_agree line =
  match agree line with
  | Ok () -> true
  | Error m -> QCheck2.Test.fail_report m

(* ---------- inputs ---------- *)

let edge_ints =
  [
    "0"; "-0"; "7"; "-7"; "999999999999999999"; "-999999999999999999";
    "100000000000000000"; "1000000000000000000"; "-1000000000000000000";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "-4611686018427387905"; "99999999999999999999999"; "01"; "-01"; "00";
    "-"; "0.5"; "2.5"; "1e3"; "1E+2"; "-0.0"; "1."; "1e"; "0e0";
  ]

let num_gen =
  let open QCheck2.Gen in
  oneof
    [
      map string_of_int (int_range (-1000) 1000);
      map string_of_int int;
      oneof (List.map return edge_ints);
      (* digit strings of any width, leading zeros included *)
      map2
        (fun neg ds -> (if neg then "-" else "") ^ ds)
        bool
        (string_size ~gen:(char_range '0' '9') (int_range 1 22));
    ]

let str_gen =
  QCheck2.Gen.oneof
    (List.map QCheck2.Gen.return
       [
         {|""|}; {|"a"|}; {|"vertex"|}; {|"edge"|}; {|"chain"|}; {|"x\"y"|};
         {|"é"|}; {|"😀"|}; {|"\ud800"|}; {|"\ud800A"|};
         {|"a\nb\t\/"|}; {|"\x"|}; {|"\u12"|}; {|"open|}; "\"ctl\001\"";
       ])

let ws_gen = QCheck2.Gen.oneofl [ ""; ""; ""; " "; "\n"; " \t "; "\r\n" ]

(* Mostly well-formed JSON text: ints and all-int arrays are common so
   the [Ints] path and its fallback are both exercised. *)
let doc_gen =
  let open QCheck2.Gen in
  let wrap ws1 s ws2 = ws1 ^ s ^ ws2 in
  let seq open_ close elems =
    let* sep = oneofl [ ","; ","; ", "; " ,"; ",,"; " " ] in
    let* w = ws_gen in
    return (open_ ^ w ^ String.concat sep elems ^ close)
  in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
         let scalar =
           oneof
             [
               num_gen; str_gen;
               oneofl [ "true"; "false"; "null"; "tru"; "nul"; "x" ];
             ]
         in
         let ints = list_size (int_range 0 8) num_gen >>= seq "[" "]" in
         if n = 0 then oneof [ scalar; ints ]
         else
           oneof
             [
               scalar;
               ints;
               list_size (int_range 0 5) (self (n - 1)) >>= seq "[" "]";
               list_size (int_range 0 4)
                 (map2 (fun k v -> k ^ ":" ^ v) str_gen (self (n - 1)))
               >>= seq "{" "}";
             ]
         >>= fun s -> map2 (fun a b -> wrap a s b) ws_gen ws_gen)

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let chain_instance alpha beta =
  Json.Obj
    [ ("kind", Json.String "chain"); ("alpha", ints alpha); ("beta", ints beta) ]

(* Real v1 lines of every method that carries an integer array, over
   chain, tree and instance-text instances. *)
let real_lines =
  let line ~meth params =
    Client.request_line ~id:(Json.Int 7) ~meth ~params:(Json.Obj params) ()
  in
  let alpha = [ 12; 7; 9; 14; 6 ] and beta = [ 40; 3; 25; 8 ] in
  let chain = chain_instance alpha beta in
  let tree =
    Json.Obj
      [
        ("kind", Json.String "tree");
        ("weights", ints [ 9; 5; 7; 4 ]);
        ( "parents",
          Json.List [ ints [ 0; 12 ]; ints [ 0; 3 ]; ints [ 1; 8 ] ] );
      ]
  in
  let text =
    Json.String
      (Io.to_string
         (Io.Chain_instance
            (Tlp_graph.Chain.make ~alpha:(Array.of_list alpha)
               ~beta:(Array.of_list beta))))
  in
  let delta tag i d = Json.List [ Json.String tag; Json.Int i; Json.Int d ] in
  [|
    line ~meth:"partition"
      [ ("instance", chain); ("k", Json.Int 21); ("algorithm", Json.String "bandwidth") ];
    line ~meth:"partition"
      [ ("instance", tree); ("k", Json.Int 12); ("algorithm", Json.String "pipeline") ];
    line ~meth:"partition" [ ("instance", text); ("k", Json.Int 21) ];
    line ~meth:"sweep"
      [ ("instance", chain); ("k_values", ints [ 21; 27; 48 ]) ];
    line ~meth:"sweep"
      [ ("instance", text); ("k_values", ints [ 48; 5; 21 ]);
        ("algorithm", Json.String "deque") ];
    line ~meth:"open" [ ("instance", chain); ("session", Json.String "s1") ];
    line ~meth:"open" [ ("instance", tree) ];
    line ~meth:"update"
      [ ("session", Json.String "s1");
        ("deltas", Json.List [ delta "vertex" 2 1; delta "edge" 0 (-3) ]) ];
  |]

(* One to three byte edits, each an overwrite, an insertion or a
   deletion, drawn from the bytes that steer the scanner. *)
let mutation_gen =
  let open QCheck2.Gen in
  let byte =
    oneof
      [
        oneofl
          [ '0'; '1'; '9'; '-'; '+'; '.'; 'e'; 'E'; ','; '['; ']'; '{'; '}';
            '"'; ':'; '\\'; 'u'; ' '; 't'; 'n' ];
        char;
      ]
  in
  let edit s =
    let n = String.length s in
    let* at = int_range 0 (max 0 (n - 1)) in
    let* c = byte in
    oneofl
      [
        String.sub s 0 at ^ String.make 1 c ^ String.sub s (at + 1) (n - at - 1);
        String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at);
        String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1);
      ]
  in
  let* line = oneofa real_lines in
  let* edits = int_range 1 3 in
  let rec go s k = if k = 0 then return s else edit s >>= fun s -> go s (k - 1) in
  go line edits

(* ---------- tests ---------- *)

let test_generated_documents =
  qcheck ~count:3000 "scanner = reference on generated documents" doc_gen
    prop_agree

let test_mutated_lines =
  qcheck ~count:3000 "scanner = reference on mutated v1 lines" mutation_gen
    prop_agree

let test_real_lines () = Array.iter check_agree real_lines

let test_integer_edges () =
  let edge_arrays =
    [
      "[1,2,3]"; "[1, 2 ,3 ]"; "[1,2,3,2.5]"; "[1,2,\"x\"]";
      "[1,2,4611686018427387904]"; "[1,2,1000000000000000000]";
      "[999999999999999999,-999999999999999999]"; "[1,2,1e3]"; "[1,2,]";
      "[1 2]"; "[1,-]"; "[1,[2,3],4]"; "[[1,2],[3,4]]"; "[1,2,null]";
      "[-0,0]"; "[01]"; "[1,01]"; "[1,2"; "[1,2,"; "[]"; "[ ]"; "[1]x";
    ]
  in
  List.iter
    (fun s ->
      check_agree s;
      check_agree (Printf.sprintf "[%s]" s))
    (edge_ints @ edge_arrays);
  (* The same values where the v1 reader converts them. *)
  List.iter
    (fun arr ->
      check_agree
        (Printf.sprintf
           {|{"id":1,"method":"sweep","params":{"instance":{"kind":"chain","alpha":%s,"beta":[1,1]},"k_values":%s}}|}
           arr arr);
      check_agree
        (Printf.sprintf
           {|{"id":1,"method":"partition","params":{"instance":{"kind":"tree","weights":[1,2],"parents":[%s]},"k":5}}|}
           arr);
      check_agree
        (Printf.sprintf
           {|{"id":1,"method":"update","params":{"session":"s","deltas":%s}}|}
           arr))
    ([ "[5,6,7]"; "[21,2.5]"; "[0,3]"; "[[0,3]]" ] @ edge_arrays)

let test_int_arrays_shape () =
  (match Json.parse ~int_arrays:true {|{"a":[1,-0,999999999999999999],"b":[[0,3],[1,4]],"c":[],"d":[1,2.5]}|} with
  | Ok
      (Json.Obj
        [
          ("a", Json.Ints [| 1; 0; 999_999_999_999_999_999 |]);
          ("b", Json.List [ Json.Ints [| 0; 3 |]; Json.Ints [| 1; 4 |] ]);
          ("c", Json.List []);
          ("d", Json.List [ Json.Int 1; Json.Float 2.5 ]);
        ]) ->
      ()
  | Ok v -> Alcotest.failf "unexpected document %s" (Json.to_string v)
  | Error m -> Alcotest.fail m);
  check_bool "plain parse never gives Ints" true
    (Json.parse "[1,2,3]" = Ok (ints [ 1; 2; 3 ]))

let test_ints_render_as_list =
  qcheck "Ints renders as the List of Int, in text and Binval"
    (* Binval's zigzag varints cover half the int range. *)
    QCheck2.Gen.(array_size (int_range 0 40) (int_range (min_int asr 1) (max_int asr 1)))
    (fun a ->
      let as_list = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a)) in
      let binval v =
        let buf = Bytebuf.create 16 in
        Binval.write buf v;
        Bytebuf.contents buf
      in
      Json.to_string (Json.Ints a) = Json.to_string as_list
      && binval (Json.Ints a) = binval as_list)

(* Strings are escaped straight into the output buffer: the exact
   escapes, and a round trip through the reference for any bytes. *)
let test_string_escapes () =
  Alcotest.(check string)
    "escapes" {|["a\"b\\c\n\r\t\u0001\u001f/\u0000é","plain"]|}
    (Json.to_string
       (Json.List
          [ Json.String "a\"b\\c\n\r\t\001\031/\000\xc3\xa9"; Json.String "plain" ]))

let test_string_round_trip =
  qcheck "any string renders and parses back" QCheck2.Gen.string (fun s ->
      Json_ref.parse (Json.to_string (Json.String s)) = Ok (Json.String s))

let suite =
  [
    Alcotest.test_case "real v1 lines agree with the reference" `Quick
      test_real_lines;
    Alcotest.test_case "integer edge cases agree with the reference" `Quick
      test_integer_edges;
    Alcotest.test_case "int_arrays gives Ints exactly for short-int arrays"
      `Quick test_int_arrays_shape;
    test_ints_render_as_list;
    Alcotest.test_case "string escapes" `Quick test_string_escapes;
    test_string_round_trip;
    test_generated_documents;
    test_mutated_lines;
  ]
