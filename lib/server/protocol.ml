module Json = Tlp_util.Json_out
module Bytebuf = Tlp_util.Bytebuf
module Io = Tlp_graph.Instance_io
module Chain = Tlp_graph.Chain
module Tree = Tlp_graph.Tree

let schema = "tlp.rpc/v1"

type error_code = Bad_request | Overloaded | Timeout | Internal | Unavailable

type error = { code : error_code; message : string }

let error_code_string = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Internal -> "internal"
  | Unavailable -> "unavailable"

let bad_request message = { code = Bad_request; message }
let overloaded message = { code = Overloaded; message }
let timeout message = { code = Timeout; message }
let internal message = { code = Internal; message }
let unavailable message = { code = Unavailable; message }

type priority = Interactive | Batch

let priority_string = function
  | Interactive -> "interactive"
  | Batch -> "batch"

type partition_algorithm = Tlp_engine.Partition.objective =
  | Bandwidth
  | Bottleneck
  | Procmin
  | Pipeline

let partition_algorithm_string = Tlp_engine.Partition.objective_name

type request =
  | Partition of {
      instance : Io.instance;
      k : int;
      algorithm : partition_algorithm;
    }
  | Sweep of {
      chain : Chain.t;
      ks : int list;
      algorithm : Tlp_engine.Ksweep.algorithm;
    }
  | Verify of { rounds : int; seed : int }
  | Stats
  | Health
  | Cluster
  | Sleep of { ms : int }
  | Open of { instance : Io.instance; session : string option }
  | Update of { session : string; deltas : Tlp_core.Incremental.delta list }
  | Resolve of { session : string; k : int; algorithm : partition_algorithm }

type frame = {
  id : Json.t;
  request : request;
  timeout_ms : int option;
  priority : priority;
  trace : bool;
}

let method_name = function
  | Partition _ -> "partition"
  | Sweep _ -> "sweep"
  | Verify _ -> "verify"
  | Stats -> "stats"
  | Health -> "health"
  | Cluster -> "cluster"
  | Sleep _ -> "sleep"
  | Open _ -> "open"
  | Update _ -> "update"
  | Resolve _ -> "resolve"

(* ---------- parsing ---------- *)

(* Parse failures abort with [Reject] carrying the wire error; the
   request id (when already recovered) is attached by [parse_frame]. *)
exception Reject of error

let reject fmt = Printf.ksprintf (fun m -> raise (Reject (bad_request m))) fmt

let obj_fields = function
  | Json.Obj fields -> fields
  | _ -> reject "request frame must be a JSON object"

let field name fields = List.assoc_opt name fields

let require name fields =
  match field name fields with
  | Some v -> v
  | None -> reject "missing required field %S" name

let as_int name = function
  | Json.Int i -> i
  | _ -> reject "field %S must be an integer" name

let as_string name = function
  | Json.String s -> s
  | _ -> reject "field %S must be a string" name

(* [parse_frame] reads an all-integer array as one [Ints]; any other
   array, and every document built in process, arrives as a [List]. *)
let as_int_array name = function
  | Json.Ints a -> a
  | Json.List items -> Array.of_list (List.map (as_int name) items)
  | _ -> reject "field %S must be an array of integers" name

let positive name i =
  if i <= 0 then reject "field %S must be positive, got %d" name i;
  i

let non_negative name i =
  if i < 0 then reject "field %S must be non-negative, got %d" name i;
  i

(* An instance is either a string in the instance-file format or an
   inline object ({"kind":"chain",...} / {"kind":"tree",...}); both
   canonicalize to the same [Instance_io.instance], hence to the same
   cache digest. *)
let parse_instance = function
  | Json.String text -> (
      match Io.parse text with
      | Ok i -> i
      | Error msg -> reject "bad instance text: %s" msg)
  | Json.Obj fields -> (
      let kind = as_string "kind" (require "kind" fields) in
      match kind with
      | "chain" -> (
          let alpha = as_int_array "alpha" (require "alpha" fields) in
          let beta = as_int_array "beta" (require "beta" fields) in
          match Chain.of_owned ~alpha ~beta with
          | chain -> Io.Chain_instance chain
          | exception Invalid_argument msg -> reject "bad chain: %s" msg)
      | "tree" -> (
          let weights = as_int_array "weights" (require "weights" fields) in
          let not_pairs () =
            reject
              "field \"parents\" must be an array of [parent, delta] integer \
               pairs"
          in
          let parents =
            match require "parents" fields with
            | Json.List items ->
                Array.of_list
                  (List.map
                     (function
                       | Json.Ints [| p; d |]
                       | Json.List [ Json.Int p; Json.Int d ] ->
                           (p, d)
                       | _ -> not_pairs ())
                     items)
            | Json.Ints _ -> not_pairs ()
            | _ -> reject "field \"parents\" must be an array"
          in
          match Tree.of_parents ~weights ~parents with
          | t -> Io.Tree_instance t
          | exception Invalid_argument msg -> reject "bad tree: %s" msg)
      | other -> reject "unknown instance kind %S (chain | tree)" other)
  | _ -> reject "field \"instance\" must be a string or an object"

let parse_chain fields =
  match parse_instance (require "instance" fields) with
  | Io.Chain_instance c -> c
  | Io.Tree_instance _ -> reject "method requires a chain instance"

let max_verify_rounds = 10_000
let max_sleep_ms = 60_000

let parse_partition_algorithm params =
  let table = Tlp_engine.Partition.objectives in
  match Option.map (as_string "algorithm") (field "algorithm" params) with
  | None -> Bandwidth
  | Some name -> (
      match List.assoc_opt name table with
      | Some objective -> objective
      | None ->
          reject "unknown algorithm %S (%s)" name
            (String.concat " | " (List.map fst table)))

(* Weight deltas arrive as ["vertex"|"edge", index, delta] triples —
   positional, so the v1 and v2 framings carry the same information per
   delta.  Range and positivity are checked at apply time against the
   session's current weights, not here. *)
let parse_deltas params =
  let not_triples () =
    reject
      "field \"deltas\" must be an array of [\"vertex\" | \"edge\", index, \
       delta] triples"
  in
  match require "deltas" params with
  | Json.List items ->
      let deltas =
        List.map
          (function
            | Json.List [ Json.String "vertex"; Json.Int i; Json.Int d ] ->
                Tlp_core.Incremental.Vertex (i, d)
            | Json.List [ Json.String "edge"; Json.Int j; Json.Int d ] ->
                Tlp_core.Incremental.Edge (j, d)
            | _ -> not_triples ())
          items
      in
      if deltas = [] then reject "field \"deltas\" must be non-empty";
      deltas
  | Json.Ints _ -> not_triples ()
  | _ -> reject "field \"deltas\" must be an array"

let parse_method meth params =
  match meth with
  | "partition" ->
      let instance = parse_instance (require "instance" params) in
      let k = positive "k" (as_int "k" (require "k" params)) in
      let algorithm = parse_partition_algorithm params in
      Partition { instance; k; algorithm }
  | "sweep" ->
      let chain = parse_chain params in
      let ks =
        List.map
          (positive "k_values")
          (Array.to_list (as_int_array "k_values" (require "k_values" params)))
      in
      if ks = [] then reject "field \"k_values\" must be non-empty";
      let algorithm =
        match Option.map (as_string "algorithm") (field "algorithm" params) with
        | None | Some "hitting" -> Tlp_engine.Ksweep.Hitting
        | Some "deque" -> Tlp_engine.Ksweep.Deque
        | Some other -> reject "unknown algorithm %S (deque | hitting)" other
      in
      Sweep { chain; ks; algorithm }
  | "verify" ->
      let rounds =
        match Option.map (as_int "rounds") (field "rounds" params) with
        | None -> 100
        | Some r ->
            if r < 1 || r > max_verify_rounds then
              reject "field \"rounds\" must be in [1, %d]" max_verify_rounds;
            r
      in
      let seed =
        match Option.map (as_int "seed") (field "seed" params) with
        | None -> 1
        | Some s -> s
      in
      Verify { rounds; seed }
  | "stats" -> Stats
  | "health" -> Health
  | "cluster" -> Cluster
  | "sleep" ->
      let ms = as_int "ms" (require "ms" params) in
      if ms < 0 || ms > max_sleep_ms then
        reject "field \"ms\" must be in [0, %d]" max_sleep_ms;
      Sleep { ms }
  | "open" ->
      let instance = parse_instance (require "instance" params) in
      let session =
        Option.map (as_string "session") (field "session" params)
      in
      Open { instance; session }
  | "update" ->
      let session = as_string "session" (require "session" params) in
      Update { session; deltas = parse_deltas params }
  | "resolve" ->
      let session = as_string "session" (require "session" params) in
      let k = positive "k" (as_int "k" (require "k" params)) in
      Resolve { session; k; algorithm = parse_partition_algorithm params }
  | other ->
      reject
        "unknown method %S (partition | sweep | verify | stats | health | \
         open | update | resolve)"
        other

let parse_request doc =
  (* Recover the id first so even rejected frames get correlated
     error responses. *)
  let id =
    match doc with
    | Json.Obj fields -> (
        match field "id" fields with
        | Some ((Json.String _ | Json.Int _ | Json.Null) as id) -> id
        | Some _ | None -> Json.Null)
    | _ -> Json.Null
  in
  match
    let fields = obj_fields doc in
    (match field "id" fields with
    | None | Some (Json.String _ | Json.Int _ | Json.Null) -> ()
    | Some _ -> reject "field \"id\" must be a string, integer or null");
    let meth = as_string "method" (require "method" fields) in
    let params =
      match field "params" fields with
      | None -> []
      | Some (Json.Obj params) -> params
      | Some _ -> reject "field \"params\" must be an object"
    in
    let timeout_ms =
      (* 0 is legal: a client whose remaining budget rounds down to
         0 ms gets a structured [timeout], not a parse error. *)
      match field "timeout_ms" fields with
      | None -> None
      | Some v -> Some (non_negative "timeout_ms" (as_int "timeout_ms" v))
    in
    let priority =
      match field "priority" fields with
      | None -> Interactive
      | Some (Json.String "interactive") -> Interactive
      | Some (Json.String "batch") -> Batch
      | Some _ ->
          reject "field \"priority\" must be \"interactive\" or \"batch\""
    in
    let trace =
      match field "trace" fields with
      | None -> false
      | Some (Json.Bool b) -> b
      | Some _ -> reject "field \"trace\" must be a boolean"
    in
    { id; request = parse_method meth params; timeout_ms; priority; trace }
  with
  | frame -> Ok frame
  | exception Reject err -> Error (id, err)

let parse_frame line =
  match Json.parse ~int_arrays:true line with
  | Error msg -> Error (Json.Null, bad_request ("malformed JSON frame: " ^ msg))
  | Ok doc -> parse_request doc

(* ---------- instances ---------- *)

let canonical_instance = Io.to_string

(* The digest is both the cache key and the ring's routing key
   (PROTOCOL.md §8), so it must stay the MD5 of [canonical_instance]
   byte for byte; the test suite pins the two. It runs once per
   cacheable request, on the connection thread, so it renders that
   text itself, a row at a time with [Bytebuf.add_decimal_line], into
   one buffer and hashes the backing store in place: the caller's
   [scratch] if given (the server reuses one per connection rather
   than put a large text on the major heap per request), sized from
   the instance and never growing while rendering: [Chain] and [Tree] hold no
   negative values, so every int fits in the width of the largest plus
   a separator. One pass for that maximum is cheaper than a width per
   int, and the bound is exact for uniform-width weights. The type
   annotation on [max_in] keeps its comparison on ints rather than the
   polymorphic [compare]. *)
let max_in (a : int array) init =
  let m = ref init in
  for i = 0 to Array.length a - 1 do
    if a.(i) > !m then m := a.(i)
  done;
  !m

let sized_buffer scratch ~ints ~max_value =
  let size = 8 + (ints * (Bytebuf.decimal_length max_value + 1)) in
  match scratch with
  | None -> Bytebuf.create size
  | Some buf ->
      Bytebuf.clear buf;
      Bytebuf.reserve buf size;
      buf

let instance_digest ?scratch instance =
  let buf =
    match instance with
    | Io.Chain_instance c ->
        let alpha = c.Chain.alpha and beta = c.Chain.beta in
        let buf =
          sized_buffer scratch
            ~ints:(Array.length alpha + Array.length beta)
            ~max_value:(max_in beta (max_in alpha 0))
        in
        Bytebuf.add_string buf "chain\n";
        Bytebuf.add_decimal_line buf alpha;
        Bytebuf.add_decimal_line buf beta;
        buf
    | Io.Tree_instance t ->
        let weights = t.Tree.weights and edges = t.Tree.edges in
        let max_value = ref (max_in weights 0) in
        for i = 0 to Array.length edges - 1 do
          let u, v, d = edges.(i) in
          if u > !max_value then max_value := u;
          if v > !max_value then max_value := v;
          if d > !max_value then max_value := d
        done;
        let buf =
          sized_buffer scratch
            ~ints:(Array.length weights + (3 * Array.length edges))
            ~max_value:!max_value
        in
        Bytebuf.add_string buf "tree\n";
        Bytebuf.add_decimal_line buf weights;
        for i = 0 to Array.length edges - 1 do
          let u, v, d = edges.(i) in
          Bytebuf.add_decimal buf u;
          Bytebuf.add_char buf ' ';
          Bytebuf.add_decimal buf v;
          Bytebuf.add_char buf ' ';
          Bytebuf.add_decimal buf d;
          Bytebuf.add_char buf '\n'
        done;
        buf
  in
  Digest.to_hex
    (Digest.subbytes (Bytebuf.unsafe_bytes buf) 0 (Bytebuf.length buf))

(* ---------- responses ---------- *)

let envelope_prefix id =
  Printf.sprintf "{\"schema\":%s,\"id\":%s"
    (Json.to_string (Json.String schema))
    (Json.to_string id)

let render_ok ~id ~result =
  (* The result is spliced in pre-rendered so cache hits replay the
     stored bytes verbatim. *)
  Printf.sprintf "%s,\"ok\":true,\"result\":%s}" (envelope_prefix id) result

let render_ok_traced ~id ~result ~trace =
  (* Same envelope with the trace appended after the result, so turning
     tracing on never perturbs the result bytes themselves. *)
  Printf.sprintf "%s,\"ok\":true,\"result\":%s,\"trace\":%s}"
    (envelope_prefix id) result (Json.to_string trace)

let render_error ~id { code; message } =
  Printf.sprintf "%s,\"ok\":false,\"error\":%s}" (envelope_prefix id)
    (Json.to_string
       (Json.Obj
          [
            ("code", Json.String (error_code_string code));
            ("message", Json.String message);
          ]))
