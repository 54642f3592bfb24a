(* Binary framing for [tlp.rpc/v2] — the one codec: the server decodes
   requests and encodes responses here, and the client
   ([Tlp_client.Frame]) encodes requests and decodes responses here.

   A v2 connection opens with the 5-byte hello ["\xf2TLP2"]; 0xf2 can
   never begin a v1 JSON line, so the first byte of a connection picks
   the protocol. After the server echoes the hello, both directions
   carry length-prefixed frames: a 4-byte big-endian payload length,
   then the payload. Integers are unsigned LEB128 varints (zigzag for
   signed fields); result values are {!Tlp_util.Binval} encodings.
   The full wire layout is PROTOCOL.md §7.

   Decoding mirrors [Protocol.parse_frame]'s validation byte for byte
   on every rule both framings can express — same bounds, same error
   messages — so the v1/v2 differential suite can compare decoded
   errors, not just successes. Malformed input yields a structured
   [bad_request] (with the request id recovered whenever it was
   readable), never an exception. *)

module Json = Tlp_util.Json_out
module Bytebuf = Tlp_util.Bytebuf
module Binval = Tlp_util.Binval
module R = Tlp_util.Bytebuf.Reader
module Io = Tlp_graph.Instance_io
module Chain = Tlp_graph.Chain
module Tree = Tlp_graph.Tree

let schema = "tlp.rpc/v2"
let hello = "\xf2TLP2"
let hello_byte = '\xf2'

exception Reject of Protocol.error

let reject fmt =
  Printf.ksprintf (fun m -> raise (Reject (Protocol.bad_request m))) fmt

(* ---------- shared field codecs ---------- *)

let write_id buf (id : Json.t) =
  match id with
  | Json.Null -> Bytebuf.add_u8 buf 0
  | Json.Int i ->
      Bytebuf.add_u8 buf 1;
      Bytebuf.add_zigzag buf i
  | Json.String s ->
      Bytebuf.add_u8 buf 2;
      Bytebuf.add_varint buf (String.length s);
      Bytebuf.add_string buf s
  | _ -> invalid_arg "Frame.write_id: id must be null, int or string"

let read_id r =
  match R.u8 r with
  | 0 -> Json.Null
  | 1 -> Json.Int (R.zigzag r)
  | 2 -> Json.String (R.bytes r (R.varint r))
  | tag -> reject "bad id tag %d" tag

(* A claimed element count can never exceed the remaining payload:
   every element costs at least one byte, so the check bounds array
   allocation before trusting wire-supplied sizes. *)
let checked_count r what count =
  if count > R.remaining r then
    reject "%s count %d exceeds remaining frame bytes" what count

let read_varint_array r what n =
  checked_count r what n;
  R.varint_array r n

let read_instance r =
  match R.u8 r with
  | 1 -> (
      let n = R.varint r in
      let alpha = read_varint_array r "chain alpha" n in
      let beta = read_varint_array r "chain beta" (max 0 (n - 1)) in
      match Chain.of_owned ~alpha ~beta with
      | chain -> Io.Chain_instance chain
      | exception Invalid_argument msg -> reject "bad chain: %s" msg)
  | 2 -> (
      let n = R.varint r in
      let weights = read_varint_array r "tree weights" n in
      let edge_count = max 0 (n - 1) in
      checked_count r "tree edges" edge_count;
      let edges = ref [] in
      for _ = 1 to edge_count do
        let u = R.varint r in
        let v = R.varint r in
        let delta = R.varint r in
        edges := (u, v, delta) :: !edges
      done;
      let edges = List.rev !edges in
      match Tree.make ~weights ~edges with
      | t -> Io.Tree_instance t
      | exception Invalid_argument msg -> reject "bad tree: %s" msg)
  | tag -> reject "bad instance kind tag %d (1=chain | 2=tree)" tag

(* ---------- requests ---------- *)

let method_tag = function
  | Protocol.Partition _ -> 1
  | Protocol.Sweep _ -> 2
  | Protocol.Verify _ -> 3
  | Protocol.Stats -> 4
  | Protocol.Health -> 5
  | Protocol.Sleep _ -> 6
  | Protocol.Cluster -> 7
  | Protocol.Open _ -> 8
  | Protocol.Update _ -> 9
  | Protocol.Resolve _ -> 10

let partition_algorithm_tag = function
  | Protocol.Bandwidth -> 1
  | Protocol.Bottleneck -> 2
  | Protocol.Procmin -> 3
  | Protocol.Pipeline -> 4

let sweep_algorithm_tag = function
  | Tlp_engine.Ksweep.Hitting -> 1
  | Tlp_engine.Ksweep.Deque -> 2

let write_instance buf (instance : Io.instance) =
  match instance with
  | Io.Chain_instance chain ->
      Bytebuf.add_u8 buf 1;
      let n = Array.length chain.Chain.alpha in
      Bytebuf.add_varint buf n;
      Array.iter (Bytebuf.add_varint buf) chain.Chain.alpha;
      Array.iter (Bytebuf.add_varint buf) chain.Chain.beta
  | Io.Tree_instance tree ->
      Bytebuf.add_u8 buf 2;
      let n = Array.length tree.Tree.weights in
      Bytebuf.add_varint buf n;
      Array.iter (Bytebuf.add_varint buf) tree.Tree.weights;
      Array.iter
        (fun (u, v, delta) ->
          Bytebuf.add_varint buf u;
          Bytebuf.add_varint buf v;
          Bytebuf.add_varint buf delta)
        tree.Tree.edges

let start_frame buf =
  let pos = Bytebuf.length buf in
  Bytebuf.add_u32_be buf 0;
  pos

let finish_frame buf pos =
  Bytebuf.patch_u32_be buf ~pos (Bytebuf.length buf - pos - 4)

let encode_request buf (frame : Protocol.frame) =
  let p = start_frame buf in
  Bytebuf.add_u8 buf (method_tag frame.request);
  write_id buf frame.id;
  let flags =
    (match frame.timeout_ms with Some _ -> 1 | None -> 0)
    lor (match frame.priority with Protocol.Batch -> 2 | Interactive -> 0)
    lor if frame.trace then 4 else 0
  in
  Bytebuf.add_u8 buf flags;
  (match frame.timeout_ms with
  | Some ms -> Bytebuf.add_varint buf ms
  | None -> ());
  (match frame.request with
  | Protocol.Partition { instance; k; algorithm } ->
      Bytebuf.add_u8 buf (partition_algorithm_tag algorithm);
      Bytebuf.add_varint buf k;
      write_instance buf instance
  | Protocol.Sweep { chain; ks; algorithm } ->
      Bytebuf.add_u8 buf (sweep_algorithm_tag algorithm);
      Bytebuf.add_varint buf (List.length ks);
      List.iter (Bytebuf.add_varint buf) ks;
      write_instance buf (Io.Chain_instance chain)
  | Protocol.Verify { rounds; seed } ->
      Bytebuf.add_varint buf rounds;
      Bytebuf.add_zigzag buf seed
  | Protocol.Stats | Protocol.Health | Protocol.Cluster -> ()
  | Protocol.Sleep { ms } -> Bytebuf.add_varint buf ms
  | Protocol.Open { instance; session } ->
      (match session with
      | None -> Bytebuf.add_u8 buf 0
      | Some name ->
          Bytebuf.add_u8 buf 1;
          Bytebuf.add_varint buf (String.length name);
          Bytebuf.add_string buf name);
      write_instance buf instance
  | Protocol.Update { session; deltas } ->
      Bytebuf.add_varint buf (String.length session);
      Bytebuf.add_string buf session;
      Bytebuf.add_varint buf (List.length deltas);
      List.iter
        (fun (d : Tlp_core.Incremental.delta) ->
          match d with
          | Tlp_core.Incremental.Vertex (i, d) ->
              Bytebuf.add_u8 buf 1;
              Bytebuf.add_varint buf i;
              Bytebuf.add_zigzag buf d
          | Tlp_core.Incremental.Edge (j, d) ->
              Bytebuf.add_u8 buf 2;
              Bytebuf.add_varint buf j;
              Bytebuf.add_zigzag buf d)
        deltas
  | Protocol.Resolve { session; k; algorithm } ->
      Bytebuf.add_u8 buf (partition_algorithm_tag algorithm);
      Bytebuf.add_varint buf k;
      Bytebuf.add_varint buf (String.length session);
      Bytebuf.add_string buf session);
  finish_frame buf p

let positive name i =
  if i <= 0 then reject "field %S must be positive, got %d" name i;
  i

let read_partition_algorithm r =
  match R.u8 r with
  | 1 -> Protocol.Bandwidth
  | 2 -> Protocol.Bottleneck
  | 3 -> Protocol.Procmin
  | 4 -> Protocol.Pipeline
  | tag -> reject "bad partition algorithm tag %d" tag

let read_request_body r meth_tag =
  match meth_tag with
  | 1 ->
      let algorithm = read_partition_algorithm r in
      let k = positive "k" (R.varint r) in
      let instance = read_instance r in
      Protocol.Partition { instance; k; algorithm }
  | 2 ->
      let algorithm =
        match R.u8 r with
        | 1 -> Tlp_engine.Ksweep.Hitting
        | 2 -> Tlp_engine.Ksweep.Deque
        | tag -> reject "bad sweep algorithm tag %d" tag
      in
      let count = R.varint r in
      if count = 0 then reject "field \"k_values\" must be non-empty";
      let ks =
        Array.to_list (read_varint_array r "k_values" count)
        |> List.map (positive "k_values")
      in
      let chain =
        match read_instance r with
        | Io.Chain_instance c -> c
        | Io.Tree_instance _ -> reject "method requires a chain instance"
      in
      Protocol.Sweep { chain; ks; algorithm }
  | 3 ->
      let rounds = R.varint r in
      if rounds < 1 || rounds > Protocol.max_verify_rounds then
        reject "field \"rounds\" must be in [1, %d]" Protocol.max_verify_rounds;
      let seed = R.zigzag r in
      Protocol.Verify { rounds; seed }
  | 4 -> Protocol.Stats
  | 5 -> Protocol.Health
  | 6 ->
      let ms = R.varint r in
      if ms > Protocol.max_sleep_ms then
        reject "field \"ms\" must be in [0, %d]" Protocol.max_sleep_ms;
      Protocol.Sleep { ms }
  | 7 -> Protocol.Cluster
  | 8 ->
      let session =
        match R.u8 r with
        | 0 -> None
        | 1 -> Some (R.bytes r (R.varint r))
        | tag -> reject "bad session-name presence tag %d" tag
      in
      let instance = read_instance r in
      Protocol.Open { instance; session }
  | 9 ->
      let session = R.bytes r (R.varint r) in
      let count = R.varint r in
      if count = 0 then reject "field \"deltas\" must be non-empty";
      checked_count r "deltas" count;
      let deltas = ref [] in
      for _ = 1 to count do
        let kind = R.u8 r in
        if kind <> 1 && kind <> 2 then
          reject "bad delta kind tag %d (1=vertex | 2=edge)" kind;
        let index = R.varint r in
        let delta = R.zigzag r in
        deltas :=
          (if kind = 1 then Tlp_core.Incremental.Vertex (index, delta)
           else Tlp_core.Incremental.Edge (index, delta))
          :: !deltas
      done;
      Protocol.Update { session; deltas = List.rev !deltas }
  | 10 ->
      let algorithm = read_partition_algorithm r in
      let k = positive "k" (R.varint r) in
      let session = R.bytes r (R.varint r) in
      Protocol.Resolve { session; k; algorithm }
  | tag ->
      reject
        "unknown method tag %d (1=partition | 2=sweep | 3=verify | 4=stats | \
         5=health | 8=open | 9=update | 10=resolve)"
        tag

(* The method tag precedes the id, so the id is recovered for every
   frame whose first bytes are intact — errors stay correlated, the
   same guarantee [Protocol.parse_frame] gives malformed JSON. *)
let decode_request buf ~pos ~len =
  let r = R.make buf ~pos ~limit:(pos + len) in
  let id = ref Json.Null in
  match
    let meth_tag = R.u8 r in
    id := read_id r;
    let flags = R.u8 r in
    if flags land lnot 0x7 <> 0 then reject "bad flags byte 0x%02x" flags;
    let timeout_ms = if flags land 1 <> 0 then Some (R.varint r) else None in
    let priority =
      if flags land 2 <> 0 then Protocol.Batch else Protocol.Interactive
    in
    let trace = flags land 4 <> 0 in
    let request = read_request_body r meth_tag in
    if R.remaining r <> 0 then reject "trailing bytes after request payload";
    { Protocol.id = !id; request; timeout_ms; priority; trace }
  with
  | frame -> Ok frame
  | exception Reject err -> Error (!id, err)
  | exception R.Short ->
      Error (!id, Protocol.bad_request "malformed v2 frame: truncated or corrupt")

(* ---------- responses ---------- *)

let status_error = 0
let status_ok = 1
let status_ok_traced = 3

let error_code_tag = function
  | Protocol.Bad_request -> 1
  | Protocol.Overloaded -> 2
  | Protocol.Timeout -> 3
  | Protocol.Internal -> 4
  | Protocol.Unavailable -> 5

let[@tlp.hot] encode_ok buf ~id ~result ~trace =
  let p = start_frame buf in
  Bytebuf.add_u8 buf
    (match trace with None -> status_ok | Some _ -> status_ok_traced);
  write_id buf id;
  Bytebuf.add_string buf result;
  (match trace with Some tr -> Binval.write buf tr | None -> ());
  finish_frame buf p

let encode_ok_doc buf ~id ~doc ~trace =
  let p = start_frame buf in
  Bytebuf.add_u8 buf
    (match trace with None -> status_ok | Some _ -> status_ok_traced);
  write_id buf id;
  Binval.write buf doc;
  (match trace with Some tr -> Binval.write buf tr | None -> ());
  finish_frame buf p

let[@tlp.hot] encode_error buf ~id (err : Protocol.error) =
  let p = start_frame buf in
  Bytebuf.add_u8 buf status_error;
  write_id buf id;
  Bytebuf.add_u8 buf (error_code_tag err.Protocol.code);
  Bytebuf.add_varint buf (String.length err.Protocol.message);
  Bytebuf.add_string buf err.Protocol.message;
  finish_frame buf p

type reply = {
  id : Json.t;
  body : (Json.t * Json.t option, Protocol.error) result;
}

let error_code_of_tag = function
  | 1 -> Protocol.Bad_request
  | 2 -> Protocol.Overloaded
  | 3 -> Protocol.Timeout
  | 4 -> Protocol.Internal
  | 5 -> Protocol.Unavailable
  | tag -> reject "bad error code tag %d" tag

let decode_response payload =
  let r =
    R.make (Bytes.unsafe_of_string payload) ~pos:0
      ~limit:(String.length payload)
  in
  let value what =
    match Binval.read r with
    | Ok v -> v
    | Error msg -> reject "bad %s value: %s" what msg
  in
  match
    let status = R.u8 r in
    let id = read_id r in
    let body =
      if status = status_error then begin
        let code = error_code_of_tag (R.u8 r) in
        let message = R.bytes r (R.varint r) in
        Error { Protocol.code; message }
      end
      else if status = status_ok then Ok (value "result", None)
      else if status = status_ok_traced then
        let result = value "result" in
        Ok (result, Some (value "trace"))
      else reject "bad status byte %d" status
    in
    if R.remaining r <> 0 then reject "trailing bytes after response payload";
    { id; body }
  with
  | reply -> Ok reply
  | exception Reject err -> Error err.Protocol.message
  | exception R.Short -> Error "truncated response frame"
