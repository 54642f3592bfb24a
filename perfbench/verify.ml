(* The correctness gate, run after the timed window.  Every reply is
   decoded and checked against code that does not share the server's
   serving path: the in-process [Handler.partition_result] rendering
   for cache hits and drift resolves, and the chain's own feasibility
   and cut-weight functions plus a from-scratch [Bandwidth_hitting]
   solve for misses. *)

module Json = Tlp_util.Json_out
module Chain = Tlp_graph.Chain
module Io = Tlp_graph.Instance_io
module Handler = Tlp_server.Handler
module Protocol = Tlp_server.Protocol
module Incremental = Tlp_core.Incremental
module Client = Tlp_client.Client

type reply = { id : Json.t; result : Json.t; trace : Json.t option }

let decode_v2 raw =
  match Tlp_client.Frame.decode_response raw with
  | Ok (Tlp_client.Frame.Result { id; result; trace }) ->
      Some { id; result; trace }
  | Ok (Tlp_client.Frame.Rpc_err _) | Error _ -> None

let decode_v1 raw =
  match Client.classify_response raw with
  | Ok { Client.id; result; trace; _ } -> Some { id; result; trace }
  | Error _ -> None

let partition_doc chain ~k =
  match
    Handler.partition_result (Io.Chain_instance chain) ~k
      ~algorithm:Protocol.Bandwidth
  with
  | Ok doc -> doc
  | Error e -> failwith e.Protocol.message

(* Expected result text of each hit key, rendered once. *)
let hit_expectations keys =
  Array.map
    (fun (r : Plan.request) -> Json.to_string (partition_doc r.chain ~k:r.k))
    keys

let check_hit ~expected (r : Plan.request) raw =
  match decode_v2 raw with
  | Some { id = Json.Int id; result; _ } ->
      id = r.id && String.equal (Json.to_string result) expected
  | Some _ | None -> false

(* A list of integers, or [None] if anything else is in it. *)
let ints = function
  | Some (Json.List l) ->
      List.fold_right
        (fun v acc ->
          match (v, acc) with
          | Json.Int i, Some is -> Some (i :: is)
          | _ -> None)
        l (Some [])
  | _ -> None

(* A miss is right when its cut is feasible, its reported weight is the
   cut's weight, and that weight is the optimum a from-scratch solve
   finds.  [optimum] memoizes the solve per plan pair. *)
let check_miss ~optimum (r : Plan.request) raw =
  match decode_v2 raw with
  | Some { id = Json.Int id; result; _ } -> (
      match
        (ints (Servers.get result [ "cut" ]), Servers.get result [ "weight" ])
      with
      | Some cut, Some (Json.Int w) ->
          id = r.id
          && Chain.is_feasible r.chain ~k:r.k cut
          && Chain.cut_weight r.chain cut = w
          && w = optimum r
      | _ -> false)
  | Some _ | None -> false

let miss_optimum () =
  let memo = Hashtbl.create 512 in
  fun (r : Plan.request) ->
    match Hashtbl.find_opt memo r.id with
    | Some w -> w
    | None ->
        let w =
          match Tlp_core.Bandwidth_hitting.solve r.chain ~k:r.k with
          | Ok s -> s.Tlp_core.Bandwidth_hitting.weight
          | Error _ -> -1
        in
        Hashtbl.add memo r.id w;
        w

(* The reply check for a keyed plan's requests. *)
let request_checker = function
  | Plan.Hits { keys; _ } ->
      let expected = hit_expectations keys in
      fun (r : Plan.request) raw -> check_hit ~expected:expected.(r.id) r raw
  | Plan.Misses _ -> check_miss ~optimum:(miss_optimum ())
  | Plan.Drift _ -> fun _ _ -> false

(* Drift rounds: replay every executed round's deltas onto weights
   tracked here, and check the four replies of each round [check]
   returns ([None]: a warm-up round, applied but not checked).  Updates
   are checked by version; resolves byte for byte against a
   from-scratch partition of the tracked weights.  Rounds are sent
   strictly in order on one connection, so round [r] saw exactly the
   batches of rounds [0..r]. *)
let check_drift (sessions : Plan.session array) (rounds : Plan.round array)
    ~last ~(check : int -> string option) =
  let weights =
    Array.map
      (fun (s : Plan.session) ->
        (Array.copy s.chain0.alpha, Array.copy s.chain0.beta))
      sessions
  in
  let reply_ok r x raw =
    let alpha, beta = weights.(x / 2) in
    match decode_v1 raw with
    | Some { id = Json.Int id; result; _ } when id = (4 * r) + x ->
        if x mod 2 = 0 then
          Servers.int_at result [ "version" ] = r + 1
          && Servers.int_at result [ "applied" ]
             = List.length rounds.(r).deltas.(x / 2)
        else
          let chain =
            Chain.make ~alpha:(Array.copy alpha) ~beta:(Array.copy beta)
          in
          String.equal (Json.to_string result)
            (Json.to_string (partition_doc chain ~k:sessions.(x / 2).sk))
    | _ -> false
  in
  Array.init (last + 1) (fun r ->
      Array.iteri
        (fun j deltas ->
          let alpha, beta = weights.(j) in
          List.iter
            (function
              | Incremental.Vertex (i, d) -> alpha.(i) <- alpha.(i) + d
              | Incremental.Edge (i, d) -> beta.(i) <- beta.(i) + d)
            deltas)
        rounds.(r).Plan.deltas;
      match Option.map (String.split_on_char '\n') (check r) with
      | None -> true
      | Some replies when List.length replies = 4 ->
          List.for_all Fun.id (List.mapi (reply_ok r) replies)
      | Some _ -> false)
