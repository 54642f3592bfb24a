(* The processes a run measures: one [tlp_serve], or two shards behind
   a [tlp_route].  Every server runs with [--jobs 1] (one pool domain),
   so a 2-vCPU host is not oversubscribed by solver domains. *)

module Json = Tlp_util.Json_out
module Client = Tlp_client.Client

type t = {
  entry : Proc.t;  (** the process clients connect to *)
  shards : Proc.t array;  (** the tlp_serve processes *)
  router : Proc.t option;
}

type bins = { serve : string; route : string }

let serve_args =
  [ "serve"; "--host"; "127.0.0.1"; "--port"; "0"; "--jobs"; "1" ]

let start bins ~routed =
  if not routed then
    let p = Proc.spawn bins.serve serve_args in
    { entry = p; shards = [| p |]; router = None }
  else
    let shards =
      Array.map (fun _ -> Proc.spawn bins.serve serve_args) Plan.shard_names
    in
    let shard_args =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun i name ->
                [
                  "--shard";
                  Printf.sprintf "%s=127.0.0.1:%d" name shards.(i).Proc.port;
                ])
              Plan.shard_names))
    in
    let router =
      Proc.spawn bins.route
        ([
           "--host"; "127.0.0.1"; "--port"; "0";
           "--ring-seed"; string_of_int Plan.ring_seed;
           "--vnodes"; string_of_int Plan.ring_vnodes;
         ]
        @ shard_args)
    in
    { entry = router; shards; router = Some router }

let stop t =
  Option.iter Proc.stop t.router;
  Array.iter Proc.stop t.shards

let procs t = Array.to_list t.shards @ Option.to_list t.router
let sum_procs f t = List.fold_left (fun acc p -> acc + f p.Proc.pid) 0 (procs t)
let cpu_ticks = sum_procs Proc.cpu_ticks
let hwm_kb = sum_procs Proc.hwm_kb

let client ?(proto = Client.V1) port =
  Client.create ~host:"127.0.0.1" ~port ~proto ~rng:(Tlp_util.Rng.create 1) ()

(* One control-plane call on a fresh v1 connection; the [result]
   member, or an exception naming the failure. *)
let call port ~meth =
  let c = client port in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.call c ~deadline_ms:10_000 ~meth () with
      | Ok r -> r.Client.result
      | Error e -> failwith (meth ^ ": " ^ Client.error_to_string e))

let stats port = call port ~meth:"stats"

(* Field access on parsed documents. *)
let rec get json path =
  match (path, json) with
  | [], v -> Some v
  | key :: rest, Json.Obj fields ->
      Option.bind (List.assoc_opt key fields) (fun v -> get v rest)
  | _ -> None

let int_at json path = match get json path with Some (Json.Int i) -> i | _ -> 0

let list_at json path =
  match get json path with Some (Json.List l) -> l | _ -> []
