module Client = Tlp_client.Client
module Rng = Tlp_util.Rng

type t = {
  mutex : Mutex.t;
  host : string;
  port : int;
  proto : Client.proto;
  capacity : int;
  rng : Rng.t;  (** jitter master; guarded by [mutex] *)
  mutable idle : Client.t list;
  mutable created : int;
}

let create ?(capacity = 8) ~host ~port ~proto ~rng () =
  {
    mutex = Mutex.create ();
    host;
    port;
    proto;
    capacity;
    rng;
    idle = [];
    created = 0;
  }

let checkout t =
  match
    Mutex.protect t.mutex (fun () ->
        match t.idle with
        | c :: rest ->
            t.idle <- rest;
            Some c
        | [] ->
            t.created <- t.created + 1;
            None)
  with
  | Some c -> c
  | None ->
      (* Splitting under the mutex above would also work, but [split]
         mutates the parent stream, so do it in a second short
         critical section to keep checkout lock hold times tiny. *)
      let rng = Mutex.protect t.mutex (fun () -> Rng.split t.rng) in
      Client.create ~host:t.host ~port:t.port ~proto:t.proto ~rng ()

let checkin t client =
  let keep =
    Mutex.protect t.mutex (fun () ->
        if List.length t.idle < t.capacity then begin
          t.idle <- client :: t.idle;
          true
        end
        else false)
  in
  if not keep then Client.close client

let discard _t client = Client.close client

let created t = Mutex.protect t.mutex (fun () -> t.created)
let idle t = Mutex.protect t.mutex (fun () -> List.length t.idle)

let drain t =
  let clients = Mutex.protect t.mutex (fun () ->
      let cs = t.idle in
      t.idle <- [];
      cs)
  in
  List.iter Client.close clients
