(* A small pool of solver workspaces shared by the worker domains.

   [Bandwidth_hitting.Workspace] preallocates O(n) scratch; PR 2 showed
   reusing one cuts solver allocation ~13.9×, but until now the server
   built a fresh workspace implicitly on every request. The pool keys
   workspaces by the power-of-two capacity class of the instance size
   (scratch is O(n) and independent of K), so a checked-out workspace
   always fits and a stream of similarly-sized requests converges on
   one arena per class per concurrent worker domain.

   Checkout is mutex-protected and strictly exclusive — a workspace is
   never visible to two solves at once, which is the module's safety
   contract. The pool holds at most [max_per_class] idle workspaces per
   class; beyond that a returning workspace is dropped for the GC, so a
   burst cannot pin unbounded memory. *)

module Workspace = Tlp_core.Bandwidth_hitting.Workspace

type t = {
  mutex : Mutex.t;
  idle : (int, Workspace.t list) Hashtbl.t; (* class exponent -> idle *)
  mutable created : int;
  mutable reused : int;
}

let max_per_class = 8

let create () =
  {
    mutex = Mutex.create ();
    idle = Hashtbl.create 8;
    created = 0;
    reused = 0;
  }

(* Smallest power of two >= n (and >= 16, so tiny instances share a
   class instead of fragmenting the pool). *)
let capacity_class n =
  let e = ref 4 in
  while 1 lsl !e < n do
    incr e
  done;
  !e

let checkout t ~n =
  let cls = capacity_class n in
  Mutex.lock t.mutex;
  let ws =
    match Hashtbl.find_opt t.idle cls with
    | Some (ws :: rest) ->
        Hashtbl.replace t.idle cls rest;
        t.reused <- t.reused + 1;
        Some ws
    | Some [] | None -> None
  in
  (match ws with
  | Some _ -> ()
  | None -> t.created <- t.created + 1);
  Mutex.unlock t.mutex;
  match ws with
  | Some ws -> (cls, ws)
  | None -> (cls, Workspace.create (1 lsl cls))

let checkin t (cls, ws) =
  Mutex.lock t.mutex;
  let idle = Option.value (Hashtbl.find_opt t.idle cls) ~default:[] in
  if List.length idle < max_per_class then
    Hashtbl.replace t.idle cls (ws :: idle);
  Mutex.unlock t.mutex

let with_workspace t ~n f =
  let slot = checkout t ~n in
  Fun.protect
    ~finally:(fun () -> checkin t slot)
    (fun () -> f (snd slot))

let counters t =
  Mutex.lock t.mutex;
  let c = (t.created, t.reused) in
  Mutex.unlock t.mutex;
  c
