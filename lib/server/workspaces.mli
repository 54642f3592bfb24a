(** Mutex-protected pool of [Bandwidth_hitting] solver workspaces.

    Workspaces are keyed by the power-of-two capacity class of the
    instance size; checkout is strictly exclusive, so a workspace is
    never shared between concurrent solves (the module's safety
    contract). At most 8 idle workspaces are retained
    per class — excess returns are dropped for the GC. *)

type t

val create : unit -> t

val with_workspace :
  t -> n:int -> (Tlp_core.Bandwidth_hitting.Workspace.t -> 'a) -> 'a
(** [with_workspace t ~n f] checks out (or creates) a workspace sized
    for [n]-vertex chains, runs [f], and returns it to the pool even on
    exception. *)

val counters : t -> int * int
(** [(created, reused)] checkout totals — observability for the stats
    endpoint and benchmarks. *)
