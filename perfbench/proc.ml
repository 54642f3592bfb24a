(* Child server processes and the /proc counters read around a timed
   window.  Every spawned process is registered so that [stop_all]
   (also run at exit) can terminate and reap it. *)

type t = { pid : int; port : int; out : in_channel }

let live : t list ref = ref []

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* The port from a startup line such as
   "tlp.rpc/v1 listening on 127.0.0.1:40123" or
   "tlp.rpc/v1 router listening on 127.0.0.1:40123 (2 shards)". *)
let rec port_of_words = function
  | "on" :: addr :: _ ->
      Option.bind (String.rindex_opt addr ':') (fun j ->
          int_of_string_opt
            (String.sub addr (j + 1) (String.length addr - j - 1)))
  | _ :: rest -> port_of_words rest
  | [] -> None

(* Start [exe args] and block until it prints its listening line; the
   server binds before printing, so the port is ready to accept. *)
let spawn exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let t_fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in_noerr out;
    failwith (Printf.sprintf "%s: %s" (Filename.basename exe) msg)
  in
  match input_line out with
  | line -> (
      match port_of_words (String.split_on_char ' ' line) with
      | Some port ->
          let t = { pid; port; out } in
          live := t :: !live;
          t
      | None -> t_fail ("unexpected startup line: " ^ line))
  | exception End_of_file -> t_fail "exited before listening"

let reap pid ~grace_s =
  let deadline = Clock.now () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.now () < deadline ->
        Clock.sleep 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* SIGTERM drains a server; a process still alive after the grace
   period is killed. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap t.pid ~grace_s:5.0;
  close_in_noerr t.out;
  live := List.filter (fun p -> p.pid <> t.pid) !live

let stop_all () = List.iter stop !live
let () = at_exit stop_all

(* utime + stime in clock ticks, summed over every thread of the
   process, exited ones included.  Fields 14 and 15 of /proc/<pid>/stat;
   the comm field may hold spaces, so split after its closing paren. *)
let cpu_ticks pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0
  | Some s -> (
      let rest =
        let j = String.rindex s ')' in
        String.sub s (j + 2) (String.length s - j - 2)
      in
      match String.split_on_char ' ' rest with
      | fields when List.length fields > 12 ->
          let field i = int_of_string (List.nth fields i) in
          field 11 + field 12
      | _ -> 0)

(* Linux reports /proc times in USER_HZ, which is 100 on every
   architecture the kernel ABI fixes it for. *)
let tick_us = 10_000.0

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

(* Peak resident set (VmHWM) in kB. *)
let hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match words (String.trim v) with
              | kb :: _ -> int_of_string kb
              | [] -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' s)

(* (steal, total) jiffies of the aggregate "cpu" line of /proc/stat. *)
let steal_total () =
  match read_file "/proc/stat" with
  | None -> (0, 0)
  | Some s -> (
      let line = List.hd (String.split_on_char '\n' s) in
      match List.tl (words line) |> List.map int_of_string with
      | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _
        ->
          (* guest time is already inside user/nice: not summed twice *)
          (steal, user + nice + system + idle + iowait + irq + softirq + steal)
      | _ -> (0, 0))

(* CPU seconds of this process, all threads. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
