(* Wire method -> EWMA service time, ns. *)
type t = (string, float) Hashtbl.t

(* EWMA weight of the newest sample (see .mli). *)
let alpha = 0.2

let create () = Hashtbl.create 8

let observe t ~meth ~ns =
  let ns = Stdlib.max 0.0 ns in
  match Hashtbl.find_opt t meth with
  | None -> Hashtbl.replace t meth ns
  | Some mean ->
      Hashtbl.replace t meth ((alpha *. ns) +. ((1.0 -. alpha) *. mean))

let predict_ns t ~meth = Option.value ~default:0.0 (Hashtbl.find_opt t meth)
