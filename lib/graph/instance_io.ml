type instance = Chain_instance of Chain.t | Tree_instance of Tree.t

(* Lines paired with their 1-based position in the original text, so
   errors can name the offending line; trimming strips the '\r' left by
   CRLF files. *)
let significant_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) ->
         l <> "" && not (String.length l > 0 && l.[0] = '#'))

let is_space c = c = ' ' || c = '\t' || c = '\r'

let tokens_of_line line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_space line.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && not (is_space line.[!j]) do
        incr j
      done;
      go !j (String.sub line i (!j - i) :: acc)
    end
  in
  go 0 []

let ints_of_line (lineno, line) =
  List.map
    (fun tok ->
      match int_of_string_opt tok with
      | Some v -> v
      | None ->
          failwith
            (Printf.sprintf "line %d: %S is not an integer (in line %S)"
               lineno tok line))
    (tokens_of_line line)

let parse text =
  try
    match significant_lines text with
    | (_, "chain") :: alpha_line :: rest ->
        let alpha = Array.of_list (ints_of_line alpha_line) in
        let beta =
          match rest with
          | [] -> [||]
          | [ beta_line ] -> Array.of_list (ints_of_line beta_line)
          | (lineno, _) :: _ ->
              failwith
                (Printf.sprintf
                   "line %d: chain instances have at most two data lines"
                   lineno)
        in
        Ok (Chain_instance (Chain.of_owned ~alpha ~beta))
    | (_, "tree") :: weights_line :: edge_lines ->
        let weights = Array.of_list (ints_of_line weights_line) in
        let edges =
          List.map
            (fun ((lineno, text) as l) ->
              match ints_of_line l with
              | [ u; v; d ] -> (u, v, d)
              | _ ->
                  failwith
                    (Printf.sprintf
                       "line %d: tree edge lines need 'u v delta', got %S"
                       lineno text))
            edge_lines
        in
        Ok (Tree_instance (Tree.make ~weights ~edges))
    | (lineno, header) :: _ ->
        Error (Printf.sprintf "line %d: unknown instance kind %S" lineno header)
    | [] -> Error "empty instance file"
  with
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let to_string = function
  | Chain_instance c ->
      let join a =
        String.concat " " (List.map string_of_int (Array.to_list a))
      in
      Printf.sprintf "chain\n%s\n%s\n" (join c.Chain.alpha) (join c.Chain.beta)
  | Tree_instance t ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "tree\n";
      Buffer.add_string buf
        (String.concat " "
           (List.map string_of_int (Array.to_list t.Tree.weights)));
      Buffer.add_char buf '\n';
      Array.iter
        (fun (u, v, d) ->
          Buffer.add_string buf (Printf.sprintf "%d %d %d\n" u v d))
        t.Tree.edges;
      Buffer.contents buf

let save path instance =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string instance))
