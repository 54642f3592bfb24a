(* The reference oracle for the JSON differential suite: the strict
   parser [Json_out.parse] was before the allocation-lean scanner
   replaced it, kept verbatim below the [open].  It builds one node and
   one cons cell per element and reverses every list, which is exactly
   what makes it a simple oracle. *)

open Tlp_util.Json_out

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let exception Bad of string in
  let raise_bad msg = raise (Bad (Printf.sprintf "offset %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else raise_bad (Printf.sprintf "expected '%c'" c)
  in
  let literal s =
    let l = String.length s in
    if !pos + l <= n && String.sub text !pos l = s then pos := !pos + l
    else raise_bad (Printf.sprintf "expected literal %s" s)
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      (match peek () with
      | Some ('0' .. '9' as c) -> v := (!v * 16) + (Char.code c - Char.code '0')
      | Some ('a' .. 'f' as c) ->
          v := (!v * 16) + (Char.code c - Char.code 'a' + 10)
      | Some ('A' .. 'F' as c) ->
          v := (!v * 16) + (Char.code c - Char.code 'A' + 10)
      | _ -> raise_bad "bad \\u escape");
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    (* Encode a code point as UTF-8; lone surrogates are encoded as-is
       (WTF-8) so any sequence [validate] accepts also parses. *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let continue = ref true in
    while !continue do
      match peek () with
      | None -> raise_bad "unterminated string"
      | Some '"' ->
          advance ();
          continue := false
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' ->
              advance ();
              Buffer.add_char buf '"'
          | Some '\\' ->
              advance ();
              Buffer.add_char buf '\\'
          | Some '/' ->
              advance ();
              Buffer.add_char buf '/'
          | Some 'b' ->
              advance ();
              Buffer.add_char buf '\b'
          | Some 'f' ->
              advance ();
              Buffer.add_char buf '\012'
          | Some 'n' ->
              advance ();
              Buffer.add_char buf '\n'
          | Some 'r' ->
              advance ();
              Buffer.add_char buf '\r'
          | Some 't' ->
              advance ();
              Buffer.add_char buf '\t'
          | Some 'u' ->
              advance ();
              let cp = hex4 () in
              (* Combine a high+low surrogate pair when both are present. *)
              if
                cp >= 0xD800 && cp <= 0xDBFF && !pos + 1 < n
                && text.[!pos] = '\\'
                && !pos + 1 < n
                && text.[!pos + 1] = 'u'
              then begin
                let saved = !pos in
                advance ();
                advance ();
                let lo = hex4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  add_utf8 buf
                    (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                else begin
                  pos := saved;
                  add_utf8 buf cp
                end
              end
              else add_utf8 buf cp
          | _ -> raise_bad "bad escape sequence")
      | Some c when Char.code c < 0x20 -> raise_bad "control char in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c
    done;
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let saw = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        saw := true;
        advance ()
      done;
      if not !saw then raise_bad "expected digits"
    in
    (* The integer part is a single 0 or starts with a nonzero digit;
       "01" is not JSON. *)
    (match peek () with
    | Some '0' -> (
        advance ();
        match peek () with
        | Some '0' .. '9' -> raise_bad "leading zero"
        | _ -> ())
    | Some '1' .. '9' -> digits ()
    | _ -> raise_bad "expected number");
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let lexeme = String.sub text start (!pos - start) in
    if !is_float then Float (float_of_string lexeme)
    else
      match int_of_string_opt lexeme with
      | Some i -> Int i
      | None -> Float (float_of_string lexeme)
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let fields = ref [] in
            let continue = ref true in
            while !continue do
              skip_ws ();
              let key = string_body () in
              skip_ws ();
              expect ':';
              let v = value () in
              fields := (key, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' -> advance ()
              | Some '}' ->
                  advance ();
                  continue := false
              | _ -> raise_bad "expected ',' or '}'"
            done;
            Obj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let items = ref [] in
            let continue = ref true in
            while !continue do
              items := value () :: !items;
              skip_ws ();
              match peek () with
              | Some ',' -> advance ()
              | Some ']' ->
                  advance ();
                  continue := false
              | _ -> raise_bad "expected ',' or ']'"
            done;
            List (List.rev !items)
          end
      | Some '"' -> String (string_body ())
      | Some 't' ->
          literal "true";
          Bool true
      | Some 'f' ->
          literal "false";
          Bool false
      | Some 'n' ->
          literal "null";
          Null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> raise_bad "expected a JSON value"
    in
    skip_ws ();
    v
  in
  match value () with
  | v ->
      if !pos = n then Ok v
      else Error (Printf.sprintf "offset %d: trailing garbage" !pos)
  | exception Bad msg -> Error msg
