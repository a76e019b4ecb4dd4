type t =
  | J_obj of (string * t) list
  | J_arr of t list
  | J_str of string
  | J_num of float
  | J_int of int
  | J_bool of bool
  | J_null

(* Control characters get the short escapes OCaml's %S also uses where
   JSON has one, else \u00XX; bytes >= 0x20 pass through, so UTF-8 text
   stays UTF-8. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_buf buf indent v =
  (* one element per line, indented two spaces per level *)
  let block opening closing items item =
    let pad = String.make indent ' ' in
    Buffer.add_string buf (opening ^ "\n");
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (pad ^ "  ");
        item x)
      items;
    Buffer.add_string buf ("\n" ^ pad ^ closing)
  in
  match v with
  | J_str s -> Buffer.add_string buf ("\"" ^ escape s ^ "\"")
  | J_bool b -> Buffer.add_string buf (string_of_bool b)
  | J_null -> Buffer.add_string buf "null"
  | J_int i -> Buffer.add_string buf (string_of_int i)
  | J_num f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | J_num f ->
    (* %.17g roundtrips but is noisy; six significant decimals is far
       below the cost model's meaningful precision. *)
    Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | J_arr [] -> Buffer.add_string buf "[]"
  | J_arr items -> block "[" "]" items (to_buf buf (indent + 2))
  | J_obj fields ->
    block "{" "}" fields (fun (k, v) ->
        Buffer.add_string buf ("\"" ^ escape k ^ "\": ");
        to_buf buf (indent + 2) v)

let to_string j =
  let buf = Buffer.create 4096 in
  to_buf buf 0 j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = failwith (Printf.sprintf "json: %s at byte %d" msg !pos) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
    | Some v ->
      pos := !pos + 4;
      v
    | None -> fail "bad \\u escape"
  in
  (* the code point of a \u escape, from a UTF-16 surrogate pair if one
     follows; anything unencodable reads as U+FFFD *)
  let code_point () =
    let hi = hex4 () in
    let cp =
      if hi >= 0xD800 && hi < 0xDC00 && !pos + 1 < n && s.[!pos] = '\\'
         && s.[!pos + 1] = 'u'
      then begin
        pos := !pos + 2;
        0x10000 + ((hi - 0xD800) lsl 10) + (hex4 () - 0xDC00)
      end
      else hi
    in
    if Uchar.is_valid cp then Uchar.of_int cp else Uchar.rep
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'u' ->
          advance ();
          Buffer.add_utf_8_uchar buf (code_point ())
        | Some c ->
          advance ();
          Buffer.add_char buf
            (match c with
            | 'n' -> '\n'
            | 't' -> '\t'
            | 'r' -> '\r'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | c -> c)
        | None -> fail "unterminated escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while match peek () with Some c -> num_char c | None -> false do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> J_int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> J_num f
      | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  (* the elements of an array or object, after its opening bracket *)
  let elements closing element =
    skip_ws ();
    if peek () = Some closing then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let x = element () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          go (x :: acc)
        | Some c when c = closing ->
          advance ();
          List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected , or %C" closing)
      in
      go []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      J_obj (elements '}' member)
    | Some '[' ->
      advance ();
      J_arr (elements ']' parse_value)
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  and member () =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    (k, parse_value ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos < n then fail "trailing input";
  v

let member key = function J_obj fields -> List.assoc_opt key fields | _ -> None

let number = function
  | J_num f -> Some f
  | J_int i -> Some (float_of_int i)
  | _ -> None

let path doc keys =
  List.fold_left (fun acc k -> Option.bind acc (member k)) (Some doc) keys
