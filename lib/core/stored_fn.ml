let functions_dir = "/.functions"
let max_depth = 32

(* Stored file format: three header lines then the body.
   line 1: "postquel-function/1"
   line 2: restricting file type, or "-"
   line 3: declared arity, or "-"            *)
let magic = "postquel-function/1"

let encode ~file_type ~arity ~body =
  Printf.sprintf "%s\n%s\n%s\n%s" magic
    (Option.value ~default:"-" file_type)
    (match arity with Some n -> string_of_int n | None -> "-")
    body

let decode text =
  match String.split_on_char '\n' text with
  | m :: ft :: ar :: rest when m = magic ->
    let file_type = if ft = "-" then None else Some ft in
    let arity = if ar = "-" then None else int_of_string_opt ar in
    Some (file_type, arity, String.concat "\n" rest)
  | _ -> None

let fn_path name = functions_dir ^ "/" ^ name

(* Nested stored-function calls share one depth counter; exceeding it
   means runaway recursion. *)
let depth = ref 0

let parse_cache : (string, Postquel.Ast.expr) Hashtbl.t = Hashtbl.create 32

let parse_body body =
  match Hashtbl.find_opt parse_cache body with
  | Some ast -> ast
  | None ->
    let ast = Postquel.Parser.parse_expr body in
    Hashtbl.replace parse_cache body ast;
    ast

(* The registered implementation: read the source under the calling
   query's snapshot, parse, and evaluate with arg1..argN bound. *)
let make_impl fs name (ctx : Fs.query_ctx) args =
  match Fs.read_file_snapshot ctx.Fs.qfs ctx.Fs.snapshot (fn_path name) with
  | None -> Postquel.Value.Null (* did not exist at that moment *)
  | Some text -> (
    match decode (Bytes.to_string text) with
    | None -> Postquel.Value.Null
    | Some (_, _, body) ->
      if !depth >= max_depth then
        Errors.fail Errors.EINVAL "stored function %s: recursion deeper than %d" name
          max_depth;
      incr depth;
      Fun.protect
        ~finally:(fun () -> decr depth)
        (fun () ->
          let lookup var =
            if String.length var > 3 && String.sub var 0 3 = "arg" then
              match int_of_string_opt (String.sub var 3 (String.length var - 3)) with
              | Some n when n >= 1 && n <= List.length args ->
                Some (List.nth args (n - 1))
              | _ -> None
            else None
          in
          let type_of = Fs.file_type_at ctx.Fs.qfs ctx.Fs.snapshot in
          let type_of v =
            match v with Postquel.Value.Int oid -> type_of oid | _ -> None
          in
          let env = { Postquel.Eval.lookup; type_of } in
          Postquel.Eval.eval (Fs.registry fs) env (parse_body body)))

let define fs session ~name ?file_type ?arity ~body () =
  (* parse-check up front so broken bodies are rejected at definition *)
  ignore (Postquel.Parser.parse_expr body : Postquel.Ast.expr);
  if String.contains name '/' then Errors.fail Errors.EINVAL "bad function name %s" name;
  if not (Fs.exists session functions_dir) then
    Fs.mkdir session ~owner:"postgres" functions_dir;
  Fs.write_file session (fn_path name)
    (Bytes.of_string (encode ~file_type ~arity ~body));
  Fs.register_function fs ~name ?file_type ?arity (make_impl fs name)

let source session ?timestamp name =
  let text = Bytes.to_string (Fs.read_whole_file session ?timestamp (fn_path name)) in
  match decode text with
  | Some (_, _, body) -> body
  | None -> Errors.fail Errors.EINVAL "%s is not a stored function" name
