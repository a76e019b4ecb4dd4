exception Unknown_function of string
exception Arity_mismatch of string * int * int

type env = {
  lookup : string -> Value.t option;
  type_of : Value.t -> string option;
}

let compare_with op a b =
  match Value.compare_values a b with
  | None -> Value.Bool false
  | Some c ->
    Value.Bool
      (match op with
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
      | _ -> assert false)

let rec eval reg env expr =
  match expr with
  | Ast.Const v -> v
  | Ast.Var name -> Option.value ~default:Value.Null (env.lookup name)
  | Ast.Not e -> Value.Bool (not (Value.truthy (eval reg env e)))
  | Ast.Binop (Ast.And, a, b) ->
    if Value.truthy (eval reg env a) then Value.Bool (Value.truthy (eval reg env b))
    else Value.Bool false
  | Ast.Binop (Ast.Or, a, b) ->
    if Value.truthy (eval reg env a) then Value.Bool true
    else Value.Bool (Value.truthy (eval reg env b))
  | Ast.Binop (op, a, b) -> (
    let va = eval reg env a and vb = eval reg env b in
    match op with
    | Ast.Eq -> Value.Bool (Value.equal va vb)
    | Ast.Ne -> (
      (* Null compares unknown: != over Null is false, like =. *)
      match (va, vb) with
      | Value.Null, _ | _, Value.Null -> Value.Bool false
      | _ -> Value.Bool (not (Value.equal va vb)))
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> compare_with op va vb
    | Ast.In -> Value.Bool (Value.member va vb)
    | Ast.Add -> Value.add va vb
    | Ast.Sub -> Value.sub va vb
    | Ast.Mul -> Value.mul va vb
    | Ast.Div -> Value.div va vb
    | Ast.And | Ast.Or -> assert false)
  | Ast.Call (name, args) -> (
    match Registry.find reg ~name with
    | None -> raise (Unknown_function name)
    | Some (_, _, declared_arity) ->
      let vargs = List.map (eval reg env) args in
      (match declared_arity with
      | Some n when n <> List.length vargs ->
        raise (Arity_mismatch (name, n, List.length vargs))
      | _ -> ());
      let file_type =
        match vargs with [] -> None | first :: _ -> env.type_of first
      in
      (match Registry.find_for_type reg ~name ~file_type with
      | Some impl -> impl vargs
      | None -> Value.Null))

let eval_predicate reg env = function
  | None -> true
  | Some e -> Value.truthy (eval reg env e)
