(** Abstract syntax for the POSTQUEL-flavoured language.

    Enough of POSTQUEL to express every query in the paper verbatim:

    {v
    retrieve (filename) where "RISC" in keywords(file)
    retrieve (snow(file), filename)
      where filetype(file) = "tm" and snow(file)/size(file) > 0.5
        and month_of(file) = "April"
    retrieve (filename) where owner(file) = "mao"
      and (filetype(file) = "movie" or filetype(file) = "sound")
      and dir(file) = "/users/mao"
    v}

    plus [define type NAME] for declaring file types (functions are
    registered from OCaml through {!Registry}). *)

type binop =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Add
  | Sub
  | Mul
  | Div
  | And
  | Or
  | In  (** membership / substring *)

type expr =
  | Const of Value.t
  | Var of string  (** a per-row binding such as [file] or [filename] *)
  | Call of string * expr list  (** registered function application *)
  | Binop of binop * expr * expr
  | Not of expr

type statement =
  | Retrieve of { targets : expr list; where : expr option }
  | Define_type of string

val expr_to_string : expr -> string
val statement_to_string : statement -> string
