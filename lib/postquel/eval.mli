(** Expression evaluator.

    Evaluation happens per row: the caller (Inversion's query executor)
    binds the row's variables ([file], [filename], …) and provides type
    resolution for file-valued arguments so typed functions dispatch
    correctly.  A typed function applied to a file of the wrong type
    evaluates to [Null] — the row just fails the predicate. *)

exception Unknown_function of string
exception Arity_mismatch of string * int * int
(** name, expected, got *)

type env = {
  lookup : string -> Value.t option;
      (** variable bindings; [None] makes the variable evaluate to
          [Null] *)
  type_of : Value.t -> string option;
      (** file type of a file-valued argument, for typed dispatch *)
}

val eval : Registry.t -> env -> Ast.expr -> Value.t
(** Short-circuiting [and]/[or]; comparisons involving [Null] or
    incomparable values are false. *)

val eval_predicate : Registry.t -> env -> Ast.expr option -> bool
(** [None] (no [where] clause) is true. *)
