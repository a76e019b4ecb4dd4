(** User functions written in POSTQUEL and stored as Inversion files.

    "Users may write functions in C or in POSTQUEL" — and, crucially:
    "Since user-defined functions are stored in the database in the same
    way that ordinary files are, users can even run old versions of these
    functions" (paper, "Time Travel").

    A stored function's body is a query-language {e expression} kept in a
    file under [/.functions/<name>].  When a query calls the function,
    the body is read {e under the query's snapshot}, parsed, and
    evaluated with the arguments bound as [arg1], [arg2], …  So:

    - redefining a function is just writing the file (transactionally,
      if you like);
    - a time-travel query runs the function {e as it was then} — code and
      data rewind together;
    - [cat /.functions/snowy] shows the current source, and
      [cat /.functions/snowy@T] the old one, like any other file.

    Function bodies may call built-ins, C (OCaml) functions, and other
    stored functions.  Recursion is cut off at a fixed depth rather than
    looping forever. *)

val functions_dir : string
(** ["/.functions"]. *)

val define :
  Fs.t ->
  Fs.session ->
  name:string ->
  ?file_type:string ->
  ?arity:int ->
  body:string ->
  unit ->
  unit
(** Parse-check [body] and store it as [/.functions/<name>] (creating or
    replacing), then register the name so queries can call it.  Uses the
    given session, so wrapping in [p_begin]/[p_commit] makes a function
    redefinition transactional with other changes.  Raises
    {!Postquel.Parser.Parse_error} on a bad body. *)

val source : Fs.session -> ?timestamp:int64 -> string -> string
(** The function's source at a moment in time ([ENOENT] if it did not
    exist then). *)

val attach : Fs.t -> unit
(** Re-register every function found in [/.functions] — after a crash or
    when opening an existing store (the registry itself is volatile; the
    sources are not). *)
