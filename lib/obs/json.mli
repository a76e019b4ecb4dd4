(** A small JSON value type with the one printer and the one parser the
    repo uses: [bench json] writes and [--compare] reads its trajectory
    files with them, and {!Obs.Trace.to_chrome_json} escapes strings with
    {!escape}. *)

type t =
  | J_obj of (string * t) list
  | J_arr of t list
  | J_str of string
  | J_num of float
  | J_int of int
  | J_bool of bool
  | J_null

val escape : string -> string
(** The body of a JSON string literal, without the quotes.  Control
    characters are escaped; other bytes pass through, so UTF-8 stays
    UTF-8. *)

val to_string : t -> string
(** Indented two spaces per level, newline-terminated.  Floats print with
    six significant digits; a non-finite float prints as [null]. *)

val parse : string -> t
(** Any conforming document.  [true]/[false] read as [J_bool], [null] as
    [J_null], [\uXXXX] escapes (surrogate pairs included) as UTF-8, and
    a number as [J_int] when it is integral text.  Raises [Failure] on
    malformed input. *)

val member : string -> t -> t option
(** A field of an object. *)

val number : t -> float option
(** [J_num] or [J_int] as a float. *)

val path : t -> string list -> t option
(** Follow object fields from the root. *)
