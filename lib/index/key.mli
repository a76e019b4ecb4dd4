(** Fixed-width, order-preserving key encodings for B-tree indexes.

    A tree is created with a fixed key width; all keys are byte strings of
    that width compared lexicographically, so every encoder here must be
    order-preserving under unsigned byte comparison (big-endian integers,
    zero-padded strings).

    Inversion's indexes and their encodings:
    - chunk-number index on a file's table: [of_int64 chunkno] (8 bytes);
    - [naming] lookup by (parent directory, name): [dir_name ~parentid
      ~name] — parent oid big-endian plus a CRC-32 of the name; CRC
      collisions are resolved by fetching the heap record and comparing
      the real name, as with any hash-style index;
    - [fileatt] lookup by file oid: [of_int64]. *)

val of_int64 : int64 -> string
(** 8 bytes, big-endian.  Requires a non-negative value (all oids and
    chunk numbers are). *)

val to_int64 : string -> int64
(** Inverse of {!of_int64} on the first 8 bytes. *)

val of_int : int -> string
val dir_name : parentid:int64 -> name:string -> string
(** 12 bytes: parent oid (8, big-endian) then CRC-32 of [name] (4). *)

val dir_prefix_lo : parentid:int64 -> string
val dir_prefix_hi : parentid:int64 -> string
(** Smallest/largest 12-byte keys with the given parent oid: bounds for
    "scan a whole directory". *)

val max_key : width:int -> string
