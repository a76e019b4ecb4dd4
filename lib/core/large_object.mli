(** Database large objects, backed by Inversion files.

    "POSTGRES supports large object storage by creating Inversion files
    to store object data.  All of the services available to Inversion
    users are also available to users of BLOBs ... The integration of
    large database objects with Inversion means that two different
    clients can share data that they use in different ways.  The same
    Inversion file can be used by a database application and by a file
    system client simultaneously."

    This is the database-side door onto the very same storage: objects
    are addressed by oid rather than pathname, live under the reserved
    [/.largeobjects] directory (so file-system clients can also see
    them), and support the [lo_*] calls PostgreSQL still ships today —
    which descend directly from this code in the paper.  An existing
    file's oid can be opened as a large object too, and vice versa. *)

type t
(** The large-object manager for one file system. *)

type descriptor

val manager : Fs.t -> t
(** Create/attach the manager (creates [/.largeobjects] on first use). *)

val lo_creat : t -> unit -> int64
(** Create an empty, uncompressed large object; returns its oid. *)

val lo_of_path : t -> string -> int64
(** The oid of an existing file — any Inversion file is a large object
    ([ENOENT] if missing). *)

val lo_open : t -> ?timestamp:int64 -> int64 -> descriptor
(** Open by oid.  [timestamp] gives the usual read-only historical
    view. *)

val lo_close : t -> descriptor -> unit
val lo_read : t -> descriptor -> bytes -> int -> int
val lo_write : t -> descriptor -> bytes -> int -> int
val lo_seek : t -> descriptor -> int64 -> Fs.whence -> int64
val lo_tell : t -> descriptor -> int64

val lo_unlink : t -> int64 -> unit
(** Remove the object (its history stays time-travelable, as always). *)

val lo_size : t -> ?timestamp:int64 -> int64 -> int64

val lo_export : t -> int64 -> string -> unit
(** Copy a large object's bytes to a (new) file-system path — both views
    then exist simultaneously. *)

val lo_import : t -> string -> int64
(** The reverse: the file at [path] {e is} the object; just returns its
    oid (no copy — that is the whole point of the integration). *)

val session : t -> Fs.session
(** The manager's session, for mixing [lo_*] calls with [p_*] calls in
    one transaction ([Fs.p_begin] on this session covers both APIs). *)
