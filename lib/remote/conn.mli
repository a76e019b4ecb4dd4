(** One session on Inversion, whatever carries it: the session type of
    every front end (the shell, the Table 3 systems and the differential
    harnesses).  A session is local (an {!Invfs.Fs.session} inside the
    data manager), remote (a {!Client.t} speaking the wire protocol) or
    a fleet one (a {!Cluster.conn}: names on the coordinator, file data
    on the shards).  Each call below is written once, for every kind.

    - Namespace calls go to the session; a fleet sends them to its
      coordinator.
    - Transactions, clone and fd calls raise [Invalid_argument] on a
      fleet session: the fleet commits a file's name on the coordinator
      and its data on a shard separately, so it cannot make both atomic,
      clone a file whose data it does not hold, or hold an fd across
      them (ROADMAP item 13(b)).
    - {!write_file} and {!read_whole_file} on a fleet session address
      the owning shard by the oid the coordinator assigned, learned by
      one stat per call; a timestamped fleet read raises
      [Invalid_argument], since no one timestamp orders a shard's data
      with the coordinator's names. *)

type t = Local of Invfs.Fs.session | Remote of Client.t | Fleet of Cluster.conn

(** {1 Namespace} *)

val create : t -> string -> unit
(** An empty file at the path: create and close. *)

val mkdir : t -> string -> unit
val readdir : t -> ?timestamp:int64 -> string -> string list
val unlink : t -> string -> unit
val rmdir : t -> string -> unit
val rename : t -> string -> string -> unit
val stat : t -> ?timestamp:int64 -> string -> Invfs.Fileatt.att
val set_owner : t -> string -> string -> unit
val set_type : t -> string -> string -> unit
val define_type : t -> string -> unit

val query : t -> string -> string list list
(** A POSTQUEL retrieve; rows come back as printed values. *)

val snapshot : t -> int64
(** {!Invfs.Fs.snapshot} of the file system the session names. *)

(** {1 Transactions, clone and fds (not on a fleet)} *)

val begin_txn : t -> unit
val commit : t -> unit
val abort : t -> unit
val clone : t -> src:string -> dst:string -> unit
val creat : t -> string -> int
val open_file : t -> string -> Invfs.Fs.open_mode -> int
val close : t -> int -> unit
val lseek : t -> int -> int64 -> Invfs.Fs.whence -> int64
val read : t -> int -> bytes -> int -> int
val write : t -> int -> bytes -> int -> int
val ftruncate : t -> int -> int64 -> unit

(** {1 Whole files} *)

val write_file : t -> string -> bytes -> unit
(** Create or replace the file's contents.  Locally and remotely this is
    one transaction (or joins the open one); on a fleet it is a create
    on the coordinator if the name is free, then a write and a truncate
    on the owning shard. *)

val read_whole_file : t -> ?timestamp:int64 -> string -> bytes
