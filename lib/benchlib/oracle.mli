(** The differential oracle shared by every sweep harness.

    A pure in-memory model of the committed state the file system under
    test must equal: an oid-keyed namespace ([names] binds paths to file
    identities, [files] holds content per identity, plus the directory
    set), per-session overlays for open transactions, a bounded history
    of remembered instants for time travel, and the checks that compare
    all of it against a walked tree: one read through an
    {!Invfs.Fs.session}, or one a harness walks itself.
    It also keeps the run's mismatch log.

    A harness keeps only its fault model, its op mix and its outcome
    record; see DESIGN.md, "Differential oracle". *)

module SM : Map.S with type key = string
module OM : Map.S with type key = int64

type t

val create : trace:bool -> depth:int -> t
(** An empty tree holding only "/".  [trace] sends {!trace} lines to
    stderr; [depth] is how many remembered instants {!history} keeps. *)

(** {1 Log} *)

val trace : t -> ('a, unit, string, unit) format4 -> 'a
(** One line on stderr when the oracle was created with [~trace:true]. *)

val mismatch : t -> ('a, unit, string, unit) format4 -> 'a
(** Log a divergence.  The first 50 are kept. *)

val mismatches : t -> string list
(** Oldest first; empty means the run proved out. *)

val bytes_diff : bytes -> bytes -> string option
(** [None] when equal, else the lengths and the first differing byte. *)

val splice : bytes -> off:int -> bytes -> bytes
(** [splice cur ~off data]: [cur] with [data] written at [off],
    zero-filling any gap.  [cur] is not mutated. *)

val resize : bytes -> int -> bytes
(** [resize cur len]: what truncating [cur] to [len] leaves — cut, or
    zero-extended.  [cur] is not mutated. *)

val join : string -> string -> string
(** [join dir name] is the path of [name] inside [dir]. *)

val fresh_name : t -> string -> string
(** [prefix] followed by a counter that never repeats within the run. *)

val fresh_oid : t -> int64
(** 1, 2, 3, ...: file identities for a harness that keys content by
    tokens of its own rather than by oids read back from the server. *)

val pick : Simclock.Rng.t -> 'a list -> 'a
(** A uniform draw.  Raises [Invalid_argument] on an empty list. *)

(** {1 Committed state} *)

type updates = {
  u_names : (string * int64 option) list;  (** [None] = unlinked; applied in order *)
  u_files : (int64 * bytes) list;  (** new content per oid *)
  u_dirs : string list;  (** directories created *)
}
(** What one op (or one transaction) changes. *)

val no_updates : updates

val commit : t -> updates -> unit
(** Merge into the committed state.  Content updates land only for oids
    still named afterwards, and an oid that loses its last name loses
    its content: it stays reachable by time travel alone. *)

val names : t -> int64 SM.t
val files : t -> bytes OM.t

val content : t -> int64 -> bytes
(** Committed content of an oid; empty if it has none. *)

val dirs : t -> string list
(** Committed directories, sorted, "/" included. *)

(** {1 Session overlays} *)

type overlay
(** One session's uncommitted transaction. *)

val overlay : unit -> overlay
(** Outside any transaction. *)

val in_txn : overlay -> bool
val begin_txn : overlay -> unit

val clear : overlay -> unit
(** Leave the transaction and drop what it buffered (abort, crash, or
    after the commit merged it). *)

val record : t -> overlay -> updates -> unit
(** Buffer in the overlay inside a transaction; {!commit} outside one. *)

val overlay_updates : overlay -> updates
(** Everything the open transaction buffered, ready for {!commit}. *)

val view_content : t -> overlay -> int64 -> bytes
val view_dirs : t -> overlay -> string list
(** What the session sees: committed state under its own overlay.
    Content the transaction has not written falls through to the
    committed cell, so a rename picks up another session's committed
    writes to the file it moved. *)

val pick_file : t -> overlay -> Simclock.Rng.t -> (string * int64) option
(** A uniform draw from the files the session sees. *)

val fresh_path : t -> overlay -> Simclock.Rng.t -> string -> string
(** A {!fresh_name} with the prefix, in a directory drawn uniformly from
    the ones the session sees. *)

(** {1 History} *)

val remember : t -> int64 -> unit
(** Remember every named file's committed content, and the directory
    set, as of the given instant.  Only the newest [depth] are kept. *)

val remember_now : t -> Relstore.Db.t -> unit
(** {!remember} at the database's current instant, then move the clock
    past it so no later commit shares its timestamp. *)

val history : t -> (int64 * bytes SM.t * string list) list
(** Newest first: (instant, content by path, directories). *)

(** {1 Checks against the real tree} *)

val compare_tree :
  t -> phase:string -> dirs:string list -> bytes Lazy.t SM.t -> unit
(** Compare a walked tree with the committed state: its directories
    (sorted, "/" included), then each file the oracle names, by path,
    then any file it does not.  A file's content is forced only when the
    oracle names it.  Each divergence is logged, prefixed with [phase]. *)

val verify : t -> Invfs.Fs.session -> phase:string -> unit
(** {!compare_tree} on the whole real tree, walked through the session
    with every file read. *)

val verifies : t -> int
(** How many times {!compare_tree} ran. *)

val check_time_travel : t -> Invfs.Fs.session -> int
(** Read every remembered instant back with [As_of] and compare; returns
    the number of reads made. *)
