(** The file-system namespace catalog.

    One table models the whole hierarchy (paper, "Namespace and Metadata
    Management"):
    {v naming(filename = char[], parentid = object_id, file = object_id) v}
    A hierarchical namespace is imposed by entries pointing at their
    parent's oid; the root directory ["/"] has parent 0.  B-tree indexes
    accelerate (parent, name) lookups and oid → entry reverse lookups;
    historical ([As_of]) reads bypass the indexes and scan, which keeps
    them correct across vacuuming at the cost the paper acknowledges for
    historical access. *)

type t

type entry = {
  name : string;
  parentid : int64;
  file : int64;  (** the file's oid, "akin to an inode number" *)
  tid : Relstore.Tid.t;  (** physical address of this catalog record *)
}

val create : Relstore.Db.t -> ?device:string -> unit -> t
(** Create the [naming] relation and its indexes. *)

val root_parent : int64
(** 0: the pseudo-parent of "/". *)

val insert : t -> Relstore.Txn.t -> parentid:int64 -> file:int64 -> name:string -> entry
(** Add a namespace entry.  The caller checks for duplicates first. *)

val remove : t -> Relstore.Txn.t -> entry -> unit
(** Delete (no-overwrite: stamps xmax; the entry stays visible in the
    past). *)

val lookup :
  t -> Relstore.Snapshot.t -> parentid:int64 -> name:string -> entry option
(** One directory-entry lookup, via the (parent, name-CRC) index for
    current snapshots. *)

val list_dir : t -> Relstore.Snapshot.t -> parentid:int64 -> entry list
(** Directory contents sorted by name. *)

val by_oid : t -> Relstore.Snapshot.t -> file:int64 -> entry option
(** Reverse lookup: the namespace entry naming this oid. *)

val iter_all : t -> Relstore.Snapshot.t -> (entry -> unit) -> unit
(** Every visible namespace entry (query executor, fsck). *)

val heap : t -> Relstore.Heap.t
(** The underlying relation (vacuum, tests). *)

val indexes : t -> Index.Btree.t list
(** Both namespace indexes, for logical REDO replay. *)

val index_maintenance_on_vacuum : t -> Relstore.Heap.record -> unit
(** [on_remove] hook: drop index entries for a vacuumed record. *)

val crash_reset : t -> unit
(** Forget volatile index state after a simulated machine crash. *)

val audit_indexes : t -> Index.Audit.index list
(** Both trees with the key each [naming] record version is indexed
    under: the input {!audit} hands to {!Index.Audit.run}. *)

val audit : t -> Index.Audit.verdict
(** Crash-recovery audit ({!Index.Audit.run}) of the [naming] heap's pages
    and both namespace indexes: every committed catalog record reachable
    by (parent, name) and by oid, no entry dangling or aliased. *)

val rebuild_indexes : t -> unit
(** Reconstruct both indexes from the [naming] heap. *)
