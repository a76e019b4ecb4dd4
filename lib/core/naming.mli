(** The file-system namespace catalog.

    One table models the whole hierarchy (paper, "Namespace and Metadata
    Management"):
    {v naming(filename = char[], parentid = object_id, file = object_id) v}
    A hierarchical namespace is imposed by entries pointing at their
    parent's oid; the root directory ["/"] has parent 0.  Two B-trees,
    declared once in an {!Index.Indexed.t}, accelerate (parent, name)
    lookups ([by_dir], keyed by the parent and the name's CRC) and
    oid → entry reverse lookups ([by_oid]); historical ([As_of]) reads
    bypass them and scan, which keeps them correct across vacuuming at
    the cost the paper acknowledges for historical access. *)

type t

type entry = {
  name : string;
  parentid : int64;
  file : int64;  (** the file's oid, "akin to an inode number" *)
  tid : Relstore.Tid.t;  (** physical address of this catalog record *)
}

val create : Relstore.Db.t -> t
(** Create the [naming] relation and its indexes on the switch's default
    device. *)

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

val relation : t -> Index.Indexed.t
(** The heap with [by_dir] and [by_oid]: what the recovery audit, the
    index rebuild and the vacuum work on. *)

val indexes : t -> Index.Btree.t list
(** [by_dir], then [by_oid]. *)
