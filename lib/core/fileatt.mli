(** Per-file attribute catalog.

    {v fileatt(file, owner, type, size, ctime, mtime, atime) v}
    plus two implementation fields the paper keeps in POSTGRES system
    state: the device the file's table lives on, and the segment id of its
    chunk-number B-tree (needed to reattach after a crash).  "A simple
    two-way table join of naming and fileatt can construct all the
    metadata for a given Inversion file." *)

type att = {
  file : int64;
  size : int64;
  owner : string;
  ftype : string;  (** file type name, "directory" for directories *)
  device : string;  (** device the data relation was created on *)
  index_segid : int;  (** chunk-index segment; -1 for directories *)
  compressed : bool;  (** chunks stored compressed *)
  ctime : int64;
  mtime : int64;
  atime : int64;
}

type t

val create : Relstore.Db.t -> ?device:string -> unit -> t
(** Create the [fileatt] relation and its oid index. *)

val insert : t -> Relstore.Txn.t -> att -> unit
(** Record attributes for a new file. *)

val get : t -> Relstore.Snapshot.t -> file:int64 -> att option

val set : t -> Relstore.Txn.t -> att -> unit
(** Replace the visible attribute record (no-overwrite update), so
    attribute history time-travels like everything else.  Raises
    [Not_found] if the file has no visible attributes. *)

val remove : t -> Relstore.Txn.t -> file:int64 -> unit
(** Delete the attribute record (file removal). *)

val find_any : t -> file:int64 -> att option
(** Any attribute version for the oid, visible or not — how the vacuum
    cleaner locates storage of unlinked files. *)

val iter_all : t -> Relstore.Snapshot.t -> (att -> unit) -> unit

val heap : t -> Relstore.Heap.t

val indexes : t -> Index.Btree.t list
(** The oid index, for logical REDO replay. *)

val index_maintenance_on_vacuum : t -> Relstore.Heap.record -> unit

val crash_reset : t -> unit
(** Forget volatile index state after a simulated machine crash. *)

val audit_indexes : t -> Index.Audit.index list
(** The oid tree with the key each [fileatt] record version is indexed
    under: the input {!audit} hands to {!Index.Audit.run}. *)

val audit : t -> Index.Audit.verdict
(** Crash-recovery audit ({!Index.Audit.run}) of the [fileatt] heap's
    pages and the oid index: every committed attribute record reachable
    under its oid, no entry dangling or aliased. *)

val rebuild_indexes : t -> unit
(** Reconstruct the oid index from the [fileatt] heap. *)
