(** Per-file attribute catalog.

    {v fileatt(file, owner, type, size, ctime, mtime, atime) v}
    plus two implementation fields the paper keeps in POSTGRES system
    state: the device the file's table lives on, and the segment id of its
    chunk-number B-tree (reported, and carried on the wire).  One B-tree,
    [by_oid], keyed by the record's oid, finds a file's current row; an
    [As_of] read scans instead.  "A simple
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

val insert : t -> Relstore.Txn.t -> att -> Relstore.Tid.t
(** Record attributes for a new file; returns the new record's TID. *)

val locate : t -> Relstore.Snapshot.t -> file:int64 -> (Relstore.Tid.t * att) option
(** The attribute record visible under the snapshot, with its TID, so
    a caller that goes on to {!update} or {!remove} it need not find it
    again. *)

val get : t -> Relstore.Snapshot.t -> file:int64 -> att option

val update : t -> Relstore.Txn.t -> Relstore.Tid.t -> att -> unit
(** Replace the attribute record at that TID (no-overwrite update), so
    attribute history time-travels like everything else.  The TID must
    be the version the transaction sees, as {!locate} or {!insert}
    returned it. *)

val set : t -> Relstore.Txn.t -> att -> unit
(** {!update} of the visible record for [att.file], found first.
    Raises [Not_found] if the file has no visible attributes. *)

val remove : t -> Relstore.Txn.t -> Relstore.Tid.t -> unit
(** Delete the attribute record at that TID (file removal). *)

val iter_all : t -> Relstore.Snapshot.t -> (att -> unit) -> unit

val heap : t -> Relstore.Heap.t

val relation : t -> Index.Indexed.t
(** The heap with [by_oid]: what the recovery audit, the index rebuild
    and the vacuum work on. *)
