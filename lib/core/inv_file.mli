(** One Inversion file's storage: a uniquely-named table plus its
    chunk-number B-tree.

    "For every file, a uniquely-named table is created ... The name of the
    POSTGRES table storing data chunks for /etc/passwd would be inv23114."
    Chunk writes never overwrite: replacing chunk [n] stamps the old
    version dead and appends a new record, and the index keeps entries for
    {e all} versions so historical file states reconstruct from "an index
    on all of the file's available data, including both old and current
    blocks". *)

type t

val relname : int64 -> string
(** ["inv" ^ oid], e.g. [inv23114]. *)

val create :
  Relstore.Db.t -> oid:int64 -> device:string -> compressed:bool -> t
(** Create the file's table and index on the given device. *)

val create_named :
  Relstore.Db.t ->
  oid:int64 ->
  relname:string ->
  device:string ->
  compressed:bool ->
  t
(** Like {!create} but with an explicit relation name — migration builds
    the relocated copy under a temporary name, then renames it into
    place. *)

val attach :
  Relstore.Db.t -> oid:int64 -> index_segid:int -> compressed:bool -> t
(** Reattach to existing storage (after a crash, or on first touch after
    reopen).  Raises [Not_found] if the relation is missing. *)

val oid : t -> int64
val heap : t -> Relstore.Heap.t

val index : t -> Index.Btree.t
(** The chunk-number index, for the recovery audit. *)

val index_segid : t -> int
val device_name : t -> string
val is_compressed : t -> bool

val read_chunk : t -> Relstore.Snapshot.t -> chunkno:int64 -> bytes option
(** The chunk's (decompressed) file bytes visible under the snapshot.
    Historical snapshots fall back to an archive scan when the index
    misses (vacuumed versions).  Re-reading the chunk just read or
    written hits a validated last-chunk memo — the B-tree probe and the
    decode/decompress are skipped (the visibility fetch still runs and is
    still charged). *)

val hint_sequential : t -> unit
(** Arm the buffer cache's read-ahead for this file's heap segment — the
    caller is about to read an ascending range of chunks.  {!Fs.read_at}
    calls this for multi-chunk reads. *)

val write_chunk : t -> Relstore.Txn.t -> chunkno:int64 -> bytes -> unit
(** Replace (or create) the chunk: old version stamped dead, new version
    appended, index entry added.  Data must fit {!Chunk.capacity}; it is
    compressed first when the file was created [~compressed:true] and the
    chunk actually shrinks. *)

val delete_chunks_from : t -> Relstore.Txn.t -> chunkno:int64 -> unit
(** Stamp dead every visible chunk with number >= [chunkno] (truncation).
    As always, the versions stay readable in the past. *)

val iter_chunks : t -> Relstore.Snapshot.t -> (int64 -> bytes -> unit) -> unit
(** Visible chunks in physical order (migration, fsck); bytes are
    decompressed. *)

val copy_all_versions_to : t -> t -> unit
(** Migration helper: copy {e every} record version (stamps intact) into
    the destination and index them there, so history survives moving a
    file between devices. *)

val index_maintenance_on_vacuum : t -> Relstore.Heap.record -> unit
(** Drop the index entry of a vacuumed chunk version. *)

val crash_reset : t -> unit
(** Forget volatile per-file state after a simulated machine crash
    (currently the B-tree's cached entry count). *)

val audit_indexes : t -> Index.Audit.index list
(** The chunk tree with the key (chunk number) each version is indexed
    under: the input {!audit} hands to {!Index.Audit.run}. *)

val audit : t -> Index.Audit.verdict
(** Crash-recovery audit ({!Index.Audit.run}) of the file's heap pages
    and chunk index: every committed version reachable under its chunk
    number, no entry dangling or aliased.  (The index is update-in-place,
    so unlike the no-overwrite heap it {e can} be damaged by an
    ill-timed crash.)  A file with nothing committed passes whatever its
    index holds. *)

val rebuild_index : t -> unit
(** Reconstruct the chunk index from the heap (all versions re-inserted).
    The index keeps its segment id, so stored [index_segid] references
    stay valid. *)

val drop : t -> unit
(** Release the table and index storage. *)

val stored_bytes : t -> Relstore.Snapshot.t -> int
(** Total stored (possibly compressed) chunk-data bytes visible under the
    snapshot — storage-utilization reporting for the compression bench. *)
