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
(** Create the file's table and index on the given device; its archive
    is {!Relstore.Db.archive} of the table. *)

val oid : t -> int64
val heap : t -> Relstore.Heap.t

val relation : t -> Index.Indexed.t
(** The file's table and its one tree, [chunks], keyed by chunk number
    (read from the record's {!Chunk} header): what the recovery audit,
    the index rebuild and the vacuum work on. *)

val index : t -> Index.Btree.t
(** The chunk-number tree. *)

val index_segid : t -> int
val device_name : t -> string

val read_chunk : t -> Relstore.Snapshot.t -> chunkno:int64 -> bytes option
(** The chunk's (decompressed) file bytes visible under the snapshot,
    found by {!Index.Indexed.probe}.  Historical snapshots fall back to
    an archive scan when the index misses (vacuumed versions).
    Re-reading the chunk just read or written hits a validated last-chunk
    memo — the B-tree probe and the decode/decompress are skipped (the
    visibility fetch still runs and is still charged). *)

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

val migrate : t -> device:string -> t
(** Move the file's storage to [device]: copy {e every} record version
    (stamps intact) into a new table there, index them in a new tree,
    release this table and its tree, and rename the copy into place.  The
    copy keeps this relation's archive ({!Index.Indexed.archive}), so
    history survives moving a file between devices.  This handle is
    dead afterwards; use the one returned. *)

val on_vacuum : t -> Relstore.Heap.record -> unit
(** {!Index.Indexed.on_vacuum}, which also drops the last-chunk memo. *)

val crash : t -> unit
(** {!Index.Indexed.crash}, which also drops the last-chunk memo. *)

val stored_bytes : t -> Relstore.Snapshot.t -> int
(** Total stored (possibly compressed) chunk-data bytes visible under the
    snapshot — storage-utilization reporting for the compression bench. *)
