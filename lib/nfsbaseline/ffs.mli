(** An FFS-style local file system model — the storage behind the ULTRIX
    NFS baseline.

    What matters for the paper's comparison is the {e cost character} of
    the 1984 Fast File System under an NFS server:

    - 8 KB blocks, allocated contiguously for sequential files
      (cylinder-group locality, [MCKU84]);
    - direct pointers cover the first 12 blocks; beyond that each access
      may touch an indirect pointer block, costing an extra I/O when
      cold — this is why random reads degrade;
    - {e no} per-data-page B-tree maintenance: the index (inode) is tiny
      and can be written once after the data, so file creation streams at
      near-disk speed — the very advantage Figure 3 shows over Inversion;
    - a server buffer cache makes re-reads free; NFS's statelessness
      forces every write to stable storage ([Sync]), unless PRESTOserve
      absorbs it ([Absorbed]).

    Metadata (name table, block maps) is held in memory and {e charged}
    as disk I/O per the rules above: this baseline is a cost model with
    real data contents, not a durable file system (it is never crashed in
    any experiment). *)

type t

type write_mode =
  | Sync  (** force data + inode to the platter now (stateless NFS) *)
  | Async  (** dirty in the buffer cache; charged at eviction or sync *)
  | Absorbed of Presto.t  (** PRESTOserve takes the force *)

val block_size : int
(** 8192. *)

val create : device:Pagestore.Device.t -> t
(** Format a file system on a magnetic-disk device, with a 2048-page
    (16 MB) server buffer cache and a 64-block metadata region whose
    position gives inode updates their seek cost. *)

val create_file : t -> string -> mode:write_mode -> int
(** Create an (empty) file in the flat root namespace, charging the
    directory and inode updates.  Returns the inode number.  Raises
    [Invalid_argument] if the name exists. *)

val lookup : t -> string -> int option
val size : t -> int -> int64
(** Raises [Not_found] for a bad inode. *)

val write : t -> ino:int -> off:int64 -> data:bytes -> mode:write_mode -> unit
val read : t -> ino:int -> off:int64 -> buf:bytes -> len:int -> int
(** Returns bytes read (short at EOF). *)

val sync : t -> unit
(** Charge out all dirty buffered blocks. *)

val drop_caches : t -> unit
(** [sync] then empty the buffer cache — "all caches were flushed before
    each test". *)

val device : t -> Pagestore.Device.t
