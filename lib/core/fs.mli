(** The Inversion file system.

    The public face of the reproduction: the paper's client library
    (Figure 2) —

    {v
    int p_creat(char *path, int mode)
    int p_open(char *fname, int mode, int timestamp)
    int p_close(int fd)
    int p_read(int fd, char *buf, int len)
    int p_write(int fd, char *buf, int len)
    int p_lseek(int fd, long off_hi, long off_lo, int whence)
    p_begin() / p_commit() / p_abort()
    v}

    — plus the namespace operations, typed files with registered
    functions, POSTQUEL queries over metadata, time travel, crash
    recovery, and compression.

    {2 Sessions and transactions}

    A {!session} models one client program linked against the library.
    "Neither POSTGRES nor Inversion supports nested transactions, so a
    single application program may only have one transaction active at any
    time": {!p_begin} with a transaction already open raises
    [Fs_error (ETXN, _)].  Operations outside an explicit transaction
    auto-commit individually.

    {2 Time travel}

    [p_open ~timestamp] (µs of simulated time) opens the file as of that
    instant; historical opens are read-only ([EROFS] on write).  The same
    timestamp option applies to {!readdir}, {!stat} and {!query}, so the
    whole file-system state at any past moment is inspectable.

    {2 Write coalescing}

    "Multiple small sequential writes during a single transaction are
    coalesced to maximize the size of the chunk stored in each database
    record."  Pending bytes flush on read, seek, close, commit, or when a
    full chunk accumulates.  Outside an explicit transaction each write
    stands alone, so nothing coalesces (each op is its own transaction,
    exactly the NFS-like discipline the paper contrasts against). *)

type t
type session
type fd = int

type open_mode = Rdonly | Rdwr
type whence = Seek_set | Seek_cur | Seek_end

val make : Relstore.Db.t -> unit -> t
(** Build a file system in the database: creates the [naming] and
    [fileatt] catalogs and the root directory ["/"], defines the built-in
    ["directory"] type and registers the built-in query functions
    ([owner], [size], [filetype], [dir], [ctime], [mtime], [atime],
    [name]).  A file's [atime] is set when it is created; reads do not
    update it.
    File tables land on the switch's default device when [p_creat] does
    not say otherwise. *)

val db : t -> Relstore.Db.t
val clock : t -> Simclock.Clock.t
val registry : t -> Postquel.Registry.t
val root_oid : t -> int64
val chunk_capacity : int
(** Bytes of file data per chunk (8130). *)

(* {2 Sessions and transactions} *)

val new_session : t -> session
val fs : session -> t

val p_begin : session -> unit
val p_commit : session -> unit
val p_abort : session -> unit
val in_transaction : session -> bool

val with_transaction : session -> (unit -> 'a) -> 'a
(** [p_begin], run, [p_commit]; [p_abort] if the function raises. *)

(* {2 The file interface} *)

val p_creat :
  session ->
  ?device:string ->
  ?ftype:string ->
  ?owner:string ->
  ?compressed:bool ->
  string ->
  fd
(** Create a file (the [mode] argument of the paper's [p_creat] encoded
    the target device; ours is a labelled argument) and open it
    read-write.  [compressed] turns on per-chunk compression.
    [EEXIST] if the name is taken. *)

val p_open : session -> ?timestamp:int64 -> string -> open_mode -> fd
(** Open an existing file.  [timestamp] gives a historical, read-only
    view: "Historical files may not be opened for writing." *)

val open_or_creat : session -> string -> fd
(** Open the file read-write, or create it with {!p_creat}'s defaults if
    the name is free: one transaction that resolves the path once.
    [EISDIR] on a directory. *)

val p_close : session -> fd -> unit
val p_read : session -> fd -> bytes -> int -> int
(** Read up to [len] bytes at the file position into the buffer prefix;
    returns the count (0 at EOF). *)

val p_write : session -> fd -> bytes -> int -> int
(** Write the first [len] bytes of the buffer at the file position.
    Returns [len].  [EROFS] on read-only and historical opens. *)

val p_lseek : session -> fd -> int64 -> whence -> int64
(** 64-bit seek (the paper splits the offset across two [long]s to reach
    17.6 TB files; OCaml has [int64]).  Returns the new position. *)

val ftruncate : session -> fd -> int64 -> unit
(** Set the file length: shrink stamps dead the chunks past the boundary
    and trims the boundary chunk; grow just extends (sparse).  [EROFS] on
    read-only/historical opens. *)

val p_tell : session -> fd -> int64
val fd_oid : session -> fd -> int64
(** The open file's oid (for registering per-file state in tests). *)

(* {2 Namespace} *)

val mkdir : session -> ?owner:string -> string -> unit
val readdir : session -> ?timestamp:int64 -> string -> string list
(** Entry names, sorted. *)

val unlink : session -> string -> unit
(** Remove a file's name and attributes.  Its data relation is retained,
    so the file remains reachable by time travel ("allows users to
    undelete files removed accidentally"); the vacuum cleaner is what
    eventually reclaims or archives the storage. *)

val rmdir : session -> string -> unit
(** [ENOTEMPTY] if the directory has entries. *)

val rename : session -> string -> string -> unit
(** Move/rename within the file system, atomically (it is one transaction
    over the naming table). *)

val stat : session -> ?timestamp:int64 -> string -> Fileatt.att
val exists : session -> ?timestamp:int64 -> string -> bool
val lookup_oid : session -> ?timestamp:int64 -> string -> int64

val resolve_oid_opt : session -> ?timestamp:int64 -> string -> int64 option
(** Like {!lookup_oid} but [None] instead of [ENOENT]. *)

val path_of_oid : session -> ?timestamp:int64 -> int64 -> string option
(** Reconstruct an absolute pathname from an oid (the paper's "construct
    pathnames for particular file identifiers"). *)

val set_owner : session -> string -> string -> unit
val set_type : session -> string -> string -> unit
(** Assign a declared file type to a file.  [EINVAL] if the type was
    never defined. *)

(* {2 Types, functions, queries} *)

type query_ctx = { qfs : t; snapshot : Relstore.Snapshot.t }
(** Context handed to registered file functions: which file system and
    which moment in time the enclosing query sees. *)

val define_type : t -> string -> unit
(** [define type NAME]. *)

val register_function :
  t ->
  name:string ->
  ?file_type:string ->
  ?arity:int ->
  (query_ctx -> Postquel.Value.t list -> Postquel.Value.t) ->
  unit
(** Register a user function for use in queries — the reproduction of
    "dynamically loaded into the POSTGRES data manager": the closure runs
    inside the storage engine with no data copied out. *)

val read_file_at : t -> Relstore.Snapshot.t -> oid:int64 -> bytes
(** Whole-file contents under a snapshot — the building block for file
    functions like [keywords] and [snow] (and the single-process
    benchmark, which runs as registered functions). *)

val read_file_snapshot : t -> Relstore.Snapshot.t -> string -> bytes option
(** Resolve a path and read the whole file under a snapshot ([None] if
    absent then).  Used by stored functions, whose {e source} is read
    under the calling query's snapshot. *)

val file_type_at : t -> Relstore.Snapshot.t -> int64 -> string option
(** A file's type under a snapshot (typed-function dispatch for nested
    calls inside stored functions). *)

val query : session -> ?timestamp:int64 -> string -> Postquel.Value.t list list
(** Run a [retrieve] over every file in the system; each row binds [file]
    (oid) and [filename].  [define type] statements are also accepted and
    return no rows.  A statement that does not lex or parse, or names an
    unknown function or calls one with the wrong argument count, is
    [Fs_error (EINVAL, _)]. *)

val with_query_snapshot : t -> Relstore.Snapshot.t -> (unit -> 'a) -> 'a
(** Evaluate [f] with registered functions seeing the given snapshot —
    for callers (like the migration rules engine) that evaluate query
    expressions outside {!query}. *)

(* {2 Maintenance} *)

val sync : t -> unit
(** The group-commit flush point ({!Relstore.Db.force_group}): flush
    dirty pages and charge the batched status force, if any commit is
    pending. *)

val crash : t -> unit
(** Crash the machine: buffer cache gone, open transactions rolled back,
    volatile index state forgotten.  Sessions created before the crash
    must be discarded.  Recovery is instantaneous — the next operation
    just runs; nothing is replayed.  A writing commit flushes its index
    pages before its status entry is logged, so every committed index
    entry is already on disk. *)

type recovery = {
  rolled_back : Relstore.Xid.t list;
      (** transactions in progress at the crash, now aborted *)
  page_problems : (string * string) list;
      (** (relation, problem) pairs from page verification; [[]] unless
          media faults tore a page *)
  catalogs_rebuilt : string list;
      (** of ["naming"], ["fileatt"]: catalogs whose B-tree indexes were
          damaged by the crash and rebuilt from their heaps *)
  file_indexes_rebuilt : int64 list;
      (** oids whose chunk indexes were rebuilt likewise *)
  degraded : string list;
      (** relations that cannot answer any I/O — placed on a dead device
          with no live mirror ({!Db.degraded_relations}).  The file system
          keeps serving everything else; operations touching these fail
          with [EIO]. *)
  relations_audited : string list;
      (** the relations restart audited, in relation-name order: those a
          dirty mark said the crash could have torn *)
}

val crash_and_recover : t -> recovery
(** Whole-system crash and recovery in one call: {!crash}, then the
    {!audit_relations} pass over the relations the crash could have
    torn, then rebuild from its heap every update-in-place B-tree index
    the audit found damaged.  Heaps are no-overwrite and every writing commit
    flushes the whole pool, so a crash can tear only relations with a
    store since the last complete flush: those whose heap or tree segment
    carries a dirty mark ({!Pagestore.Device.is_marked}) on either mirror
    copy.  Restart reads the mark tables (one NVRAM read per device) and
    audits only those; after a sync it reads no page at all.  Damage at rest in a clean
    relation is left to the page-CRC read path, the scrubber and
    {!Fsck.audit}, which keeps the full pass.  The no-overwrite heaps
    need no repair — that is the paper's recovery claim, and the
    returned report is its evidence. *)

val audit_relations :
  t -> (string * string) list * (string -> (unit, string) result option) * string list
(** Verify the pages of every relation
    ({!Relstore.Db.verify_relations}).  Every relation this file system
    made ({!relations}) is verified by its index audit
    ({!Index.Audit.run}), which checks its B-trees against the records
    of that same page pass.  The other relations (the archives) get the
    plain page check.  Returns the page problems, the index verdict by
    relation name ([None] for a relation not audited — unindexed,
    degraded, or with a heap page that could not be read, already a page
    problem), and the names of the relations audited, in name order. *)

val iter_file_handles : t -> (int64 -> Inv_file.t -> unit) -> unit
(** Every file's storage handle, in ascending oid order (recovery,
    fsck). *)

val relations : t -> Index.Indexed.t list
(** Every relation this file system made, in relation-name order: the
    catalogs, the clone map once a clone made it, and every file table
    (named or unlinked) from its create, clone or migration on.  Each
    owns its archive ({!Index.Indexed.archive}); {!Fsck.audit} checks
    that no other relation exists. *)

val naming_catalog : t -> Naming.t
val fileatt_catalog : t -> Fileatt.t
(** The catalogs (fsck and recovery audits). *)

val vacuum_file :
  t -> oid:int64 -> mode:[ `Archive | `Discard ] -> unit -> Relstore.Vacuum.stats
(** The full vacuum pass ({!Relstore.Db.vacuum}) over one file's chunk
    table, keeping its chunk index consistent.  Fails with [ENOENT] when
    the file has no storage handle. *)

val migrate_file : t -> oid:int64 -> device:string -> unit
(** Move a file's storage (all record versions, stamps intact, plus a
    rebuilt chunk index) to another device and update its attributes.
    The mechanism under the {!Migrate} rules engine — the paper's
    "Services Under Investigation" file-migration feature. *)

val vacuum_all : t -> mode:[ `Archive | `Discard ] -> unit -> Relstore.Vacuum.stats
(** The vacuum cleaner's full sweep: one full pass
    ({!Relstore.Db.vacuum}, a {!Relstore.Vacuum.step} over the whole heap)
    over each relation {!vacuum_step} walks — every relation this file
    system made ({!relations}), so every file table (including those of
    unlinked files, whose storage this is what finally reclaims or
    archives), the catalogs and the clone map.  In [`Archive] mode each
    relation's dead versions move to the archive it owns.  Summed stats.
    Needs no quiescence: a relation a writer holds is skipped, as a step
    gives way to it. *)

val vacuum_step :
  t ->
  ?pages:int ->
  mode:[ `Archive | `Discard ] ->
  unit ->
  (string * Relstore.Vacuum.step_stats) option
(** One budgeted increment of the {e concurrent} vacuum: steps one
    relation's next [pages]-page window (default 4), round-robin over
    every file table (named or unlinked), the catalogs and the clone
    map.  Returns the relation stepped and its stats ([None] on an empty
    system).  Safe under live traffic: runs as ordinary transactions at
    the {!Relstore.Db.safe_horizon} (never past an open transaction or a
    registered snapshot/clone lease), gives way instantly to writers
    ([s_skipped]), and survives a crash at any point — archive copies
    commit before main-heap slots die, and historical scans collapse the
    duplicates a crash window can leave. *)

(* {2 Snapshots and clones} *)

val snapshot : t -> int64
(** An O(1) file-system snapshot: settle pending commits and return a
    horizon timestamp strictly after them.  Reading [As_of] that horizon
    {e is} the snapshot; nothing is copied.  A vacuum lease at the
    horizon ({!Relstore.Db.acquire_lease} on {!db}) keeps a
    [`Discard]-mode vacuum from reclaiming its history ([`Archive]-mode
    vacuums preserve it regardless). *)

val clone : session -> src:string -> dst:string -> int64
(** An O(1) writable clone: create [dst] as a copy-on-write view of
    [src]'s committed state right now, sharing all chunk storage.  One
    transaction inserts the directory entry, attributes and a durable
    clone-map record — no data is copied; chunks materialize in the
    clone only when overwritten.  The clone holds a vacuum lease on its
    base horizon (re-registered on reload after a crash), so the base
    history stays readable even under [`Discard] vacuums.  Shrinking a
    clone below its base length materializes the surviving base chunks
    and severs the mapping.  Returns the new file's oid.  [EEXIST] if
    [dst] exists, [EISDIR] on directories, [ETXN] inside an explicit
    transaction (the clone is its own transaction). *)

val write_file : session -> string -> bytes -> unit
(** Convenience: create-or-truncate and write whole contents in one
    transaction, resolving the path once ({!open_or_creat}). *)

val read_whole_file : session -> ?timestamp:int64 -> string -> bytes
(** Convenience: open, read everything, close.  The read is one
    operation (one auto-commit transaction outside an explicit one) that
    reads the file's attribute row once. *)

val iter_files : t -> Relstore.Snapshot.t -> (Naming.entry -> Fileatt.att -> unit) -> unit
(** Every (naming, fileatt) join row visible under the snapshot — the
    query executor's row source, also used by migration and fsck. *)

val file_handle : t -> oid:int64 -> Inv_file.t option
(** The storage handle for a file oid, from the registry of what this
    file system made ([None] for directories). *)
