(** Heap relations: no-overwrite record storage.

    A heap is one relation's record store on one device — in Inversion,
    one file's chunk table, or a catalog like [naming] or [fileatt].
    Updates never overwrite: [delete] stamps the old version's [xmax],
    [update] stamps the old and appends the new, and readers pick versions
    by {!Snapshot} visibility.  "When a record is updated or deleted, the
    original record is marked invalid, but remains in place."

    Writers take an exclusive two-phase lock on the relation; readers take
    a shared lock.  All page traffic goes through the shared buffer cache,
    so simulated I/O cost accrues naturally.

    A heap made {e append-only} is an archive tier ({!Db.archive}): the
    vacuum moves a relation's dead versions there, and the indexed
    relation that owns it reads through to it under [As_of]. *)

type t

type record = {
  tid : Tid.t;
  oid : int64;
  xmin : Xid.t;
  xmax : Xid.t;
  payload : bytes;
}

exception Append_only of string
(** Raised by every overwrite/free operation ([insert], [delete],
    [update], [kill_tid], [compact_block]) on a heap serving as a WORM
    archive tier (created [~append_only:true]).  Only {!append_raw} and
    reads are legal there; the file-system layer surfaces this as
    [EROFS]. *)

val create :
  cache:Pagestore.Bufcache.t ->
  device:Pagestore.Device.t ->
  log:Status_log.t ->
  name:string ->
  relid:int64 ->
  append_only:bool ->
  t
(** Create an empty relation: allocates a fresh device segment.  An
    [append_only] heap is a WORM archive tier: every overwrite or free on
    it raises {!Append_only}, and its buffer-cache segment is pinned to
    the cold tier (history reads never evict the hot working set). *)

val name : t -> string

val rename : t -> string -> unit
(** Catalog rename; used only by {!Db.rename_relation} during file
    migration.  The lock resource name changes with it, so rename only
    while no transaction holds locks on the relation. *)

val relid : t -> int64
val device : t -> Pagestore.Device.t
val segid : t -> int
val nblocks : t -> int

val status_log : t -> Status_log.t
(** The status log visibility decisions for this heap consult. *)

val resource : t -> string
(** The lock-manager resource name for this relation. *)

val arm_cache_policy : t -> unit
(** Re-apply the cold-tier cache pin for an append-only heap — the
    cache-side flag is volatile; {!Db.crash} re-arms every archive after
    recovery. *)

val insert : t -> Txn.t -> oid:int64 -> bytes -> Tid.t
(** Append a record version stamped [xmin = xid].  Takes the relation's
    exclusive lock.  Payloads up to {!Heap_page.max_payload} bytes. *)

val delete : t -> Txn.t -> Tid.t -> unit
(** Stamp [xmax = xid] on the version at [tid].  Raises [Not_found] if the
    slot is dead/absent; [Invalid_argument] if already deleted by a
    committed or same transaction. *)

val update : t -> Txn.t -> Tid.t -> bytes -> Tid.t
(** Stamp the old version dead and [insert] the replacement with the same
    oid; returns the new version's TID.  The old version is fetched once
    (not re-fetched through [delete]); charges and locks are exactly one
    delete plus one insert. *)

val fetch : t -> Snapshot.t -> Tid.t -> record option
(** The version at [tid] if it exists and is visible.  Charges a shared
    read through the buffer cache (no lock: validation against locks is
    the caller's job via [read_lock]). *)

val fetch_any : t -> Tid.t -> record option
(** Like {!fetch} but ignores visibility (vacuum, debugging). *)

val append_raw : t -> oid:int64 -> xmin:Xid.t -> xmax:Xid.t -> bytes -> Tid.t
(** System-internal append preserving existing transaction stamps; used by
    the vacuum cleaner to move record versions into an archive without
    rewriting history.  Takes no locks. *)

val read_lock : t -> Txn.t -> unit
(** Take the relation's shared lock (two-phase read protection). *)

val write_lock : t -> Txn.t -> unit

val scan :
  ?where:(Heap_page.view -> bool) -> t -> Snapshot.t -> (record -> unit) -> unit
(** The visible records that pass [where] (default: every one), in
    physical order, main heap only: reading through to an archive is the
    owning relation's job ([Index.Indexed.scan]).

    [where] is the key test.  It runs on each record in place, while the
    record's page is pinned and before the visibility test (it is the
    cheaper of the two, and most records fail it), and only the records
    that pass both are copied out of the page; so a scan for one key
    copies one record, not the relation.  It must be a pure, total test
    of the view: it must not touch the buffer cache (that could evict the
    page under it) nor keep the view.  [f] runs on the copies after the
    pin is released, and may do both.  The key test never changes which
    pages the scan reads, in what order, or what it charges. *)

val scan_raw : ?where:(Heap_page.view -> bool) -> t -> (record -> unit) -> unit
(** Every record version that passes [where], regardless of visibility,
    main heap only, under {!scan}'s key-test contract.  Declares the scan
    to the buffer cache ({!hint_sequential}) so read-ahead arms from the
    first block. *)

val scan_block : t -> int -> (record -> unit) -> unit
(** Every record version on one page, regardless of visibility; a no-op
    for out-of-range block numbers.  The incremental vacuum's budgeted
    window walks pages one at a time with this. *)

val hint_sequential : t -> unit
(** Arm buffer-cache read-ahead for this relation's segment: the caller
    is about to walk its blocks in ascending order. *)

val kill_tid : t -> Tid.t -> unit
(** Vacuum only: mark the slot dead (see {!Heap_page.kill_slot}). *)

val compact_block : t -> int -> unit
(** Vacuum only: compact one page, preserving surviving TIDs. *)

val verify : ?on_record:(record -> unit) -> t -> (unit, string) result
(** Check every page's self-identification (relid, blkno, checksum where
    sealed) and report the first page that fails; the pass reads every
    page even after a failure.  The "fsck that never needs to run" —
    only media damage can make it fail.  A page that cannot be read at
    all raises {!Pagestore.Device.Media_failure}.

    With [on_record] the same read of each page also hands its records
    (every version, as {!scan_raw} yields them) to [on_record], so an
    audit of the relation's indexes needs no second pass.  A page that
    fails still yields what {!scan_raw} would find on it (nothing, if its
    slots do not decode). *)
