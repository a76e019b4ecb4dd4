(** A database instance: one mount point's worth of storage.

    Ties together the device switch, shared buffer cache, status log, lock
    manager and transaction manager, owns the relation catalog and the oid
    generator, and implements crash + instant recovery.  In the paper "a
    single database corresponds to a mount point in conventional file
    system architectures"; the Inversion layer builds one file system per
    [Db.t].

    Catalog and counters model POSTGRES system state that is itself stored
    transactionally; we treat them as durable (they survive {!crash}),
    which is documented in DESIGN.md. *)

type t

val create :
  ?cache_capacity:int ->
  ?os_cache_blocks:int ->
  ?readahead_window:int ->
  ?switch:Pagestore.Switch.t ->
  ?clock:Simclock.Clock.t ->
  unit ->
  t
(** Build a database.  Without [switch], a fresh switch with a single
    magnetic disk named ["disk0"] is created.  [cache_capacity] defaults
    to 300 pages (the Berkeley configuration).  [readahead_window] is
    passed to {!Pagestore.Bufcache.create} (0 disables read-ahead — the
    benchmark ablation uses this).  Commits always run in groups of
    {!Status_log.group_size}. *)

val clock : t -> Simclock.Clock.t
val switch : t -> Pagestore.Switch.t
val cache : t -> Pagestore.Bufcache.t
val status_log : t -> Status_log.t
val lock_mgr : t -> Lock_mgr.t
val txn_manager : t -> Txn.manager

val begin_txn : t -> Txn.t
val with_txn : t -> (Txn.t -> 'a) -> 'a

val now : t -> int64
(** Current simulated time in µs — the coordinate system for time travel. *)

val allocate_oid : t -> int64
(** A fresh, never-reused object identifier.  Survives crashes. *)

val create_relation : t -> name:string -> ?device:string -> unit -> Heap.t
(** Create a relation, placed on the named device (default: the switch's
    default device).  The placement is permanent; access thereafter is
    location-transparent.  Raises [Invalid_argument] on duplicate name,
    [Not_found] on unknown device. *)

val find_relation : t -> string -> Heap.t
(** Raises [Not_found]. *)

val relation_exists : t -> string -> bool

val drop_relation : t -> string -> unit
(** Drop the relation and release its storage.  Raises [Not_found]. *)

val rename_relation : t -> old_name:string -> new_name:string -> unit
(** Catalog rename (used by file migration to swap in the relocated
    relation).  Raises [Not_found] / [Invalid_argument] on a missing
    source or existing destination. *)

val relations : t -> string list
(** All relation names, sorted. *)

val force_group : t -> unit
(** The group-commit flush point ({!Txn.force_group}): flush dirty
    pages, then charge one stable status write for every pending
    commit (none when nothing is pending). *)

val crash : t -> unit
(** Simulate a machine failure and instant recovery: the buffer cache is
    lost, in-progress transactions become aborted, all locks vanish.
    Committed data (flushed at commit) is intact; no fsck, no log replay.
    The database is immediately usable. *)

val degraded_relations : t -> string list
(** Relations that currently cannot answer any I/O: the device they are
    placed on is dead ({!Pagestore.Device.kill} / [Fault_dead]) and no
    live mirror holds a copy.  Sorted.  The rest of the database keeps
    serving — this is degraded-mode operation, not failure. *)

val verify_relations :
  ?check:(Heap.t -> (unit, string) result) -> t -> (string * string) list
(** Run [check] (default {!Heap.verify}) over every relation and collect
    [(relation, problem)] pairs, in relation-name order; empty means every
    durable page passed its self-identification check.  A caller that
    audits a relation's indexes passes a [check] that runs the audit
    inside the same page pass ([Heap.verify ~on_record]).  Degraded
    relations (see {!degraded_relations}) are skipped — they are reported
    as degraded, not corrupt; a media failure raised by [check] is
    reported as a ["media failure: ..."] problem. *)

val archive : t -> Heap.t -> Heap.t Lazy.t
(** The archive tier of [heap], made when first forced: an append-only
    relation named after [heap] with the suffix [_arch], on a
    jukebox-class device if one is registered, else the default device.
    The relation that owns [heap] holds this value, and hands it on when
    a migration replaces [heap]; nothing finds an archive by its name. *)

val vacuum :
  t -> relation:string -> ?horizon:int64 -> mode:[ `Archive of Heap.t Lazy.t | `Discard ] ->
  ?on_remove:(Heap.record -> unit) -> unit -> Vacuum.stats
(** The full pass of the vacuum cleaner on one relation: one
    {!Vacuum.step} from block 0 over the whole heap, so it is crash-safe
    exactly as a step is (archive copies commit before any main-heap slot
    dies) and needs no quiescence: a relation a writer holds is skipped,
    reported as all zeros, just as a step gives way.  The incremental
    cursor of {!vacuum_step} is left alone.  [horizon] defaults to the
    safe horizon (everything already dead that no active transaction or
    snapshot/clone lease still needs) and is clamped to it when given
    explicitly.  In [`Archive] mode the archive ({!archive}) is forced
    after the pending commit batch is closed, so an archive is made by
    its relation's first archive pass. *)

(** {2 Incremental vacuum and time-travel leases} *)

val acquire_lease : t -> horizon:int64 -> int
(** Register an [As_of] horizon the vacuum must keep readable: history
    file descriptors and clone bases hold one for as long as they live.
    Returns a lease id for {!release_lease}.  Leases are volatile (a
    crash clears them along with the sessions that held them; durable
    holders re-register during reload). *)

val release_lease : t -> int -> unit
(** Drop a lease.  Unknown ids are ignored. *)

val vacuum_step :
  t -> relation:string -> ?horizon:int64 -> mode:[ `Archive of Heap.t Lazy.t | `Discard ] ->
  ?pages:int -> ?on_remove:(Heap.record -> unit) -> unit -> Vacuum.step_stats
(** One budgeted increment of the concurrent vacuum ({!Vacuum.step}) on
    one relation, resuming from the per-relation page cursor and
    advancing it.  [pages] bounds the window (default 4).  The horizon is
    clamped to {!safe_horizon} (an explicit [horizon] may only lower it).
    Safe under live traffic; gives way (s_skipped) to active writers. *)
