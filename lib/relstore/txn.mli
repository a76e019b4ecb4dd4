(** Transactions.

    [p_begin] / [p_commit] / [p_abort] at the storage level.  Commit makes
    updates durable in the no-overwrite style: dirty buffer pages are
    forced to their devices {e first}, then the status-file entry is
    forced.  If a crash intervenes before the status write, the
    transaction simply never committed — its records are on disk but
    invisible, and recovery costs nothing.  Abort writes nothing back: the
    status entry is all it takes to undo.

    {b Group commit} is the only commit path: a writing commit logs its
    status entry, and one stable write covers each batch of
    {!Status_log.group_size} — paid by the commit that fills it, or by
    {!force_group} for a partial batch.  {b Deferred index inserts}
    ([set_deferred_index]): B-tree inserts stage into per-index overlays
    plus logical intents and are applied as sorted runs by hooks run at
    the flush point.

    Neither POSTGRES nor Inversion supports nested transactions, so a
    session may hold only one active transaction at a time; the manager
    enforces this per {!session}. *)

type manager

type t
(** One open transaction. *)

type state = Active | Committed | Aborted

val create_manager :
  clock:Simclock.Clock.t ->
  log:Status_log.t ->
  locks:Lock_mgr.t ->
  cache:Pagestore.Bufcache.t ->
  manager

val clock : manager -> Simclock.Clock.t
val log : manager -> Status_log.t
val locks : manager -> Lock_mgr.t
val cache : manager -> Pagestore.Bufcache.t

(** {2 Create-path knobs} *)

val set_deferred_index : manager -> bool -> unit
(** Stage index inserts in per-index overlays (applied sorted at the
    flush point) instead of descending the tree inside the operation. *)

val deferred_index : manager -> bool

val register_apply_hook : manager -> (unit -> unit) -> unit
(** Called by an index whose overlay just became non-empty; the hook
    applies (and empties) the overlay.  Hooks run once, in registration
    order, at the next flush point. *)

val force_group : manager -> unit
(** The group-commit flush point: run apply hooks, flush dirty pages,
    charge one stable status write for every pending commit, and drop
    settled intents.  A no-op when nothing is staged or pending.  Wrapped
    in a [log.flush] trace span carrying the batch size. *)

val crash_reset_manager : manager -> unit
(** Drop registered apply hooks (the overlays they would apply are
    volatile and gone). *)

val begin_txn : manager -> t
(** Start a transaction: assign an xid and record its start time. *)

val xid : t -> Xid.t
val state : t -> state
val start_time : t -> int64
val manager : t -> manager

val snapshot : t -> Snapshot.t
(** [Current (xid t)]. *)

val lock : t -> resource:string -> Lock_mgr.mode -> unit
(** Take a two-phase lock on behalf of this transaction.  Propagates
    {!Lock_mgr.Would_block} / {!Lock_mgr.Deadlock}.  Raises
    [Invalid_argument] if the transaction is no longer active. *)

val defers_index : t -> bool
(** Should index inserts made on behalf of this transaction stage into
    the deferred overlay?  True iff the transaction is active and the
    manager's deferred-index knob is on. *)

val log_index_intent : t -> tree:string -> key:string -> value:int64 -> unit
(** Record a logical index intent for this transaction in the status
    log, for REDO if the applied pages never reach disk. *)

val commit : t -> int64
(** Flush dirty pages, then log the status entry (forcing the batch if
    this commit fills it); release locks.  Returns the commit timestamp
    (µs).  Raises [Invalid_argument] if not active. *)

val abort : t -> unit
(** Mark aborted and release locks.  No data is written or unwritten —
    the beauty of no-overwrite.  Idempotent on an aborted transaction. *)

val with_txn : manager -> (t -> 'a) -> 'a
(** Run [f] in a fresh transaction: commit on return, abort if [f]
    raises. *)
