(** The transaction status file.

    POSTGRES's no-overwrite storage manager needs no write-ahead log: the
    only durable per-transaction state is "a special status file which
    indicates whether or not a transaction has committed" plus its commit
    time (paper, "The No-Overwrite Storage Manager").  Crash recovery is
    therefore instantaneous — readers just consult this log and ignore
    records whose inserting transaction never committed.

    The log survives {!crash}: a commit's status entry is stable once
    logged (we charge one small I/O per batch of commits, below).
    Transactions that were in progress at the crash are marked aborted by
    recovery.

    {b Group commit.}  A writing commit logs its status entry and does
    not pay its own stable write; one {!force_pending} (triggered by a
    full batch of {!group_size}, the {!max_age_s} age bound, or an
    explicit sync) charges {e one} force for the whole batch.  The status
    area is modeled as NVRAM-backed (a PRESTOserve-style stable buffer),
    so a logged entry already survives a crash — the batch force is an
    I/O-cost event, not a durability boundary. *)

type state = In_progress | Committed of int64  (** commit time, µs *) | Aborted

type t

val create : clock:Simclock.Clock.t -> t

val begin_txn : t -> Xid.t
(** Assign the next xid and record it as in progress. *)

val commit : ?force:bool -> t -> Xid.t -> int64
(** Mark committed at the current simulated time; returns the commit
    timestamp.  The entry joins the pending batch, to be covered by the
    next {!force_pending}, unless [force:false] (read-only transactions,
    which have nothing to make durable).  Raises [Invalid_argument] if
    the xid is not in progress. *)

val abort : t -> Xid.t -> unit
(** Mark aborted.  Idempotent on already-aborted transactions; raises
    [Invalid_argument] on a committed one. *)

(** {2 The batch force} *)

val group_size : int
(** Commits one force covers: a commit that fills a batch of 8 forces it. *)

val max_age_s : float
(** Age bound on a partial batch, 1 s of simulated time.  The log never
    polls its own clock; callers (the server pump) ask {!age_due} and
    then {!force_pending}. *)

val pending_force : t -> int
(** Commits enqueued and not yet covered by a batch force. *)

val force_pending : t -> int
(** Charge one stable write covering every pending commit; returns the
    batch size (0 = nothing pending, nothing charged).  Feeds the
    [txn.commit.group_size] histogram and [log.commit.durable] counter. *)

val age_due : t -> bool
(** Something is pending and the oldest logged commit has waited at
    least {!max_age_s}. *)

val state : t -> Xid.t -> state
(** Raises [Not_found] for an unknown xid. *)

val is_committed : t -> Xid.t -> bool
val commit_time : t -> Xid.t -> int64 option

val committed_before : t -> Xid.t -> int64 -> bool
(** [committed_before log xid t] — did [xid] commit at or before simulated
    time [t] (µs)?  This is the heart of time-travel visibility. *)

val active : t -> Xid.t list
(** Transactions currently in progress, ascending. *)

val oldest_active_start : t -> int64 option
(** Begin timestamp (µs) of the oldest in-progress transaction, or [None]
    when the system is quiescent.  The incremental vacuum clamps its
    horizon here so it can never reclaim a version an open transaction
    might still need. *)

val crash_recover : t -> unit
(** Simulate crash + instant recovery: every in-progress transaction is
    marked aborted.  Committed and aborted entries survive untouched
    (including enqueued-but-unforced commits — the status area is NVRAM-
    backed), the pending-force count resets, and the (volatile) xid counter is
    revalidated against the highest logged xid so post-recovery
    transactions never reuse one. *)
