(** Two-phase lock manager.

    "A standard database two-phase locking protocol [GRAY76] allows
    concurrent access to files while preventing simultaneous changes from
    interfering with one another" (paper, "Transaction Protection").  Locks
    are taken at relation granularity (one Inversion file = one relation)
    in shared or exclusive mode, held until the owning transaction commits
    or aborts, and conflicts are detected against a wait-for graph.

    The engine is a single-threaded simulation, so a conflicting request
    cannot literally sleep: it raises {!Would_block} and records a wait-for
    edge.  If the edge completes a cycle the request raises {!Deadlock}
    instead, naming a victim (the requester).  Callers — concurrency tests
    and the file-system layer — retry after the holder releases. *)

type mode = Shared | Exclusive

val mode_to_string : mode -> string

exception Would_block of { xid : Xid.t; resource : string; holders : Xid.t list }
(** The request conflicts with locks held by [holders]. *)

exception Deadlock of Xid.t
(** Granting the wait would close a cycle; the named xid should abort. *)

type t

val create : unit -> t

val acquire : t -> Xid.t -> resource:string -> mode -> unit
(** Grant the lock or raise {!Would_block} / {!Deadlock}.  Re-acquiring a
    held lock is a no-op; a Shared → Exclusive upgrade succeeds when the
    requester is the only holder.

    {b Writer fairness (no barging).}  A blocked request is remembered as
    a waiter on its resource until it acquires, or its transaction ends.
    While another transaction has a pending {e Exclusive} wait on a
    resource, fresh Shared requests from non-holders block behind it
    (the pending writers are reported as the [holders] of the
    {!Would_block}) — so a steady stream of readers cannot starve a
    writer.  Holders re-acquiring or upgrading are exempt. *)

val try_acquire : t -> Xid.t -> resource:string -> mode -> bool
(** Like {!acquire} but returns [false] instead of raising
    {!Would_block}.  Still raises {!Deadlock}. *)

val release_all : t -> Xid.t -> unit
(** Strict two-phase release: drop every lock and wait-for edge of a
    transaction (called at commit/abort). *)

val holders : t -> resource:string -> (Xid.t * mode) list
(** Current holders of a resource (empty if unlocked). *)

val held_by : t -> Xid.t -> (string * mode) list
(** All locks a transaction holds, sorted by resource. *)

val locked_resources : t -> int
(** Number of resources some transaction holds a lock on.  A resource's
    entry goes with its last holder, so a commit's {!held_by} and
    {!release_all} cost the locks held, not every resource ever locked. *)

val waiting : t -> Xid.t -> Xid.t list
(** Transactions [xid] is currently recorded as waiting for. *)

val wait_queue_length : t -> int
(** Number of transactions currently recorded as blocked (the size of
    the wait-for table).  Also exported as the Obs probe
    ["lock.wait_queue"] by {!create} (last-created manager wins). *)

val release_generation : t -> int
(** Monotone counter bumped by every {!release_all}.  In a
    single-threaded simulation a blocked request can only have been
    unblocked by some transaction releasing, so a parked request need
    only re-try its acquisition when this has advanced — the remote
    server's event loop gates parked-request resumption on it. *)

val reset : t -> unit
(** Drop every lock and wait-for edge.  Locks are volatile state: crash
    recovery calls this. *)
