(** The remote Inversion client library: the paper's [p_*] interface,
    spoken over the {!Wire} protocol to a {!Server}.

    {2 Reliability model}

    Every call is one request/reply exchange with:

    - a {e per-attempt timeout} of 350 ms, charged to the simulated clock
      when a message (or its reply) is lost;
    - {e bounded retries}: up to 6 retransmissions, the one after attempt
      k backed off 50 ms × 2{^k} (capped at 1 s) with 0.5–1.5x jitter
      (also clock-charged), every retry reusing the {e same request id} — the
      idempotency key the server's dedup window turns into
      exactly-once-observed semantics;
    - a {e session} that transparently reconnects when the server stops
      recognising it (crash, lease expiry); when retries run dry, up to 5
      liveness probes, backed off alike, decide whether the path is dead.  If the session dies while a
      transaction is open, the client observes a clean
      [Fs_error (ECONNRESET, "... transaction aborted")] — the server
      rolled the transaction back (crash) or its lease will abort it:
      partial progress is never visible.

    After a reset, side-effect-free session-free requests (stat, readdir,
    exists, query, open, whole-file read, begin) are silently re-issued
    on the fresh session — except inside a transaction, which reports
    itself aborted instead.  The one exception to that is a transaction
    that was nothing yet but the {!c_begin} riding the failed request:
    when the server answers that it no longer knows the session, the
    client begins again on the fresh session and re-sends the request
    once, still inside the transaction.  A lost reply to such a request
    still reports the transaction aborted.  A {e mutating auto-commit}
    request, or a [Commit] itself, whose session died before the reply
    arrived is the one genuinely ambiguous case in any RPC system; the
    client surfaces it honestly as
    [Fs_error (ECONNRESET, "... outcome indeterminate")] and the caller
    decides (the Nettest harness resolves it with a lock-free time-travel
    probe of the committed state).

    File positions are client-side state: seeks are free of round trips
    (except [Seek_end], which asks the server for the size) and every
    read/write carries its offset explicitly, keeping requests
    idempotent.

    {2 Refusals and deadlines}

    The client retries only a lost reply.  Every answer, a refusal
    included, goes back to the caller as one [Fs_error]: a shard's
    {!Wire.Wrong_shard} (a stale placement, or a bucket mid-handoff) as
    [ESTALE], which {!Cluster} rides out.

    An installed {!set_deadline} rides every request header.  A call
    whose deadline has already passed fails fast with
    [Fs_error (ETIMEDOUT, "deadline expired before sending ...")]
    without touching the wire; the server refuses (recorded, definitive)
    work whose deadline passed in flight; and the client stops
    retransmitting once the deadline passes — an already-sent mutation
    then resolves through the usual lost-reply accounting.  [Abort] and
    [Bye] are exempt: releasing resources is always worth sending. *)

type t

val connect : server:Server.t -> link:Netsim.Link.t -> rng:Simclock.Rng.t -> unit -> t
(** Attach the link to the server and establish a session ([Hello]).
    [rng] drives backoff jitter and connection nonces.
    [Fs_error (ECONNRESET, _)] if no session could be established. *)

val sid : t -> int64

val in_txn : t -> bool
(** Whether the caller is inside a transaction: the server's state from
    the last reply, or a {!c_begin} still waiting to ride the next
    request. *)

val begin_pending : t -> bool
(** Whether the caller's transaction is still only a {!c_begin} waiting
    to ride the next request.  Such a transaction has not reached the
    server, so a server crash or lease expiry does not end it. *)

val link : t -> Netsim.Link.t

val set_deadline : t -> float option -> unit
(** Install ([Some abs_s], absolute simulated seconds) or clear ([None],
    the default) the deadline propagated with every subsequent request.
    With no deadline installed the wire traffic is identical to older
    clients. *)

val deadline : t -> float option

(** {2 The client library} *)

val c_begin : t -> unit
(** Sends nothing: the transaction begins on the server just before the
    session's next request, which carries it ({!Wire.req.Carry}).  A
    begin followed directly by [c_commit] or [c_abort] never touches the
    wire.  Inside a transaction (pending or open) it is a real [Begin],
    and the server answers [Fs_error (ETXN, _)]. *)

val c_commit : t -> unit
val c_abort : t -> unit

val c_creat : t -> ?device:string -> string -> int
(** An uncompressed file of the default type. *)

val c_open : t -> ?timestamp:int64 -> string -> Invfs.Fs.open_mode -> int
val c_close : t -> int -> unit
(** Returns before the server drops the fd when nothing is buffered on
    it: the close rides the session's next request.  An fd written
    inside a transaction since its last flush point, and a historical
    ([?timestamp]) fd, close synchronously, so an error from the flush
    surfaces here. *)

val c_read : t -> int -> bytes -> int -> int
(** Read at the (client-tracked) file position into the buffer prefix. *)

val c_write : t -> int -> bytes -> int -> int
(** Write at the file position.  Bulk data streams through the windowed
    pipeline (wire time overlaps server work), ending in an explicit
    end-of-stream frame. *)

val c_lseek : t -> int -> int64 -> Invfs.Fs.whence -> int64
val c_tell : t -> int -> int64
val c_ftruncate : t -> int -> int64 -> unit
val c_mkdir : t -> string -> unit
val c_readdir : t -> ?timestamp:int64 -> string -> string list
val c_unlink : t -> string -> unit
val c_rmdir : t -> string -> unit
val c_rename : t -> string -> string -> unit
val c_stat : t -> ?timestamp:int64 -> string -> Invfs.Fileatt.att
val c_exists : t -> ?timestamp:int64 -> string -> bool

val c_query : t -> ?timestamp:int64 -> string -> string list list
(** POSTQUEL over the wire; rows come back as printed values. *)

val c_set_owner : t -> string -> string -> unit
val c_set_type : t -> string -> string -> unit
val c_define_type : t -> string -> unit

val c_crash_server : t -> unit
(** Admin/test op: crash the server machine and wait for it to recover.
    The client's own session dies with it and reconnects on next use. *)

(** {2 Cluster data-plane and admin ops}

    Used by {!Cluster} conns (data ops addressed by global oid, carrying
    the caller's cached placement epoch) and by the coordinator's handoff
    driver.  A {!Wire.Wrong_shard} refusal surfaces as
    [Fs_error (ESTALE, _)]: definitively not executed — refresh the
    placement cache and retry. *)

val c_get_placement : t -> Wire.placement
val c_shard_read : t -> oid:int64 -> off:int64 -> len:int -> epoch:int -> string
val c_shard_write : t -> oid:int64 -> off:int64 -> data:string -> epoch:int -> int
val c_shard_truncate : t -> oid:int64 -> size:int64 -> epoch:int -> unit

val c_fetch_chunks : t -> oid:int64 -> string
(** Whole local copy of [oid]'s chunk range, bypassing the epoch fence
    (handoff reads travel the storage/admin network). *)

val c_migrate_in : t -> oid:int64 -> epoch:int -> data:string -> unit
val c_drop_bucket : t -> bucket:int -> epoch:int -> unit

val c_snapshot : t -> int64
(** Capture a point-in-time version horizon on the server: O(1), no data
    copied.  The returned timestamp feeds the [?timestamp] argument of
    [c_open]/[c_readdir]/[c_stat]/[c_exists]/[c_query] for consistent
    time-travel reads, and [c_clone] on the server side. *)

val c_clone : t -> src:string -> dst:string -> unit
(** Create [dst] as a copy-on-write clone of [src] at the server's
    current horizon — O(1) in file size. *)

val c_vacuum_step : t -> ?pages:int -> unit -> int
(** Run one budgeted increment of the concurrent archive vacuum on the
    server; returns record versions scanned.  [pages <= 0] (the default)
    uses the server's configured budget. *)

val with_txn : t -> (t -> 'a) -> 'a
(** Run [f] inside one server-side transaction: begin, [f], commit; any
    exception aborts first.  Joins (and leaves open) a transaction the
    caller already has — the WTF-style batching combinator for atomic
    multi-file operations. *)

val write_file : t -> string -> bytes -> unit
(** Create-or-truncate and write whole contents in one transaction. *)

val write_many : t -> (string * bytes) list -> unit
(** Replace every listed file atomically: one transaction, all-or-nothing
    across crashes and faults (the paper's batched-operations interface). *)

val read_whole_file : t -> ?timestamp:int64 -> string -> bytes
(** The whole file, in one {!Wire.Read_file} round trip per
    {!Wire.max_read_len} bytes: a file up to that size is read from one
    snapshot; a longer one is read in slices, each its own snapshot
    unless [timestamp] pins them all.  [Fs_error (ENOENT|EISDIR, _)] as
    for [c_open]. *)

val outcome_indeterminate : string -> bool
(** Whether an [Fs_error (ECONNRESET, msg)] from this client says the
    session died after a [Commit] or a mutating auto-commit request went
    out: the one case where the caller must find out for itself whether
    the request took effect. *)

val deadline_refusal : Invfs.Errors.code -> string -> bool
(** Whether an [Fs_error (code, msg)] from this client says the request
    was refused for its deadline (the client's fail-fast or the server's
    rejection) and never executed.  The session and its transaction
    survive it.  A lock wait that timed out ([ETIMEDOUT] too) executed
    and is not one. *)

(** {2 Reliability counters} *)

val retries : t -> int
val timeouts : t -> int
val reconnects : t -> int

val sessions_lost : t -> int
(** Times the session could not be recovered (crash/lease/unreachable). *)

val deadline_failfasts : t -> int
(** Calls refused client-side because the deadline had already passed
    before anything was sent. *)

val piggybacked : t -> int
(** Closes and begins that rode another request instead of paying their
    own round trip (probe ["net.client.piggybacked"]). *)

