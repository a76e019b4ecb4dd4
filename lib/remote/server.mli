(** The Inversion server: an event-driven dispatch core exposing the
    {!Invfs.Fs} API over {!Wire} frames on {!Netsim.Link} connections.

    One server owns one file system and any number of client connections
    ({!attach}).  {!pump} is one turn of the event loop: timers first
    (lease expiry), then {e admission} — every connection's inbound
    queue drained, fragmented requests reassembled, each complete
    request either answered inline (control plane, dedup replays,
    deadline rejections) or placed on the {e run queue} — then {e execution}, which drains the run queue and drives
    the parked requests' timers.  Corrupt frames (CRC failure) are
    silently dropped, exactly as a damaged packet would be.

    {2 Exactly-once-observed semantics}

    Request ids are idempotency keys.  Each session records its recent
    replies in a {e dedup window}; a request id that already executed is
    answered by replaying the recorded reply, never by executing twice —
    so a retried-then-duplicated committed [p_write] is applied exactly
    once.  Duplicates older than the window are dropped (their client
    has provably moved on); duplicates of a request still queued or
    parked are dropped too (the original will answer).

    {2 Parking: blocking without blocking}

    A request that hits a lock conflict and is safe to re-execute from
    scratch — any read-only request, an auto-commit mutation (its
    implicit transaction rolled back when the wait surfaced), or a
    [Commit] (its flushes re-run idempotently) — {e parks}: it leaves
    the run queue and waits, its lock-manager wait-for edge intact, for
    either a lock release (parked requests re-try only when
    {!Relstore.Lock_mgr.release_generation} has advanced — in a
    single-threaded simulation nothing else can unblock them) or its
    lock-wait timer ([lock_wait_s]), which expires it with [ETIMEDOUT].
    A parked request whose own re-acquisition completes a deadlock cycle
    is the victim: the server aborts its transaction and answers
    [EDEADLK] with the transaction closed.  Mutations inside an open
    transaction never park (they may hold partial progress) and answer
    [EAGAIN] immediately, as before.

    {2 Deadlines and refusals}

    A request whose header deadline has already passed is refused with
    a {e recorded} [ETIMEDOUT] rejection (definitive: that request id
    will never execute), both at admission and again just before
    execution — the server never does work whose caller has given up.
    [Abort] and [Bye] are exempt: refusing work that releases resources
    only deepens an overload.  The one other refusal is a shard's for a
    bucket that is mid-handoff: {!Wire.Overloaded} with a fixed
    retry-after of 0.2 s, {e not} recorded in the dedup window, so a
    re-offer after the handoff commits executes.

    {2 Sessions, leases}

    [Hello] mints a session (its request id is a client nonce, deduped
    the same way).  A session idle past [lease_s] is reaped and its open
    transaction aborted, so a dead client's locks cannot block the rest
    of the system forever.  Requests on an unknown session — after a
    server crash, or a lease reaping — get {!Wire.Unknown_session},
    which tells the client to reconnect.

    {2 Crashes}

    A poisoned frame ({!Netsim.Link.fault.Server_crash}) or an injected
    device crash during execution kills the machine mid-request: all
    volatile state (sessions, dedup windows, fds, connection queues,
    partial reassemblies, the run queue, parked requests) is discarded
    and the crash handler runs — {!Invfs.Fs.crash_and_recover} by
    default; harnesses install one that clears their fault schedule and
    verifies the recovered state.  The commit path forces data pages
    before the status log, so a request that never replied either
    committed durably or left no trace: no observable partial
    progress. *)

type t

(** {2 Cluster roles}

    A server is standalone by default.  {!Cluster} assembles fleets: one
    {e coordinator} owning the namespace ([naming]/[fileatt]) plus the
    epoch-numbered placement map, and N {e shards} owning chunk data,
    addressed by [Wire.bucket_of] over the file's global oid.

    Shards learn the placement map (and renew their serving lease) from
    heartbeat replies; every data-plane op carries the client's cached
    epoch and is refused with {!Wire.Wrong_shard} unless the shard holds
    a live lease, the exact epoch, and current ownership of the bucket —
    the fence that makes failover safe against split brain.  Role state
    is volatile: a crashed shard comes back knowing nothing and serving
    nothing until the next heartbeat reply re-arms it. *)

type shard_role = {
  shard_id : int;
  nbuckets : int;
  mutable sh_epoch : int;  (** last learned placement epoch; 0 = unknown *)
  mutable sh_owner : int array;  (** bucket -> owning shard id at [sh_epoch] *)
  mutable sh_handoff : int list;  (** buckets mid-migration at [sh_epoch] *)
  mutable sh_lease_until : float;  (** serving lease; self-fence past this *)
  mutable sh_stale_rejects : int;  (** fenced data ops (no-split-brain count) *)
}

type coord_role = {
  c_nbuckets : int;
  mutable c_epoch : int;
  mutable c_owner : int array;  (** bucket -> owning shard id *)
  mutable c_handoff : (int * int * int) list;
      (** [(bucket, src, dst)] migrations in flight *)
  mutable c_drops : (int * int) list;
      (** [(bucket, shard)] stale copies awaiting [Drop_bucket] *)
  c_last_hb : (int, float) Hashtbl.t;  (** shard id -> last heartbeat arrival *)
  mutable c_heartbeats : int;
  mutable c_fence_events : int;  (** failovers declared *)
}

type role = Standalone | Coordinator of coord_role | Shard of shard_role

val set_role : t -> role -> unit
val role : t -> role

val create :
  fs:Invfs.Fs.t ->
  ?lease_s:float ->
  ?lock_wait_s:float ->
  ?vacuum_every_s:float ->
  ?vacuum_pages:int ->
  unit ->
  t
(** [lease_s] (default 120 simulated seconds; 0 disables) bounds how long
    a silent client's session survives.  Each session remembers its last
    16 replies for retransmissions to replay.  [lock_wait_s] (default 0) is how long a parked request may wait for
    its lock before expiring with [ETIMEDOUT]; the default expires
    same-pump, preserving the old immediate-conflict-reply behaviour.
    [vacuum_every_s] (default 0 = disabled) arms the background-vacuum
    timer slot: every that many simulated seconds the pump runs one
    budgeted {!Invfs.Fs.vacuum_step} increment of [vacuum_pages]
    (default 4) pages in archive mode before admitting requests — old
    versions migrate to the WORM tier continuously instead of in one
    full pass ({!Invfs.Fs.vacuum_all}). *)

val attach : t -> Netsim.Link.t -> unit
(** Accept a connection (idempotent).  Clients create a link and attach
    it before their [Hello]. *)

val fs : t -> Invfs.Fs.t
val set_on_crash : t -> (t -> unit) -> unit

val pump : t -> unit
(** One turn of the event loop (see above).  A mid-pump crash stops the
    turn (the machine is gone); by the time [pump] returns the crash
    handler has recovered it. *)

val crash_now : t -> unit
(** Crash the server machine immediately (the boundary-crash entry point
    for harnesses and the [Crash_server] admin op). *)

val busy_s : t -> float
(** Simulated seconds this machine has spent inside {!pump} — its share
    of the one global clock.  The cluster bench models scale-out
    throughput from the bottleneck member's busy time, since a single
    simulated clock serializes all machines' work. *)

val crashes : t -> int
val replays : t -> int
(** Requests answered from a dedup window instead of re-executing. *)

val leases_expired : t -> int

val fenced : t -> int
(** Sessions superseded by a fresh handshake on the same link: a
    reconnecting client's abandoned session is fenced off (its open
    transaction aborted) rather than left holding locks until the lease
    expires. *)

val requests : t -> int

(** {2 Event-loop health} *)

val parked_now : t -> int
(** Requests currently parked on a lock (probe ["net.server.parked"]). *)

val sheds : t -> int
(** Requests refused with {!Wire.Overloaded}, that is, for a bucket
    mid-handoff (counter ["net.server.sheds"]). *)

val deadline_rejects : t -> int
(** Requests refused (recorded [ETIMEDOUT]) because their propagated
    deadline had passed at admission or execution. *)

val deadline_expired : string
(** The words every deadline refusal's message begins with, this
    server's and {!Client}'s fail-fast alike; a lock wait that timed out
    ([ETIMEDOUT] too) says ["lock wait timed out"]. *)

val shard_path : int64 -> string
(** The file in a shard's own namespace that holds an oid's chunk range:
    ["/o<oid>"], flat under the root. *)

val oid_of_shard_name : string -> int64 option
(** The oid a root-directory entry of a shard holds, if it is a
    {!shard_path} name. *)

val parks : t -> int
(** Requests that parked on a lock conflict at least once. *)

val park_resumes : t -> int
(** Parked requests that resumed after a lock release and reached an
    answer (including [EDEADLK] victims). *)

val park_timeouts : t -> int
(** Parked requests expired by their lock-wait timer. *)

val deadlock_aborts : t -> int
(** Transactions the server aborted as deadlock victims. *)

val unsupported : t -> int
(** Cleanly-framed requests with an opcode from a future protocol
    revision, answered {!Wire.Unsupported}. *)

val fd_open : t -> int64 -> int -> bool
(** Whether session [sid] holds [fd] open on the server (false for an
    unknown session): how tests see when a deferred close has landed. *)

val txn_open : t -> int64 -> bool
(** Whether session [sid] has a transaction open on the server. *)

val vacuum_steps : t -> int
(** Background-vacuum increments this server has run (timer slot). *)
