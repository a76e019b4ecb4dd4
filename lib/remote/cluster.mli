(** A sharded Inversion fleet: one {e coordinator} owning the namespace
    and the epoch-numbered placement map, plus N {e shard} servers owning
    chunk data, every machine a full stack (own disk, cache, database,
    {!Invfs.Fs}, {!Server}) on one simulated clock and network.

    {2 Placement, leases, fencing}

    [Wire.bucket_of] hashes a file's global oid into one of [nbuckets]
    buckets; the placement map assigns each bucket an owning shard and
    carries an {e epoch} that increments on every reassignment.  The map
    propagates only through heartbeat replies: each {!pump}, every shard
    whose interval elapsed sends {!Wire.Heartbeat} to the coordinator and
    the reply re-arms it — current epoch, ownership, and a {e serving
    lease} of two heartbeat intervals from receipt.

    Split brain is prevented from both ends.  A shard self-fences: every
    data op carries the client's cached epoch and is refused
    ({!Wire.Wrong_shard}) unless the lease is live, the epoch exact, and
    the bucket currently owned — so a shard cut off from the coordinator
    stops serving within one lease.  The coordinator is patient: it
    declares a shard dead only two leases (four heartbeat intervals)
    after its last heartbeat, so a new epoch exists only after the old
    owner's lease has provably expired.  A crashed shard reboots knowing
    nothing ([sh_epoch = 0], rejects everything) until the next
    heartbeat reply re-arms it.

    {2 Failover and handoff}

    Fencing a dead shard reassigns its buckets to live shards and queues
    {e handoffs}: the coordinator pulls each affected file whole from
    the source ({!Wire.Fetch_chunks}, deliberately unfenced — the
    storage/admin network stays reachable when the client network
    partitions) and pushes it to the new owner ({!Wire.Migrate_in},
    whole-copy overwrite, idempotent).  The handoff entry, and then the
    pending garbage-drop entry, live in the durable placement file in
    the coordinator's own namespace, so a crash of any machine
    mid-migration restarts the copy harmlessly.  While a bucket is in
    handoff the new owner refuses its data ops with a busy answer the
    client retry loop rides out; the source is already fenced — no
    window accepts writes, so the source copy stays authoritative until
    commit. *)

type t

val create :
  clock:Simclock.Clock.t ->
  net:Netsim.t ->
  rng:Simclock.Rng.t ->
  ?nshards:int ->
  ?nbuckets:int ->
  ?hb_interval:float ->
  unit ->
  t
(** Build and bootstrap a fleet (defaults: 2 shards, 16 buckets,
    heartbeat every 0.5 s; the lease is always [2 * hb_interval] and a
    shard is dead after [4 * hb_interval]).  Construction persists the
    initial placement (epoch 1, buckets round-robin) and runs a
    heartbeat round so every shard is armed before any client
    traffic. *)

val nshards : t -> int
val nbuckets : t -> int
val hb_interval : t -> float

val member_server : t -> int -> Server.t
(** Member 0 is the coordinator, 1..N the shards. *)

val pump : t -> unit
(** One cluster turn: due heartbeats out, every server pumped, heartbeat
    replies applied, failure detection, then any pending handoff and
    garbage-drop work.  Re-entrant calls (from the admin clients' own
    pumping) are no-ops. *)

val internal_links : t -> (int * Netsim.Link.t) list
(** The server-to-server connections — [(member tag, link)] for each
    heartbeat link (tag 0: server-bound traffic lands on the
    coordinator) and each admin link (tag of the shard it reaches) — so
    a fault plan can arm them like any client link. *)

val set_partitioned : t -> shard:int -> bool -> unit
(** Cut (or heal) a shard's heartbeat path, dropping traffic in flight.
    Client and admin links are untouched: this is the split-brain
    scenario — clients still reach a shard the coordinator cannot. *)

val crash_member : t -> int -> unit
(** Crash member [i] (0 = coordinator) mid-turn: volatile state gone,
    recovery runs, the coordinator reloads the durable placement map, a
    shard reboots unarmed and heartbeats immediately. *)

val set_before_recovery : t -> (int -> unit) -> unit
val set_after_recovery : t -> (int -> unit) -> unit
(** Harness hooks around any member's crash recovery (argument: member
    id).  [before_recovery] runs while the machine is down — the place
    to clear a fault schedule so recovery itself is not re-injected;
    [after_recovery] right after the member is back. *)

val set_on_migrate : t -> (oid:int64 -> bucket:int -> unit) option -> unit
(** Test hook called between the fetch and the push of every migrated
    file — the window where a crash must prove handoff idempotence. *)

val peek_data : t -> oid:int64 -> string
(** Authoritative durable chunk contents (lock-free time-travel read on
    the owning shard — the handoff source while a migration is in
    flight).  The oracle side of the differential harness. *)

(** {2 Composite connections} *)

type conn
(** One client's handle on the whole fleet: metadata ops travel to the
    coordinator, data ops are routed to the owning shard by a cached
    placement map.  On {!Wire.Wrong_shard} (surfaced as [ESTALE]: a
    stale placement, or a bucket mid-handoff) the conn stands back half
    a heartbeat, pumps the cluster, refreshes its cache and retries
    (bounded) — failover blackout is this loop riding out detection
    plus handoff. *)

val connect :
  t ->
  ?on_link:(int -> Netsim.Link.t -> unit) ->
  rng:Simclock.Rng.t ->
  unit ->
  conn
(** Create one link per member ([on_link] sees each with its member tag
    before the handshake, so harnesses can arm fault plans on it) and
    connect a {!Client} over each. *)

val coord : conn -> Client.t
(** The coordinator client: the full metadata API ([c_creat], [c_stat],
    [c_rename], transactions, ...). *)

val conn_cluster : conn -> t
(** The fleet the conn talks to. *)

val conn_clients : conn -> Client.t list
(** Every underlying client (coordinator first), for teardown. *)

val shard_read : conn -> oid:int64 -> off:int64 -> len:int -> string
val shard_write : conn -> oid:int64 -> off:int64 -> data:string -> int
val shard_truncate : conn -> oid:int64 -> size:int64 -> unit

val redirects : conn -> int
(** Data ops that were refused ([Wrong_shard]: a stale placement or a
    bucket mid-handoff) and retried after a placement refresh. *)

(** {2 Counters} *)

type stats = {
  epoch : int;
  fence_events : int;  (** failovers declared by the coordinator *)
  heartbeats_sent : int;
  heartbeats_seen : int;  (** received by the coordinator *)
  stale_rejects : int;
      (** data ops fenced for a stale placement or a lapsed lease, across
          all shards; a handoff refusal is counted in {!Server.sheds} *)
  migrations : int;  (** files pushed during handoffs *)
  handoffs_completed : int;
  handoffs_pending : int;
  drops_pending : int;
  drops_done : int;  (** stale bucket copies garbage-collected *)
}

val stats : t -> stats

val cross_shard_audit : t -> Invfs.Fsck.shard_report
(** The placement-map walk of {!Invfs.Fsck.cross_shard_audit} over this
    fleet's live state: the durable map, every oid the coordinator
    namespace references, and each shard's locally-resident chunk
    copies.  Clean means every copy sits where the map says — mid-run it
    tolerates in-flight handoffs and queued drops by the same rules the
    data plane enforces. *)
