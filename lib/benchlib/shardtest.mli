(** Differential harness for the sharded fleet ({!Remote.Cluster}).

    {!Fsops}' fleet sessions — names through the coordinator, file data
    routed to owning shards by cached placement — run a randomized
    workload through {!Fsops.run_one} against the shared {!Oracle}, while
    a seeded fault plan injects message faults on every link (client,
    heartbeat and admin), mid-request crashes of any chosen member,
    boundary crashes rotating over the whole fleet, and heartbeat
    partitions long enough to drive real failovers (fence, handoff,
    redirect).  After every recovery and once more after convergence,
    {!verify} checks the coordinator namespace and every file's
    authoritative shard copy against the oracle. *)

(** Every run has 3 clients on a fleet of 3 shards and 16 buckets that
    heartbeats every 0.3 s; it schedules a random net fault every 4 ops,
    crashes a member at an op boundary every 50 (rotating over the
    fleet), and cuts a shard's heartbeat path every 45 ops, healing it 18
    ops later; files stay under 24 KB, in at most 6 directories. *)
type config = {
  ops : int;
  trace : bool;  (** per-op repro log on stderr *)
}

val default_config : config
(** 140 ops. *)

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  skips : int;  (** lock skips and I/O faults, as {!Fsops.run_one} counts them *)
  member_crashes : int;  (** across the whole fleet *)
  fence_events : int;
  handoffs : int;
  migrations : int;
  drops_done : int;
  stale_rejects : int;
  redirects : int;
  replays : int;
  reconnects : int;
  sessions_lost : int;
  indeterminate : int;
  landed : int;
  heartbeats : int;
  net_faults : int;
  messages : int;
  full_verifies : int;
  mismatches : string list;  (** empty iff the run was oracle-equivalent *)
}

val outcome_to_string : outcome -> string
val run : ?config:config -> seed:int64 -> unit -> outcome

val verify : Fsops.t -> Remote.Cluster.t -> phase:string -> unit
(** Walk the coordinator namespace [As_of] now, dotfiles hidden, check
    each file's oid against the one {!Fsops} learned, and hand the tree,
    with contents read from the authoritative shard copies, to
    {!Oracle.compare_tree}. *)

(** {2 Bench entry points}

    One simulated clock serializes every machine's work, so parallelism
    is modeled: {!Remote.Server.busy_s} meters each machine's share of
    simulated time, and saturated fleet throughput is ops over the
    bottleneck member's busy time. *)

type scale_point = {
  sp_shards : int;
  sp_ops : int;
  sp_wall_s : float;  (** serialized simulated time for the whole workload *)
  sp_bottleneck_s : float;  (** busiest member's share *)
  sp_throughput : float;  (** modeled saturated ops/s: ops / bottleneck *)
}

val scaleout : seed:int64 -> nshards:int -> scale_point
(** Fault-free fixed-payload write workload: 200 writes over
    [4 * nshards] files. *)

type blackout = {
  bo_blackout_s : float;  (** longest single-op stall after the cut *)
  bo_detect_s : float;  (** configured detection horizon ([dead_after]) *)
  bo_fence_events : int;
  bo_stale_rejects : int;
  bo_migrations : int;
  bo_consistent : bool;  (** every file readable and correct after failover *)
}

val failover_blackout : seed:int64 -> blackout
(** Steady writes while one shard's heartbeat path is cut, on the
    harness's fleet (3 shards, 16 buckets, a heartbeat every 0.3 s): the
    fence, failover and handoff happen underneath, and the longest
    single-op stall bounds the client-visible blackout. *)
