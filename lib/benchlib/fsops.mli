(** The workload shared by the differential harnesses that drive
    Inversion sessions ({!Crashtest}, {!Nettest}, {!Vacuumtest},
    {!Shardtest} and {!Loadtest}): sessions with their {!Oracle}
    overlays, the op counters, the shared ops and op mix, one op's
    execution with its fault handling, and the post-crash check.  A
    session is a {!Remote.Conn.t}: local (an {!Invfs.Fs.session}),
    remote (a {!Remote.Client.t} speaking the wire protocol) or a fleet
    one (a {!Remote.Cluster.conn}: names through the coordinator, file
    data on the shards).  Every op runs the same random draws through
    any of them, so one seeded history can be checked through each; its
    calls go through {!Remote.Conn}, except a fleet's file data, which
    goes to the shard by the oid in [fleet_oids].  Each
    harness keeps its fault model and outcome record; {!Vacuumtest},
    {!Shardtest} and {!Loadtest} also keep their own op mix and the
    draws of the ops whose draws differ, each ending in a shared call
    ({!create_at}, {!write_at}, {!read_at}).  {!Loadtest} draws its own
    sessions too, and runs each op through {!apply}. *)

type probe
(** How to tell, after the session died with the reply in flight,
    whether an op's updates committed: a lock-free [As_of] read of the
    committed state through a fresh local session, or, for file content
    on a fleet, of the shard's authoritative copy
    ({!Remote.Cluster.peek_data}). *)

type sess = {
  id : int;
  mutable conn : Remote.Conn.t;
  ov : Oracle.overlay;
  mutable pending : (Oracle.updates * probe) option;
      (** the op in flight's updates and their probe, registered
          before its first mutating call *)
}

type t = {
  rng : Simclock.Rng.t;
  ora : Oracle.t;
  fs : Invfs.Fs.t;
      (** the file system under test (a fleet's coordinator), where
          probes and checks read *)
  max_dirs : int;
  max_file_bytes : int;
  sessions : sess array;
  fleet_oids : (int64, int64) Hashtbl.t;
      (** oracle oid -> the oid the fleet's coordinator assigned, which
          addresses the file's data on the shards; learned by one stat on
          the first data call that names the file, and shared by every
          session *)
  mutable current : sess option;  (** the session whose op is executing *)
  mutable ops_attempted : int;
  mutable ops_applied : int;
  mutable commits : int;
  mutable aborts : int;
  mutable lock_skips : int;
  mutable io_faults : int;
  mutable indeterminate : int;  (** session losses with an unknown outcome *)
  mutable landed : int;  (** ...of which the probe said "it committed" *)
  mutable time_travel_checks : int;
  mutable deadline_refusals : int;
      (** requests refused because their deadline had passed *)
}

val create :
  rng:Simclock.Rng.t ->
  ora:Oracle.t ->
  max_dirs:int ->
  max_file_bytes:int ->
  Invfs.Fs.t ->
  Remote.Conn.t array ->
  t
(** Session [i] runs on [conns.(i)].  File identities come from
    {!Oracle.fresh_oid}, which draws nothing, so a history is the same
    whichever kind of session runs it. *)

(** {1 Ops}

    Each returns what the oracle should record.  One that needs a file
    creates one instead when the session's view has none, and [mkdir]
    does so once [max_dirs] directories exist. *)

val create_file : t -> sess -> Oracle.updates
(** {!create_at} a fresh path in a directory the session sees. *)

val create_at : t -> sess -> string -> Oracle.updates
(** The end of every create: an empty file at the path, with a fresh
    identity. *)

val mkdir : t -> sess -> Oracle.updates
val unlink : t -> sess -> Oracle.updates
val rename : t -> sess -> Oracle.updates

val write : t -> sess -> Oracle.updates
(** Outside a transaction, one buffer of up to 6,800 bytes; inside one,
    up to three.  The buffers are drawn before the offset. *)

val draw_offset : t -> Simclock.Rng.t -> len:int -> int -> int
(** Where a write of the given length starts in a file of [len] bytes,
    drawn from the rng given: anywhere up to its end, or inside the
    existing extent when that could outgrow [max_file_bytes]. *)

val write_at : t -> sess -> string -> oid:int64 -> off:int -> bytes list -> Oracle.updates
(** The end of every write, whatever it drew: the buffers in turn from
    [off] of the file at the path, whose identity is [oid]. *)

val truncate : t -> grow:int -> sess -> Oracle.updates
(** To a length drawn up to [grow] bytes past the current one, within
    [max_file_bytes]. *)

val read_check : t -> sess -> Oracle.updates
(** {!read_at} a file the session sees. *)

val read_at : t -> sess -> string -> oid:int64 -> Oracle.updates
(** Logs a mismatch unless the file at the path, whose identity is
    [oid], reads back as the session's view.  A fleet session reads the
    committed length plus 64 bytes from the shard, so a file longer than
    the oracle's shows too. *)

val begin_txn : t -> sess -> Oracle.updates
val commit : t -> sess -> Oracle.updates
val abort : t -> sess -> Oracle.updates
(** [Invalid_argument] on a fleet session ({!Remote.Conn}): the fleet
    commits file data and names separately (ROADMAP item 13(b)). *)

val gen_op : t -> sess -> sess -> Oracle.updates
(** The shared op mix, adding writes of up to three segments and
    truncates that grow by up to 8,000 bytes: a session in a transaction
    commits or aborts it in time, and one outside sometimes begins one. *)

(** {1 Running} *)

type result =
  | Applied  (** the op returned, and the oracle recorded its updates *)
  | Skipped  (** it failed, and the ladder below handled it *)
  | Refused  (** its request was refused and never executed *)

val apply : t -> sess -> (sess -> Oracle.updates) -> result
(** Run one op on the session; {!field-current} names it while the op
    runs.  A lost session drops its overlay, first probing whether the
    op committed when the client says the outcome is unknown.  A
    transient I/O error, a lock conflict (a lock wait that timed out
    included) or an unlink race aborts the session's transaction; a
    media failure or an unexpected error does too, and is logged as a
    mismatch.  A request refused for its deadline
    ({!Remote.Client.deadline_refusal}) is counted in
    [deadline_refusals] and aborts the transaction too.  A fleet's
    [Wrong_shard] refusal (a stale placement, or a bucket mid-handoff)
    that outlives the conn's redirect budget is an unexpected error.
    An injected device crash propagates. *)

val refuse : t -> sess -> string -> result
(** [refuse w ss why]: the session's request was refused for its
    deadline (traced with [why]) and never executed.  Count it in
    [deadline_refusals], abort the session's transaction and return
    [Refused].  {!apply} calls it on a deadline refusal; a harness that
    gives an op up before sending it calls it directly. *)

val run_one : t -> gen:(sess -> sess -> Oracle.updates) -> crash:(unit -> unit) -> unit
(** {!apply} an op drawn by [gen] to a random session.  An injected
    device crash goes to [crash].  A refusal is logged as a mismatch:
    these harnesses set no deadline. *)

val safe_abort : t -> sess -> unit
(** Abort the session's transaction, if any, and drop its overlay. *)

val recovered : t -> unit
(** After crash recovery of a local-session workload: fresh sessions
    with empty overlays, then the full-tree verify and the time-travel
    check through session 0. *)
