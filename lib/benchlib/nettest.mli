(** Differential network-fault harness: {!Crashtest}'s sibling for the
    client/server protocol.

    A fleet of {!Remote.Client} sessions drives {!Crashtest}'s randomized
    workload ({!Fsops}' ops, op mix and op runner on remote sessions)
    through real {!Remote.Wire} frames over {!Netsim.Link} connections
    while a seeded {!Faultsim} plan injects network faults (drop,
    duplicate, reorder, corrupt, one-way partition, poisoned
    server-crash frames) and device-level crashes mid-request.  A pure
    in-memory oracle tracks the committed state the run must produce;
    after every server crash the system recovers ({!Invfs.Recovery}) and
    the real tree is compared byte-for-byte, including time-travel reads
    of remembered instants.

    Exactly-once is the core assertion: retries, duplicates and dedup
    replays must never apply an operation twice, a client whose session
    dies mid-transaction must observe a clean abort with none of its
    writes visible, and the one genuinely ambiguous outcome — a Commit
    or auto-commit mutation whose session died before the reply — is
    resolved by a lock-free time-travel probe of the committed state,
    with the oracle following the probe. *)

(** Every run has 3 clients on a server with the default 120 s session
    lease; it schedules a random net fault every 4 ops and, every 12, a
    device-level crash mid-exec one time in four, crashes the server at
    an op boundary every 45 ops and remembers a time-travel instant
    every 25; files stay under 32 KB, in at most 8 directories. *)
type config = {
  ops : int;
  trace : bool;  (** per-op repro log on stderr *)
}

val default_config : config
(** 160 ops. *)

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  commits : int;
  aborts : int;
  lock_skips : int;
  io_faults : int;
  server_crashes : int;
  replays : int;  (** requests answered from a dedup window *)
  leases_expired : int;
  sessions_lost : int;
  reconnects : int;
  indeterminate : int;  (** ambiguous outcomes resolved by probe *)
  landed : int;  (** ...of which the probe said "it committed" *)
  messages : int;
  bytes_sent : int;
  retries : int;
  timeouts : int;
  net_faults : int;  (** fault-plan actions that actually fired *)
  time_travel_checks : int;
  full_verifies : int;
  mismatches : string list;  (** empty = oracle-equivalent *)
}

val outcome_to_string : outcome -> string

val run : ?config:config -> seed:int64 -> unit -> outcome
(** One seeded run.  Deterministic: the same seed and config replay the
    same op stream, fault schedule and message interleaving. *)
