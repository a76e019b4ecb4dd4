(** Differential vacuum-under-traffic harness (the [@vacuum] sweep).

    Runs the {!Crashtest}-style randomized workload — plus O(1)
    snapshots ({!Invfs.Fs.snapshot}) and copy-on-write clones
    ({!Invfs.Fs.clone}), which the oracle models as plain byte copies —
    while interleaving one budgeted increment of the concurrent archive
    vacuum ({!Invfs.Fs.vacuum_step}) at {e every} op boundary.  A
    seeded fault plan injects crashes at random device writes, so
    crashes land inside vacuum steps too (mid-copy, mid-kill).

    After every crash and at the end the harness demands:

    - the recovered tree is byte-identical to the oracle — the vacuum
      never reclaimed anything visible;
    - every remembered snapshot instant reads exactly what the oracle
      materialized then — time travel works through the WORM archive
      tier, with archived versions faulting back in on [As_of] reads;
    - the {!Invfs.Fsck} audit is clean, including its archive-tier
      phase (every record on write-once storage has a committed
      inserter {e and} a committed deleter).

    Everything is driven from one {!Simclock.Rng} seed: a failing seed
    reproduces the exact run. *)

(** Every run has 3 sessions, runs a 3-page vacuum increment after
    every op, forces a boundary crash every 30 ops, remembers a snapshot
    instant every 15 and schedules a transient I/O error every 45; files
    stay under 32 KB, in at most 8 directories. *)
type config = {
  ops : int;  (** workload length *)
  trace : bool;  (** print every op to stderr *)
}

val default_config : config
(** 160 ops. *)

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  crashes : int;
  injected_crashes : int;
  commits : int;
  aborts : int;
  lock_skips : int;
  io_faults : int;
  clones : int;  (** copy-on-write clones taken *)
  snapshots : int;  (** O(1) snapshot instants remembered *)
  vacuum_steps : int;  (** incremental vacuum increments run *)
  vacuum_skips : int;  (** steps that yielded to a foreground writer *)
  vacuum_scanned : int;
  vacuum_archived : int;  (** versions migrated to the WORM tier *)
  vacuum_discarded : int;  (** aborted-insert versions dropped outright *)
  archived_checked : int;  (** WORM-tier records audited by the last fsck *)
  time_travel_checks : int;
  full_verifies : int;
  mismatches : string list;  (** empty = the run is oracle-equivalent *)
}

val outcome_to_string : outcome -> string

val run : ?config:config -> seed:int64 -> unit -> outcome
