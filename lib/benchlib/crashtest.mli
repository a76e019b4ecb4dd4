(** Differential crash-recovery harness.

    Runs a randomized workload (create/write/append/truncate/rename/
    unlink/txn begin/commit/abort across several sessions) against the
    real {!Invfs.Fs} while a pure in-memory oracle tracks the committed
    state the file system must equal.  A seeded {!Faultsim} plan injects
    machine crashes at random device writes and transient I/O errors;
    after every crash the harness runs {!Invfs.Recovery.crash_and_recover}
    and then:

    - byte-compares the full recovered tree against the oracle's
      last-committed state,
    - replays time-travel ([As_of]) reads of remembered pre-crash
      committed instants,
    - requires the {!Invfs.Fsck} audit to be clean.

    Everything is driven from one {!Simclock.Rng} seed, so a failing seed
    reproduces the exact run (see DESIGN.md, "Reproducing a failing
    seed"). *)

type config = {
  ops : int;  (** workload length *)
  sessions : int;  (** concurrent client sessions *)
  crash_interval : int;  (** ops between forced boundary crashes *)
  snapshot_interval : int;  (** ops between remembered time-travel instants *)
  io_error_interval : int;  (** ops between scheduled transient I/O errors *)
  max_file_bytes : int;  (** soft cap on any one file's size *)
  max_dirs : int;  (** cap on directory count *)
  trace : bool;  (** print every op to stderr (reproducing a failing seed) *)
  mirrored : bool;  (** place the database on a mirrored device pair *)
  bitrot_interval : int;  (** ops between scheduled bitrot faults (0 = none) *)
  stuck_interval : int;  (** ops between scheduled stuck-block faults (0 = none) *)
  kill_mirror_at : int;  (** op index at which the mirror dies (0 = never) *)
  scrub_interval : int;  (** ops between background scrubber steps (0 = off) *)
}

val default_config : config
(** 200 ops, 3 sessions, boundary crash every 25 ops; no media decay. *)

val media_config : config
(** Mirrored pair under continuous bitrot and stuck blocks, with the
    background scrubber running — failover reads and scrub repairs must
    keep the run byte-identical to the oracle. *)

val media_kill_config : config
(** Mirrored pair whose secondary is killed mid-run after a full scrub:
    the primary carries the rest of the workload alone. *)

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  crashes : int;  (** total recoveries (boundary + injected) *)
  injected_crashes : int;  (** crashes fired by the fault plan mid-op *)
  commits : int;  (** explicit p_commits that landed *)
  aborts : int;  (** explicit and forced aborts *)
  lock_skips : int;  (** ops skipped on EAGAIN/EDEADLK *)
  io_faults : int;  (** ops hit by injected transient I/O errors *)
  indexes_rebuilt : int;  (** B-tree indexes recovery had to rebuild *)
  time_travel_checks : int;
  full_verifies : int;
  media_events : int;
      (** media faults injected: stream-fired bitrot/stuck/dead plus
          latent rot planted directly for the scrubber *)
  scrub_repaired : int;  (** blocks the background scrubber healed *)
  cache_hits : int;  (** buffer-cache hits over the whole run *)
  cache_misses : int;
  cache_readaheads : int;  (** blocks prefetched by read-ahead *)
  cache_evictions : int;
  mismatches : string list;  (** empty = the run proved out *)
}

val outcome_to_string : outcome -> string

val run : ?config:config -> seed:int64 -> unit -> outcome
(** One full differential run on a fresh file system.  Deterministic:
    equal seeds (and configs) give equal outcomes. *)

val run_degraded : seed:int64 -> unit -> string list
(** Directed degraded-mode scenario: files placed alternately on two
    {e unmirrored} devices, then one device dies.  Checks that files on
    the survivor stay byte-identical, files on the dead device fail with
    [EIO] (never silently misread), and that {!Invfs.Fsck} and
    {!Invfs.Recovery} report exactly the dead device's relations as
    degraded while auditing clean.  Returns mismatches (empty = passed). *)
