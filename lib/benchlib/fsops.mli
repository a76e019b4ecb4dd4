(** The workload half shared by the harnesses that drive local
    {!Invfs.Fs} sessions ({!Crashtest} and {!Vacuumtest}): sessions with
    their {!Oracle} overlays, the op counters, the ops whose random draws
    are the same in both, one op's execution with its fault handling,
    and the post-crash check.  Each harness keeps its writes, truncates,
    op mix and fault model. *)

type sess = { id : int; mutable s : Invfs.Fs.session; ov : Oracle.overlay }

type t = {
  rng : Simclock.Rng.t;
  ora : Oracle.t;
  max_dirs : int;
  sessions : sess array;
  mutable ops_attempted : int;
  mutable ops_applied : int;
  mutable commits : int;
  mutable aborts : int;
  mutable lock_skips : int;
  mutable io_faults : int;
  mutable time_travel_checks : int;
}

val create :
  rng:Simclock.Rng.t -> ora:Oracle.t -> max_dirs:int -> sessions:int -> Invfs.Fs.t -> t

(** {1 Ops}

    Each returns what the oracle should record.  One that needs a file
    creates one instead when the session's view has none, and [mkdir]
    does so once [max_dirs] directories exist. *)

val create_file : t -> sess -> Oracle.updates
val mkdir : t -> sess -> Oracle.updates
val unlink : t -> sess -> Oracle.updates
val rename : t -> sess -> Oracle.updates

val read_check : t -> sess -> Oracle.updates
(** Logs a mismatch unless the file reads back as the session's view. *)

val begin_txn : t -> sess -> Oracle.updates
val commit : t -> sess -> Oracle.updates
val abort : t -> sess -> Oracle.updates

(** {1 Running} *)

val run_one : t -> gen:(sess -> sess -> Oracle.updates) -> crash:(unit -> unit) -> unit
(** One op, drawn by [gen], on a random session.  An injected crash goes
    to [crash]; a transient I/O error or a lock conflict aborts the
    session's transaction; a media failure or an unexpected error does
    too, and is logged as a mismatch. *)

val recovered : t -> Invfs.Fs.t -> unit
(** After crash recovery: fresh sessions with empty overlays, then the
    full-tree verify and the time-travel check through session 0. *)
