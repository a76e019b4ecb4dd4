(** The workload shared by the differential harnesses that drive
    Inversion sessions ({!Crashtest}, {!Nettest} and {!Vacuumtest}):
    sessions with their {!Oracle} overlays, the op counters, the shared
    ops and op mix, one op's execution with its fault handling, and the
    post-crash check.  A session is local (an {!Invfs.Fs.session}) or
    remote (a {!Remote.Client.t} speaking the wire protocol); every op
    runs the same random draws through either, so one seeded history can
    be checked through both.  Each harness keeps its fault model and
    outcome record; {!Vacuumtest} also keeps its own writes, truncates,
    clones and op mix, whose draws differ. *)

type conn = Local of Invfs.Fs.session | Remote of Remote.Client.t

(** The calls an op makes, on either kind of session. *)
module Conn : sig
  val write : conn -> string -> off:int -> bytes list -> unit
  (** Open for update, seek to [off], write each buffer in turn, close. *)

  val truncate : conn -> string -> int -> unit
  val clone : conn -> src:string -> dst:string -> unit
end

type probe
(** How to tell, after the session died with the reply in flight,
    whether an op's updates committed: a lock-free [As_of] read of the
    committed state through a fresh local session. *)

type sess = {
  id : int;
  mutable conn : conn;
  ov : Oracle.overlay;
  mutable pending : (Oracle.updates * probe) option;
      (** the op in flight's updates and their probe, registered
          before its first mutating call *)
}

type t = {
  rng : Simclock.Rng.t;
  ora : Oracle.t;
  fs : Invfs.Fs.t;  (** the file system under test, where probes and checks read *)
  max_dirs : int;
  max_file_bytes : int;
  sessions : sess array;
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
}

val create :
  rng:Simclock.Rng.t ->
  ora:Oracle.t ->
  max_dirs:int ->
  max_file_bytes:int ->
  Invfs.Fs.t ->
  conn array ->
  t
(** Session [i] runs on [conns.(i)].  File identities come from
    {!Oracle.fresh_oid}, which draws nothing, so a history is the same
    whichever kind of session runs it. *)

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

val gen_op : t -> sess -> sess -> Oracle.updates
(** The shared op mix, adding writes of up to three segments and
    truncates within [max_file_bytes]: a session in a transaction
    commits or aborts it in time, and one outside sometimes begins one. *)

(** {1 Running} *)

val run_one : t -> gen:(sess -> sess -> Oracle.updates) -> crash:(unit -> unit) -> unit
(** One op, drawn by [gen], on a random session; {!field-current} names
    that session while the op runs.  An injected device crash goes to
    [crash].  A lost session drops its overlay, first probing whether
    the op committed when the client says the outcome is unknown.  A
    transient I/O error, a lock conflict or an unlink race aborts the
    session's transaction; a media failure or an unexpected error does
    too, and is logged as a mismatch. *)

val safe_abort : t -> sess -> unit
(** Abort the session's transaction, if any, and drop its overlay. *)

val recovered : t -> unit
(** After crash recovery of a local-session workload: fresh sessions
    with empty overlays, then the full-tree verify and the time-travel
    check through session 0. *)
