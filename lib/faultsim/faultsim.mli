(** Seeded fault injection over the simulated storage stack.

    A fault {e plan} counts block transfers per I/O stream — device reads,
    device writes, and buffer-cache write-backs — and fires scheduled
    faults when a stream's counter reaches a scheduled point.  Faults are
    expressed in transfer counts rather than wall-clock time so that a
    plan driven by a {!Simclock.Rng} seed replays bit-identically.

    The fault taxonomy (see DESIGN.md, "Crash recovery & fault
    injection"):

    - {!Torn}[ n] — a torn page: the first [n] bytes of the transfer land,
      the rest do not.  On writes the durable tail keeps the old image; on
      reads the tail comes back zeroed (the medium is untouched).
    - {!Io_error} — the transfer fails with {!Pagestore.Device.Io_fault};
      transient, a retry succeeds.
    - {!Crash} — the machine dies before the transfer lands:
      {!Pagestore.Device.Crash_injected} propagates to the harness, which
      then runs whole-system recovery.

    and the permanent media faults (DESIGN.md, "Media failure & degraded
    mode"):

    - {!Bitrot} — silent decay: a few stored bytes flip without the
      recorded checksum being updated.  The transfer succeeds; detection
      is the checksum-verified read path's job.
    - {!Stuck} — the targeted block goes permanently bad; this and every
      later transfer on it raises {!Pagestore.Device.Media_failure}.
    - {!Device_dead} — the whole device stops answering, permanently.

    Plans are armed by installing hooks into {!Pagestore.Device} and
    {!Pagestore.Bufcache}; {!disarm} removes them.  One plan may cover
    many devices (use {!arm_switch}); the per-stream counters are global
    to the plan, not per-device. *)

type io = Read | Write | Writeback

type action = Torn of int | Io_error | Crash | Bitrot | Stuck | Device_dead

type event = {
  seq : int;  (** value of the stream counter when the fault fired *)
  io : io;
  device : string;
  segid : int;
  blkno : int;
  action : action;
}

(** Network faults, fired on a fourth stream that counts every message
    sent over the plan's armed {!Netsim.Link}s (one global counter across
    links, like the io streams are global across devices).  Semantics are
    {!Netsim.Link.fault}'s:

    - {!Net_drop} — the message vanishes; the sender times out.
    - {!Net_duplicate} — a second copy arrives late, behind newer
      traffic: the server's dedup window must recognise it.
    - {!Net_reorder} — held back and delivered behind the next message
      in the same direction.
    - {!Net_corrupt} — bytes flip in flight; the per-frame CRC rejects
      it at the receiver.
    - {!Net_partition}[ n] — one-way partition swallowing [n] consecutive
      messages in one direction, then healing.
    - {!Net_server_crash} — the server machine crashes at the instant the
      message reaches it (mid-request, before executing or replying).
    - {!Net_crash_of}[ n] — like {!Net_server_crash}, but targeted at the
      server {e instance} whose links were armed with [~tag:n]: the due
      entry waits (other links' traffic keeps the counter advancing past
      it) until the next server-bound message on one of instance [n]'s
      links, and poisons that one.  This is how a multi-server fleet's
      fault plan crashes a {e chosen} member (coordinator or any shard)
      mid-request. *)
type net_action =
  | Net_drop
  | Net_duplicate
  | Net_reorder
  | Net_corrupt
  | Net_partition of int
  | Net_server_crash
  | Net_crash_of of int

type net_event = {
  nseq : int;  (** net-stream counter value when the fault fired *)
  ndir : Netsim.Link.dir;
  nbytes : int;
  naction : net_action;
}

type t

val create : unit -> t

val arm_device : t -> Pagestore.Device.t -> unit
(** Install this plan's fault hook on a device (idempotent). *)

val arm_switch : t -> Pagestore.Switch.t -> unit
(** {!arm_device} for every device behind the switch. *)

val arm_cache : t -> Pagestore.Bufcache.t -> unit
(** Install the plan's write-back hook so faults can fire at
    dirty-page-flush granularity ([io = Writeback]). *)

val arm_link : t -> ?tag:int -> Netsim.Link.t -> unit
(** Install the plan's network hook on a client/server connection
    (idempotent).  Messages on every armed link share one net-stream
    counter.  [tag] names the server instance behind this link (cluster
    harnesses tag every link to a member with its id) so
    {!Net_crash_of} can target it. *)

val disarm : t -> unit
(** Remove all hooks installed by this plan.  Scheduled-but-unfired
    faults stay scheduled (use {!clear_schedule} to drop them). *)

val schedule : t -> io:io -> after:int -> action -> unit
(** [schedule t ~io ~after action] fires [action] on the [after]-th next
    transfer of stream [io] (so [after:1] hits the very next one).
    Raises [Invalid_argument] — naming the offending argument, action and
    stream — if [after < 1], or for the media-level actions ([Torn],
    [Bitrot], [Stuck], [Device_dead]) on the [Writeback] stream: those act
    on the medium, so they belong on device-transfer streams. *)

val schedule_random : t -> Simclock.Rng.t -> io:io -> within:int -> action -> unit
(** Schedule [action] on a uniformly random transfer among the next
    [within] on stream [io]. *)

val schedule_random_crash : t -> Simclock.Rng.t -> within:int -> unit
(** Schedule a {!Crash} on a uniformly random device write among the next
    [within] writes. *)

val schedule_net : t -> after:int -> net_action -> unit
(** [schedule_net t ~after action] fires [action] on the [after]-th next
    message of the net stream ([after:1] hits the very next one).
    [Invalid_argument] if [after < 1] or a partition length is [< 1]. *)

val schedule_net_random : t -> Simclock.Rng.t -> within:int -> net_action -> unit
(** Schedule [action] on a uniformly random message among the next
    [within]. *)

val clear_schedule : t -> unit
(** Drop every scheduled-but-unfired fault, network ones included
    (counters and the event logs are kept).  Recovery code paths run
    under a cleared schedule. *)

val pending : t -> int
(** Scheduled device/writeback faults that have not fired yet (the net
    stream has its own {!net_pending}). *)

val net_pending : t -> int
(** Scheduled-but-unfired network faults. *)

val pending_media : t -> int
(** Scheduled-but-unfired faults that damage the medium ({!Torn},
    {!Bitrot}, {!Stuck}, {!Device_dead}).  Harnesses that must never
    damage both copies of a mirrored block keep at most one such fault
    in flight. *)

val events : t -> event list
(** Every fault that fired, oldest first. *)

val net_events : t -> net_event list
(** Every network fault that fired, oldest first. *)

val event_to_string : event -> string
val net_action_to_string : net_action -> string

val writebacks_seen : t -> int
(** Stream counters: transfers observed since the plan was created. *)
