(** Network cost models: 10 Mbit/s Ethernet, TCP streams, UDP RPC.

    The paper's client/server experiments run over "TCP/IP over a
    10Mbit/sec Ethernet" between a DECstation 3100 and a DECsystem 5900,
    and conclude that "the client/server communication protocol used by
    the file system is much too heavy-weight": remote access adds 3–5
    seconds per 1 MB operation versus the single-process configuration.
    NFS uses lighter-weight UDP RPC.

    We model both as per-message CPU costs plus wire time:
    - every message pays per-segment protocol processing (TCP's is the
      heavy one — checksums, copies, small windows on a ~13 MIPS CPU),
    - bytes move at the Ethernet's bandwidth,
    - each direction pays propagation+interrupt latency.

    All time goes to the shared clock under ["net.*"] accounts.

    {!Link} adds an actual transport on top of the cost model: framed
    messages queued per direction, with a fault hook that can drop,
    duplicate, reorder, corrupt, partition, or poison (server-crash)
    individual messages — the substrate of [lib/remote]'s real
    client/server protocol. *)

type params = {
  bandwidth_bps : float;  (** wire speed; 10 Mbit/s *)
  latency_s : float;  (** one-way latency incl. interrupt handling *)
  mss : int;  (** bytes per segment on the wire *)
  per_segment_cpu_s : float;  (** protocol processing per segment *)
  per_call_cpu_s : float;  (** marshalling etc. per request/response *)
}

val tcp_1993 : params
(** Heavy-weight TCP/IP path of the Inversion client library. *)

val udp_rpc_1993 : params
(** Sun RPC / UDP as used by NFS. *)

type t

type net = t
(** Alias so {!Link}'s signature can name the enclosing type. *)

val create : clock:Simclock.Clock.t -> params -> t
val clock : t -> Simclock.Clock.t
val params : t -> params

val send : t -> bytes:int -> unit
(** One-way message of [bytes] payload: per-call CPU, segmentation,
    per-segment CPU, wire time, latency. *)

val call : t -> request:int -> reply:int -> unit
(** A round trip: request out, reply back. *)

val cost_of_send : t -> bytes:int -> float
(** What {!send} would charge, without charging it.  Pipelined-transfer
    models (windowed writes overlapping server work) use this to charge
    only the non-overlapped remainder. *)

val messages : t -> int
(** Lifetime message count (both directions). *)

val bytes_sent : t -> int

val retries : t -> int
(** RPC attempts re-sent after a timeout (clients call {!note_retry}). *)

val timeouts : t -> int
(** Per-call timeouts charged while waiting for a lost message. *)

val note_retry : t -> unit
val note_timeout : t -> unit

(** One client's connection to a server: two message queues (one per
    direction) carrying opaque frames, with an optional fault hook
    consulted on every send.

    Fault semantics (the taxonomy Faultsim schedules):
    - [Drop] — the message vanishes.
    - [Duplicate] — delivered now {e and} a second copy is held back,
      released behind the next message sent in the same direction, so the
      duplicate arrives late (after newer traffic) — the case that
      exercises the server's dedup window.
    - [Reorder] — held back and released behind the next message in the
      same direction: delivered out of order, or effectively delayed past
      the client's timeout if nothing follows soon.
    - [Corrupt] — delivered with flipped bytes; the receiver's per-frame
      CRC rejects it, which looks like a drop to the sender.
    - [Partition n] — a one-way partition: this message and the next
      [n-1] in the same direction are swallowed, then the path heals.
    - [Server_crash] — the frame is poisoned: the server machine crashes
      at the moment it receives it (mid-request), before executing or
      replying. *)
module Link : sig
  type dir = To_server | To_client

  type fault =
    | Drop
    | Duplicate
    | Reorder
    | Corrupt
    | Partition of int
    | Server_crash

  type t

  val create : net -> t
  (** A fresh connection charging its traffic to the given cost model. *)

  val net : t -> net

  val set_fault_hook : t -> (dir -> bytes:int -> fault option) option -> unit
  (** Consulted once per {!send}; returning a fault applies it to that
      message.  Faultsim's [arm_link] installs its plan here. *)

  val send : ?charge:bool -> t -> dir -> string -> unit
  (** Enqueue a frame.  [charge] (default true) advances the shared clock
      by {!cost_of_send}; pipelined senders pass [~charge:false] and
      account for overlap themselves.  Always counts toward
      {!messages}/{!bytes_sent}. *)

  val recv : t -> dir -> (string * bool) option
  (** Dequeue the oldest frame in a direction; the boolean marks a
      poisoned frame ([Server_crash]): the receiver must treat it as the
      machine dying mid-request. *)

  val pending : t -> dir -> int

  val peak_depth : t -> int
  (** High-water mark of either direction's queue since creation (or the
      last {!reset_peak_depth}): how deep requests stacked up behind a
      busy server — the load harness's queueing signal. *)

  val reset_peak_depth : t -> unit

  val clear : t -> unit
  (** Drop everything in flight (both directions, including held-back
      copies) — what a machine crash does to its connections. *)

  (** Per-link fault counters, in injection order of the taxonomy. *)

  val dropped : t -> int
  val duplicated : t -> int
  val corrupted : t -> int
  val partitioned : t -> int
  (** Messages swallowed by one-way partitions (includes the message the
      partition fired on). *)

  val faults_injected : t -> int
  (** Sends a fault acted on, of any kind. *)
end
