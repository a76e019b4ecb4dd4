(** Framed, versioned wire protocol for the Inversion client/server path.

    The paper ran the client library over "TCP/IP over a 10Mbit/sec
    Ethernet"; this module is the message format of our real (simulated)
    protocol.  Every message is one or more {e frames}:

    {v
    offset  field
    0       magic "INVW"
    4       version (u16)
    6       kind: 0 = request, 1 = reply
    7       reserved (u8): written 0, ignored on read
    8       session id (i64)
    16      request id (i64)
    24      frame index (u16)   | large payloads fragment at
    26      frame count (u16)   | [max_fragment] bytes per frame
    28      fragment length (u32)
    32      CRC-32 of the whole frame (crc field zeroed), Pagestore.Page.crc32
    36      deadline (i64, absolute sim-clock µs; 0 = none)
    44..95  reserved
    96      fragment payload
    v}

    The deadline rides in previously-reserved header bytes, so version 1
    frames from older peers (all zeros there) decode as "no deadline".
    Byte 7 is ignored on read, so a frame from a peer that sets it
    decodes exactly as one that does not: backward compatible by
    construction.

    The 96-byte header matches the RPC header size the cost model always
    charged, so Table-3 numbers flow through unchanged — but now each
    charge corresponds to a frame that can be dropped, duplicated,
    reordered or corrupted in flight.  A corrupted frame fails its CRC at
    the receiver and is discarded, which the sender experiences as a
    drop.

    Requests are paired to replies by [(session id, request id)]; request
    ids are idempotency keys — a server replays its recorded reply for a
    request id it has already executed (the dedup window), which is what
    turns at-least-once retries into exactly-once-observed semantics.

    Streamed writes ([Write]) end with an explicit zero-length
    end-of-stream frame — the "that was all of it" marker of the windowed
    upload path the pipelined cost model prices.

    {2 One declaration per message}

    Every request is declared once, in one table in [wire.ml]: its tag
    byte, its name, its fields in wire order and its retry class.  The
    fields are built from a handful of wire types — byte, bool, signed
    i32, i64, string (an i32 length, then the bytes), option (a tag byte
    0 or 1, then the value), a bounded list (an i32 count, then the
    elements) and pair — all big-endian.  The encoder, the decoder,
    {!req_name}, the class queries ({!read_only}, {!reissuable},
    {!mutating}, {!relief}, {!deadline_exempt}) and the field listing
    the hostile-payload tests mutate ({!fields}) are all read off that
    table; decoding finds a request's declaration by its tag.  Replies
    and results are declared the same way.  Only {!req.Carry} is
    written by hand, because its last field is itself a request.

    A payload that is truncated, runs past its end, or holds a value its
    field refuses (a negative length, a count past its bound, an option
    or bool byte other than 0 or 1, an [Open] mode other than 0 or 1, an
    unknown errno) decodes as malformed. *)

val header_bytes : int
(** 96. *)

val max_fragment : int
(** Payload bytes per frame: {!Invfs.Chunk.capacity}[ + 64], one chunk
    plus record framing — the paper-era bulk-transfer unit. *)

val max_carried_closes : int
(** 256: the most deferred closes one {!req.Carry} may hold.  A longer
    count decodes as [`Malformed]. *)

val max_read_len : int
(** 4 MiB: the most data one read request returns.  The server clamps a
    longer [len] to this (a short read is in-contract), so one wire
    request never sizes a larger allocation. *)

(** One operation of the {!Invfs.Fs} client library, on the wire.
    [Hello] opens a session (its request id is a client nonce); [Bye]
    closes one; [Ping] is the liveness probe and needs no session;
    [Crash_server] is the test-only admin op that crashes the server
    machine and recovers it. *)
type req =
  | Hello
  | Bye
  | Ping
  | Begin
  | Commit
  | Abort
  | Creat of { path : string; device : string option; ftype : string option; compressed : bool }
  | Open of { path : string; mode : int; timestamp : int64 option }
  | Close of { fd : int }
  | Read of { fd : int; off : int64; len : int }
  | Write of { fd : int; off : int64; data : string }
  | Ftruncate of { fd : int; size : int64 }
  | Filesize of { fd : int }
  | Mkdir of { path : string }
  | Readdir of { path : string; timestamp : int64 option }
  | Unlink of { path : string }
  | Rmdir of { path : string }
  | Rename of { src : string; dst : string }
  | Stat of { path : string; timestamp : int64 option }
  | Exists of { path : string; timestamp : int64 option }
  | Query of { text : string; timestamp : int64 option }
  | Set_owner of { path : string; owner : string }
  | Set_type of { path : string; ftype : string }
  | Define_type of { name : string }
  | Crash_server
  | Heartbeat of { shard : int; epoch : int }
      (** shard → coordinator liveness beacon (control plane, no
          session); the reply carries the current placement map and
          renews the shard's serving lease *)
  | Get_placement  (** client → coordinator: fetch the placement map *)
  | Shard_read of { oid : int64; off : int64; len : int; epoch : int }
      (** data-plane read addressed by global oid; [epoch] is the
          client's cached placement epoch, fenced at the shard *)
  | Shard_write of { oid : int64; off : int64; data : string; epoch : int }
  | Shard_truncate of { oid : int64; size : int64; epoch : int }
  | Fetch_chunks of { oid : int64 }
      (** coordinator → shard handoff read: returns the shard's whole
          local copy, bypassing the epoch fence (the storage/admin
          network stays reachable when the client network partitions) *)
  | Migrate_in of { oid : int64; epoch : int; data : string }
      (** coordinator → shard handoff write: install a full copy of
          [oid]'s data; idempotent, so a restarted handoff re-sends *)
  | Drop_bucket of { bucket : int; epoch : int }
      (** coordinator → shard: delete local copies of every oid hashing
          to [bucket] (post-handoff garbage collection); idempotent *)
  | Snapshot
      (** capture a point-in-time version horizon; O(1) — the reply is
          the timestamp usable with the [timestamp] field of [Open],
          [Read_file], [Readdir], [Stat], [Exists] and [Query] *)
  | Clone of { src : string; dst : string }
      (** create [dst] as a copy-on-write clone of [src] at the current
          horizon; O(1) in file size *)
  | Vacuum_step of { pages : int }
      (** run one budgeted increment of the concurrent archive vacuum;
          the reply is the number of record versions scanned *)
  | Read_file of { path : string; timestamp : int64 option; off : int64; len : int }
      (** path-addressed read in one dispatch: open [path] (as of
          [timestamp] when given), read up to [len] bytes (clamped to
          {!max_read_len}) from [off], close.  Holds no fd, so it is
          read-only, parkable and safe to re-issue on a fresh session;
          the reply is the bytes read, short at end of file *)
  | Carry of { closes : int list; begin_txn : bool; req : req }
      (** the piggyback carrier: close every fd in [closes] (an fd the
          session no longer has is skipped, since fds are never reused
          within a session), then, when [begin_txn], begin a transaction
          unless one is already open, then execute [req], all in one
          dispatch.  Classified everywhere by [req]; [req] is never
          itself a carrier, and a request with nothing to carry is sent
          unwrapped, so every other frame encodes as before *)

val carried : req -> req
(** The request a {!req.Carry} carries; any other request itself. *)

val bucket_of : nbuckets:int -> int64 -> int
(** The placement bucket an oid's chunk range hashes to (mixed, so
    sequential oids spread). *)

val req_name : req -> string
(** The request's declared name ([p_read], [stat], ...); a carrier's is
    that of the request it carries. *)

(** {2 Class queries}

    Each reads the request's declared class; a {!req.Carry} is
    classified by the request it carries. *)

val read_only : req -> bool
(** It changes nothing, so a blocked one may park and re-execute from
    scratch: the path reads, and [Read] and [Filesize] on an fd. *)

val reissuable : req -> bool
(** After a lost session the client may silently re-issue it on the
    fresh one: the reads that name no fd, [Begin] and [Ping]. *)

val mutating : req -> bool
(** It changes stored state, so its reply lost with the session leaves
    the outcome indeterminate. *)

val relief : req -> bool
(** It releases what the session holds ([Abort], [Bye]): the server
    never refuses it for a passed deadline. *)

val deadline_exempt : req -> bool
(** The client sends it even when its deadline has passed: the relief
    requests and [Crash_server]. *)

val declared : (int * string) list
(** The tag and name of every declared request except {!req.Carry}, in
    tag order. *)

type field = [ `Byte | `Bool | `I32 | `I64 | `Str | `Opt | `Count ]
(** A field as it sits in a payload: [`Str] at its length prefix,
    [`Opt] at its tag byte, [`Count] at a list's element count. *)

val fields : req -> (field * int) list
(** Every field of the request's encoded payload with its byte offset,
    in wire order.  The carried request's fields follow a carrier's. *)

(** The placement map: [p_owner.(b)] is the shard id serving bucket [b]
    at [p_epoch]; [p_handoff] lists buckets mid-migration. *)
type placement = { p_epoch : int; p_owner : int array; p_handoff : int list }

type result =
  | R_unit
  | R_sid of int64
  | R_fd of int
  | R_int of int64
  | R_bool of bool
  | R_data of string
  | R_names of string list
  | R_rows of string list list
  | R_att of Invfs.Fileatt.att
  | R_placement of placement

type reply =
  | Ok_reply of { txn_open : bool; result : result }
      (** [txn_open] is the server's authoritative post-op transaction
          state, so the client stays in sync across faults *)
  | Err_reply of { txn_open : bool; code : Invfs.Errors.code; msg : string }
  | Io_fault_reply of { txn_open : bool }
      (** the op hit an injected transient I/O fault and did not complete *)
  | Unknown_session
      (** the server does not know this session: it crashed, or the
          session's lease expired.  The client must reconnect. *)
  | Overloaded of { retry_after_s : float }
      (** the shard refused this request before executing it, because
          its bucket is mid-handoff; the client should wait
          [retry_after_s] before re-offering.  Never recorded in the
          dedup window — a later retry of the same request id may be
          admitted and execute. *)
  | Unsupported of { opcode : int }
      (** the request decoded cleanly but its opcode is from a future
          protocol revision this server does not implement (version
          skew).  Definitive — recorded in the dedup window. *)
  | Wrong_shard of { epoch : int }
      (** the contacted shard refuses a data-plane op: the request's
          placement epoch is stale, the shard no longer (or does not
          yet) own the bucket, or its serving lease expired (self-fence
          after missed heartbeats).  [epoch] is the shard's view.
          Definitively not executed and never recorded in the dedup
          window — the client refreshes its placement cache from the
          coordinator and retries, possibly at a different shard. *)

val encode_request : ?deadline_us:int64 -> sid:int64 -> rid:int64 -> req -> string list
(** The frames of one request, in send order.  [deadline_us] (absolute
    simulated µs, 0 = none) tells the server when the caller will have
    given up.  A request that fits one frame is serialized straight into
    it, so the frame is the only copy of a [Write]'s data. *)

val encode_reply : sid:int64 -> rid:int64 -> reply -> string list

type payload = { buf : string; off : int; len : int }
(** A payload as the decoders read it: [len] bytes of [buf] from [off],
    in place.  A one-frame message's payload lies in its frame. *)

type hdr = {
  kind : int;
  sid : int64;
  rid : int64;
  frame_ix : int;
  nframes : int;
  deadline_us : int64;
  payload : payload;  (** in the frame *)
}

val decode_header : string -> hdr option
(** Parse and CRC-check one frame, in place: nothing is copied, and the
    CRC (taken with its own field read as zero) is one pass over the
    frame.  [None] means corrupt (drop it). *)

val decode_request : payload -> req option
(** Decode an assembled request payload.  A [Write]'s data is copied
    once, into the string the request carries. *)

val decode_request_any : payload -> [ `Req of req | `Unknown of int | `Malformed ]
(** Like {!decode_request} but distinguishes a cleanly-framed opcode
    from a future protocol revision ([`Unknown], answered with
    {!reply.Unsupported}) from a damaged payload ([`Malformed],
    dropped as wire noise). *)

val decode_reply : payload -> reply option

(** Fragment reassembly, keyed by [(kind, session id, request id)].
    Duplicate fragments (a retry resending what already arrived) are
    ignored; a retry's fragments complete a group a corrupted fragment
    left partial. *)
module Assembly : sig
  type t

  val create : unit -> t
  val reset : t -> unit

  val add : t -> hdr -> [ `Complete of payload | `Pending ]
  (** Returns the whole payload once every fragment of the frame's
      message has arrived: a one-frame message's in its frame, a longer
      one's joined into one fresh buffer. *)
end
