(** Storage device models behind the POSTGRES-style device manager switch.

    The paper's system stored data on non-volatile RAM, magnetic disk, and a
    327 GB Sony optical-disk WORM jukebox, all behind a [bdevsw]-style
    switch ("The Device Manager Switch").  We reproduce the three device
    classes as discrete-event cost models over an in-memory block store:

    - {b Magnetic disk} (DEC RZ58 class): seek time proportional to head
      travel, half-revolution rotational latency, ~2.1 MB/s transfer.
    - {b NVRAM}: memory-speed, survives crashes (the PRESTOserve board in
      the NFS baseline is built on this model).
    - {b WORM jukebox}: pages live on platters; touching a platter other
      than the one in the drive pays a multi-second load penalty; transfers
      are slow; a magnetic-disk block cache (10 MB by default, as in the
      paper) absorbs re-reads.  Physical blocks are write-once; logical
      rewrites allocate a fresh physical block, as the real Sony device
      manager did.

    All devices charge elapsed time to the shared {!Simclock.Clock.t} under
    accounts such as ["disk.seek"], ["disk.xfer"], ["jukebox.load"].
    Contents survive {!crash} (they model persistent media); only
    cost-model state such as head position is reset.  Each stored image
    is kept in memory without its longest run of zeros, so a mostly
    empty block costs the process its bytes, not 8 KB; every read still
    returns the whole page, and checksums and charges are the whole
    page's. *)

type kind = Magnetic_disk | Nvram | Worm_jukebox

val kind_to_string : kind -> string

type geometry = {
  seek_min_s : float;  (** single-track seek, seconds *)
  seek_max_s : float;  (** full-stroke seek, seconds *)
  rotation_s : float;  (** one revolution, seconds *)
  xfer_bytes_per_s : float;  (** sustained media transfer rate *)
  per_io_s : float;  (** fixed controller/driver overhead per I/O *)
  total_blocks : int;  (** capacity in 8 KB blocks, for seek scaling *)
  extent_blocks : int;
      (** largest allocation unit, physically contiguous (see
          {!allocate_block}) *)
  platter_blocks : int;  (** jukebox only: blocks per platter side *)
  platter_load_s : float;  (** jukebox only: platter exchange time *)
  cache_blocks : int;  (** jukebox only: magnetic-disk cache size *)
}

val rz58 : geometry
(** DEC RZ58-class magnetic disk (1.38 GB, ~12.9 ms average seek,
    5400 RPM, ~2.1 MB/s). *)

val nvram_geometry : geometry
(** Battery-backed RAM: microsecond access. *)

(** {1 Fault injection}

    A device can carry one fault hook, consulted on every block transfer
    ({!peek_block}/{!read_block} as [Io_read], {!poke_block}/{!write_block}
    as [Io_write]).  The hook decides, per transfer, whether the I/O
    completes cleanly ([None]) or suffers a fault.  [lib/faultsim] builds
    seeded fault plans on top of this; tests may install hooks directly. *)

type io_kind = Io_read | Io_write

type fault =
  | Fault_torn of int
      (** Only the first [n] bytes transfer.  On a write the tail of the
          durable block keeps its previous contents (classic torn page); on
          a read the tail comes back zeroed and the medium is untouched. *)
  | Fault_io_error  (** The transfer fails with {!Io_fault}; retryable. *)
  | Fault_crash
      (** The machine dies before the transfer lands: {!Crash_injected} is
          raised and the durable block is left unchanged. *)
  | Fault_bitrot
      (** Silent medium decay: a few stored bytes flip {e without} updating
          the recorded checksum.  The transfer itself succeeds (returning
          rotten data on a read), so only checksum verification — the
          {!Resilient} read path or {!Scrub} — notices. *)
  | Fault_stuck
      (** The block goes permanently bad: this transfer and every later one
          on the same block raises {!Media_failure}. *)
  | Fault_dead
      (** The whole device stops answering: this transfer and every later
          one on any block raises {!Media_failure}. *)

exception Io_fault of { device : string; segid : int; blkno : int }
exception Crash_injected of { device : string; segid : int; blkno : int }

exception
  Media_failure of { device : string; segid : int; blkno : int; reason : string }
(** A permanent fault: a dead device ([segid]/[blkno] may be [-1] for
    non-transfer operations such as segment creation), a stuck block, or —
    raised by the {!Resilient} layer — a checksum mismatch with no healthy
    mirror copy.  Unlike {!Io_fault} this must never be retried; callers
    fail over to a mirror or surface the error ([EIO]). *)

type fault_hook = io_kind -> segid:int -> blkno:int -> fault option

type t

val create : clock:Simclock.Clock.t -> name:string -> kind:kind -> unit -> t
(** A fresh, empty device with its kind's geometry ({!rz58} for a disk,
    {!nvram_geometry} for NVRAM, a Sony WORM jukebox's for a jukebox). *)

val name : t -> string

val id : t -> int
(** Process-unique interned id, assigned at {!create}.  The buffer cache
    packs it into integer page keys so the hot lookup path never hashes or
    compares device-name strings. *)

val kind : t -> kind
val clock : t -> Simclock.Clock.t

val create_segment : t -> int
(** Allocate a new empty segment (≈ one relation's storage) and return its
    id.  Segments grow block-at-a-time via {!allocate_block}. *)

val drop_segment : t -> int -> unit
(** Release a segment.  On WORM media the physical blocks are not
    reclaimed (write-once), only the logical mapping. *)

val segment_exists : t -> int -> bool

val nblocks : t -> int -> int
(** Current length of a segment in blocks. *)

val allocate_block : t -> int -> int
(** [allocate_block dev segid] extends the segment by one zeroed block and
    returns the new block number.  Allocation is extent-based: blocks of a
    segment are physically contiguous in runs, and when a run is used up
    the segment's next extent is as large as the segment already is,
    capped at [extent_blocks].  On a magnetic disk that gives runs of 1,
    1, 2, 4, 8, 8, ... blocks, so a small relation reserves no unused tail
    and relations created one after another sit end to end. *)

val read_block : t -> segid:int -> blkno:int -> Page.t -> unit
(** [read_block dev ~segid ~blkno frame] reads one block into [frame],
    charging simulated time.  Every byte of the frame is overwritten, so
    a frame that held another block shows nothing of it afterwards.
    Raises [Invalid_argument] if the block does not exist. *)

val write_block : ?crc:int -> t -> segid:int -> blkno:int -> Page.t -> unit
(** Write one block, charging simulated time.  The block must have been
    allocated.  [crc], if given, must be {!Page.checksum} of the page:
    the store records it as the block's checksum instead of computing
    one (see {!poke_block}). *)

val read_block_cont : t -> segid:int -> blkno:int -> Page.t -> unit
(** Like {!read_block}, but charged as the {e continuation} of a streaming
    burst whose first block was read with {!read_block}: positioning is
    still charged (waived when the transfer continues at the arm), the
    transfer is charged, but the fixed per-request controller overhead is
    not — one batched request covers the whole burst.  Magnetic disks
    only; NVRAM and jukebox devices charge exactly as {!read_block}.  The
    buffer cache's read-ahead path uses this. *)

val peek_block : t -> segid:int -> blkno:int -> Page.t -> unit
(** Read contents into the frame without charging time or counters.  For
    layered models (the FFS baseline) that do their own cost accounting.
    {!read_block} and {!read_block_cont} fill their frame through this
    one, so on every read path, torn and rotten transfers included, the
    whole frame is overwritten. *)

val poke_block : ?crc:int -> t -> segid:int -> blkno:int -> Page.t -> unit
(** Write contents without charging the transfer.  WORM accounting is
    bypassed too — use only from models layered over magnetic-disk
    devices.  Every store, charged or not, lands here, so this is where
    the segment's dirty mark is set (see {!is_marked}), and where the
    block's checksum is recorded: [crc] when given (it must be
    {!Page.checksum} of the page) and the whole page landed, otherwise
    one CRC pass over the stored image, as for a torn store. *)

val charge_read : t -> segid:int -> blkno:int -> unit
(** Apply the read cost model (seek/rotate/transfer, counters) without
    moving data. *)

val charge_write : t -> segid:int -> blkno:int -> unit

val charge_drain : t -> unit
(** One background (sorted, overlapped) write's marginal cost: fixed
    overhead plus one block's transfer, no positioning.  Used by models
    whose writes drain asynchronously (PRESTOserve). *)

val sync : t -> unit
(** Barrier: charge any deferred write-back cost.  (The models here write
    through, so this only ticks a counter.) *)

val set_fault_hook : t -> fault_hook option -> unit
(** Install (or clear, with [None]) the fault hook.  At most one hook is
    active per device; installing replaces the previous one. *)

(** {1 Media integrity}

    Every durable store records a CRC-32 of the bytes that actually reached
    the medium ({!Page.crc32}), so silent decay — rot injected by
    {!Fault_bitrot} or {!rot_block} — is detectable by comparing the stored
    image against its recorded checksum.  A torn write is
    checksum-{e consistent} (the checksum covers the torn image); torn pages
    are caught one level up by self-identifying heap pages, exactly as in
    the paper's "Fast Recovery" design. *)

val verify_block : t -> segid:int -> blkno:int -> (unit, string) result
(** Compare the stored image against its recorded checksum, without
    charging time or consulting the fault hook.  [Error reason] on
    mismatch. *)

val recorded_checksum : t -> segid:int -> blkno:int -> int
(** The checksum recorded at the last durable store of this block. *)

val rot_block : t -> segid:int -> blkno:int -> unit
(** Directly decay a stored block (flip a few bytes) without updating its
    checksum — the deterministic ingredient for directed scrub tests. *)

val kill : t -> unit
(** The device stops answering: every subsequent transfer, allocation, or
    segment creation raises {!Media_failure}.  Permanent; survives
    {!crash}. *)

val is_dead : t -> bool

val mark_stuck : t -> segid:int -> blkno:int -> unit
(** Mark one block pending/unreadable (as {!Fault_stuck} does).  Reads of
    a stuck block raise {!Media_failure}; the next write to it remaps the
    logical block onto a spare physical block — sector reallocation, as
    real drives do — clearing the pending state.  So the mirror failover
    read path heals a stuck primary block with its in-place repair
    write. *)

val is_stuck : t -> segid:int -> blkno:int -> bool

(** {1 Dirty marks}

    Each device keeps, in battery-backed RAM, the set of segments a crash
    could have torn.  {!poke_block} marks a segment before its store when
    it is unmarked; the buffer cache clears a device's marks once a
    complete flush has made every page it wrote durable
    ({!Bufcache.flush}).  Marks survive {!crash}, so restart audits only
    the relations they name.  Setting a mark, clearing a device's marks
    and reading the table each cost one NVRAM store or read of a 16-byte
    entry ({!nvram_geometry}: about 20 µs), charged to the ["nvram.mark"]
    account; a segment already marked costs nothing more. *)

val is_marked : t -> segid:int -> bool
(** Whether the segment is marked.  Free: tests and assertions. *)

val read_marks : t -> int list
(** The marked segment ids, sorted, as restart reads them: one charged
    NVRAM read. *)

val clear_marks : t -> unit
(** Clear every mark, charging one NVRAM store if any was set.  Only a
    complete buffer-cache flush may call this. *)

(** {1 Mirrored pairs}

    A device may be paired with a same-shape secondary.  Segment creation
    and block allocation then run in lockstep on both, so a primary block
    [(segid, blkno)] always has a mirror copy at [(mirror segid, blkno)].
    The {!Bufcache} writes both copies; the {!Resilient} read path fails
    over to the mirror and repairs the primary in place. *)

val attach_mirror : t -> t -> unit
(** [attach_mirror primary secondary] pairs the devices and resilvers:
    every existing primary segment gets a full copy (bytes and recorded
    checksums verbatim, so latent rot stays detectable).  Raises
    [Invalid_argument] on self-mirroring, chained mirrors, or dead
    devices. *)

val mirror : t -> t option
(** The paired secondary, if any. *)

val segment_mirror : t -> segid:int -> (t * int) option
(** The mirror device and mirror segment id holding the copy of [segid]. *)

val segments : t -> int list
(** All live segment ids, sorted — the scrubber's walk order. *)

val crash : t -> unit
(** Simulate a machine crash: media contents and the dirty marks survive;
    transient cost-model state (head position, loaded platter, jukebox
    cache residency is kept — it lives on disk) is reset. *)

val used_blocks : t -> int
(** The allocation frontier: one past the highest physical block any
    extent has reserved.  This counts the unused tail of each segment's
    current extent and the extents of dropped segments (and, on the
    jukebox, every superseded write-once block); none of them is ever
    reclaimed. *)

val worm_written_blocks : t -> int
(** Jukebox only: how many write-once physical blocks have been consumed
    (a logical rewrite consumes a fresh one).  0 for other kinds. *)

val reads : t -> int
val writes : t -> int
(** Lifetime I/O counters. *)
