(** Bounded retry, checksum verification, and mirror failover over
    {!Device} transfers.

    This is the media-resilience policy layer between the buffer cache and
    the raw device models.  It distinguishes the two fault classes the
    device can surface:

    - {b transient} ({!Device.Io_fault}): up to 3 attempts per copy,
      with exponential backoff between them (1 ms, then 4 ms), each pause
      charged to the simulated clock under ["resilient.backoff"] (so retry
      storms show up in benchmark time, not just counters);
    - {b permanent} ({!Device.Media_failure}: dead device, stuck block, or
      corruption that survives re-reads): never retried.  Reads fail over
      to the mirror copy (["resilient.failover"]), and a successful
      failover rewrites the bad primary block in place
      (["resilient.repair"], best effort).

    Every read is checksum-verified against the device's recorded per-block
    CRC before being returned, so bitrot is detected here — no
    silently-corrupt page ever reaches the relation store. *)

val read_block :
  ?charged:bool -> ?cont:bool -> Device.t -> segid:int -> blkno:int ->
  Page.t -> unit
(** Verified read into the caller's frame, with retry, failover, and
    in-place repair.  Each attempt overwrites the whole frame, so when
    the call returns the frame holds checksum-correct bytes of this block
    and nothing of what it held before; when it raises, the frame's
    contents are unspecified and must not be read.  [charged]
    (default true) selects {!Device.read_block} over {!Device.peek_block}
    for the primary; failover reads on the mirror are always charged.
    [cont] (default false) charges the primary transfer as the
    continuation of a streaming burst ({!Device.read_block_cont}) — the
    buffer cache's read-ahead batches a window of blocks into one charged
    request this way.  Raises {!Device.Media_failure} when no copy can
    produce checksum-correct bytes, and lets {!Device.Crash_injected}
    propagate. *)

val write_block :
  ?charged:bool -> ?crc:int -> Device.t -> segid:int -> blkno:int -> Page.t -> unit
(** Write with transient-fault retry.  Permanent faults propagate — the
    caller (the buffer cache) decides whether a mirror copy landing is good
    enough.  [charged] selects {!Device.write_block} vs {!Device.poke_block};
    [crc], the page's checksum when the caller has it, is passed on. *)

val verify_or_repair :
  Device.t -> segid:int -> blkno:int ->
  [ `Clean | `Repaired | `Unrepairable of string ]
(** The scrubber's unit of work: verify one block's checksum and, on
    mismatch, drive the verified-read path to repair it from the mirror.
    Does not raise on media failure — the verdict says what happened. *)
