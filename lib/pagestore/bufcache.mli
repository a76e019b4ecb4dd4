(** Shared buffer cache of 8 KB pages: O(1) scan-resistant replacement
    plus sequential read-ahead.

    POSTGRES keeps an in-memory shared cache of recently used data pages;
    pages are evicted in LRU order regardless of originating device, and
    dirty pages are written back before eviction (paper, "Cache
    Management").  The shipped size was 64 buffers; Berkeley ran 300 — both
    are interesting points for the cache-size ablation bench.

    Replacement is a two-tier (midpoint-insertion) LRU over intrusive
    doubly-linked lists: every touch, eviction, and unpin is O(1), and a
    per-(device, segment) residency index makes {!flush_segment},
    {!invalidate_segment}, and the scrubber's bookkeeping proportional to
    the segment, not the pool.  New pages enter a probationary {e cold}
    tier (3/8 of the pool) and are promoted to the {e hot} tier only when
    re-touched after aging past the install burst — so a one-pass 25 MB
    sequential scan recycles the cold tier and cannot flush the working
    set out of a 300-page pool.

    The cache detects ascending access runs per segment (or is told
    outright via {!hint_sequential}) and prefetches the next window of
    blocks through the {!Resilient} layer as one batched burst: the first
    block pays the full positioning + per-request cost, continuation
    blocks pay transfer only ({!Device.read_block_cont}).

    Pages are pinned while in use; only unpinned pages are eviction
    victims.  An eviction hands the victim's 8 KB frame to the next fill
    (a miss, a read-ahead block or {!new_block}), so a pool at capacity
    allocates no page: nothing may hold a page past its {!unpin} (or
    past {!with_page}), because the frame may then hold another block.
    {!crash} drops the whole cache without write-back, which is
    how uncommitted work disappears across a simulated failure. *)

type t

val create :
  ?capacity:int ->
  ?os_cache_blocks:int ->
  ?readahead_window:int ->
  unit ->
  t
(** [capacity] in pages, default 300 (the Berkeley configuration).
    [os_cache_blocks] sizes the UNIX file-system buffer cache that sits
    {e under} the DBMS cache for magnetic-disk devices (paper: "the file
    system buffer cache is a secondary buffer cache"); default 16384
    pages (the 128 MB evaluation machine cached whole benchmark files).
    POSTGRES 4.0.1 wrote pages to this cache without forcing them, so
    DBMS-level write-backs cost a copy, not a platter write.
    [readahead_window] bounds how many blocks one read-ahead burst
    fetches (default 8; 0 disables read-ahead).  A cold page must reach a
    simulated age of 50 ms before a re-touch promotes it to the hot tier:
    touches within one operation's install burst do not count as reuse. *)

val capacity : t -> int

val get : t -> Device.t -> segid:int -> blkno:int -> Page.t
(** Pin a page and return it.  The caller must {!unpin} it (or use
    {!with_page}).  The returned page is the cache's copy: mutations are
    visible to other readers and must be followed by {!mark_dirty}.  It
    is valid only while pinned; copy out anything kept past {!unpin}.  A
    miss that extends a detected sequential run (or follows
    {!hint_sequential}) triggers a read-ahead burst behind it. *)

val unpin : t -> Device.t -> segid:int -> blkno:int -> unit

val mark_dirty : ?seal:(Page.t -> int) -> t -> Device.t -> segid:int -> blkno:int -> unit
(** Record that a pinned page was modified so eviction/flush writes it
    back.  [seal], if given, runs on the page once when it is next
    written back, before its first copy is stored (primary and mirror
    then get the same image): a page format whose checksum covers the
    page pays the checksum once per trip to the device, not once per
    change.  It returns {!Page.checksum} of the page as sealed, which
    both copies hand to the device ({!Device.write_block}'s [crc]), so
    the device records it without a pass of its own.  Raises
    [Invalid_argument] if the page is not resident. *)

val with_page : t -> Device.t -> segid:int -> blkno:int -> (Page.t -> 'a) -> 'a
(** [with_page c dev ~segid ~blkno f] pins, applies [f], unpins (also on
    exception).  [f] must not return or keep the page itself. *)

val new_block : t -> Device.t -> segid:int -> int
(** Extend the segment by one block on the device and install the zeroed
    page in the cache (unpinned, clean), in a recycled frame once the
    pool is full.  Returns the new block number. *)

val hint_sequential : t -> Device.t -> segid:int -> unit
(** Declare that upcoming accesses to this segment are an ascending scan,
    arming read-ahead from the first miss instead of waiting for a
    two-block run.  The hint is sticky until a non-sequential access to
    the segment cancels it.  Heap scans and multi-chunk file reads call
    this. *)

val set_cold_only : t -> Device.t -> segid:int -> unit
(** Pin the segment's pages to the probationary cold tier: hits never
    promote them to hot.  Archive (WORM) segments use this so faulting
    history through the cache cannot evict the hot working set.  The flag
    is volatile (lost on {!crash}); owners re-arm it during recovery. *)

val is_cold_only : t -> Device.t -> segid:int -> bool

val flush : t -> unit
(** Write back every dirty page (pages stay resident and become clean).
    Transaction commit uses this to make updates durable.  Write-back
    order is deterministic: (device name, segid, blkno) ascending —
    crash-sweep fault injection depends on it.  Once the last write-back
    returns, every page the pool ever stored is durable, so the flush
    clears the dirty marks ({!Device.clear_marks}) on every device it has
    written to, mirrors included.  A flush that raises clears none. *)

val flush_segment : t -> Device.t -> segid:int -> unit
(** Write back dirty pages of one segment only (blkno ascending).
    O(resident pages of that segment).  Other segments may still hold
    dirty pages, so it clears no dirty mark; neither does an eviction. *)

val invalidate_segment : t -> Device.t -> segid:int -> unit
(** Discard resident pages of a dropped segment without write-back.
    O(resident pages of that segment). *)

val set_writeback_hook :
  t -> (device:string -> segid:int -> blkno:int -> unit) option -> unit
(** Install (or clear) a hook invoked just before each dirty page is
    written back (on {!flush}, {!flush_segment}, or eviction).  Fault
    plans use it to crash or fail mid-flush at write-back granularity —
    the hook may raise, in which case the page stays dirty and the
    write-back does not happen. *)

val crash : t -> unit
(** Drop all cached pages without write-back — volatile memory is gone.
    The OS buffer cache is volatile too and is cleared with it.
    Lifetime counters survive (they describe the run, not the pool). *)

val misses : t -> int
val writebacks : t -> int

val resident : t -> int
(** Current number of resident pages. *)

(** {1 Counter snapshots} *)

type stats = {
  s_gets : int;  (** total {!get} calls: always [s_hits + s_misses] *)
  s_hits : int;
      (** demand accesses served from the pool, hits on prefetched pages
          included *)
  s_misses : int;
  s_os_hits : int;  (** reads absorbed by the secondary (file-system) cache *)
  s_writebacks : int;
  s_evictions : int;
  s_readaheads : int;  (** blocks fetched speculatively by read-ahead bursts *)
  s_readahead_hits : int;
      (** demand accesses that were the {e first} touch of a page
          read-ahead brought in, the measure of prediction accuracy: an
          annotation on a hit, not a third outcome, so at most [s_hits]
          and at most [s_readaheads] *)
}

val stats : t -> stats
(** Snapshot of all lifetime counters, for fsck / crash-harness reports
    and the benchmark emitter. *)

val stats_to_string : stats -> string
(** One line, [key=value] pairs. *)
