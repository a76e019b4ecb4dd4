(** The consistency checker that never has to run.

    "No file system consistency checker needs to run on the Inversion file
    system after a crash since recovery is managed by the POSTGRES storage
    manager."  This module exists to {e demonstrate} that: tests crash the
    system mid-transaction and then assert a full audit passes with no
    repair phase.  It also covers the one case recovery cannot —
    physically damaged media — via the self-identifying block checks the
    paper reserves space for.

    Checks: page self-identification (relid/blkno/CRC) on every relation;
    every namespace entry joins to an attribute record; parents are
    directories; no orphaned attribute records for named files; file sizes
    are consistent with their stored chunks; and B-tree index structure
    plus completeness against the heaps (catalogs and per-file chunk
    indexes — the update-in-place layer a crash {e can} damage; recovery
    rebuilds them from the heaps, see {!Fs.crash_and_recover}); every
    relation is one the file system made ({!Fs.relations}) or the archive
    of exactly one of those, so no archived history is out of reach of
    [As_of] reads; and the archives hold only dead history. *)

type problem = { relation : string; detail : string }

type report = {
  relations_checked : int;
  files_checked : int;
  archived_checked : int;
      (** record versions audited on the WORM archive tier: each must
          have both a committed inserter and a committed deleter — a live
          version on write-once storage is a vacuum bug, and is reported
          as a problem *)
  problems : problem list;
  degraded : string list;
      (** relations on a dead device with no live mirror: unreachable, so
          skipped by the consistency checks and reported here instead.
          Degradation is availability loss, not corruption — it does not
          make the audit unclean. *)
  cache : Pagestore.Bufcache.stats;
      (** buffer-cache counter snapshot at audit time — hit/miss,
          read-ahead, and eviction totals for the run being audited. *)
}

val audit : Fs.t -> report
(** Full structural audit under a current snapshot. *)

val is_clean : report -> bool

val report_to_string : report -> string
(** Consistency verdict only — stable across cache-policy changes. *)

(** {2 Cross-shard audit}

    When the file system is sharded (a coordinator owning the namespace
    plus N chunk-owning shards behind an epoch-numbered placement map),
    single-machine audits cannot see misplaced data: every machine can
    be locally clean while a chunk copy sits on a shard that no longer
    owns its bucket.  This audit is the placement-map walk — pure over
    plain data so it needs no dependency on the cluster layer; the
    cluster provides a wrapper that gathers the inputs.

    Mirroring [degraded] above, shards that cannot be reached are
    availability loss, not corruption: they are skipped and reported in
    [sh_unreachable] without making the audit unclean. *)

type shard_report = {
  sh_shards_checked : int;
  sh_files_checked : int;  (** named oids whose placement was audited *)
  sh_copies_checked : int;  (** resident chunk copies across all shards *)
  sh_unreferenced : int;
      (** of those, copies of oids the namespace does not name: an
          unlinked file's shard copies, which nothing collects until a
          handoff moves their bucket and its drop removes them *)
  sh_problems : problem list;
      (** [relation] names the faulty side: ["placement"] for a
          malformed map, ["shard<k>"] for a stray or missing copy *)
  sh_unreachable : string list;  (** shards skipped, ["shard<k>"] *)
}

val cross_shard_audit :
  nshards:int ->
  owner:int array ->
  handoff:(int * int * int) list ->
  drops:(int * int) list ->
  bucket_of:(int64 -> int) ->
  named:int64 list ->
  resident:(int * int64 list option) list ->
  shard_report
(** [owner] maps bucket -> owning shard id (1-based); [handoff] is the
    in-flight [(bucket, src, dst)] migrations and [drops] the
    [(bucket, shard)] stale copies already queued for garbage
    collection.  [named] is every oid the coordinator namespace
    references; [resident] gives each shard's locally-resident oids, or
    [None] if that shard could not be audited.

    Checks: the map covers every bucket with a valid shard; handoff and
    drop entries reference valid shards and disagree with neither the
    map nor each other; a named oid resident {e anywhere} must be
    resident on its bucket's authority (the handoff source while a
    migration is in flight, the owner otherwise — never-written files
    legitimately have no copy at all) unless that authority is
    unreachable; and every resident copy is accounted for — authority
    copy, handoff destination's partial copy, or a queued drop —
    anything else is a stray that fencing should have prevented.  A copy
    of an oid that [named] lacks is counted in [sh_unreferenced] and not
    judged. *)

val is_shard_clean : shard_report -> bool

val shard_report_to_string : shard_report -> string
