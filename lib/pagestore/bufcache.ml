(* Packed integer page keys: (device id, segid, blkno) in one OCaml int.
   The hot path used to allocate a (string * int * int) tuple per access
   and hash a device-name string; interned device ids make the key a
   single boxed-free int.  16 bits of device id, 20 of segment id, 26 of
   block number — 62 bits, the most a 63-bit OCaml int can carry without
   going negative. *)
let devid_bits = 16
and segid_bits = 20
and blkno_bits = 26

let pack ~devid ~segid ~blkno =
  if devid lsr devid_bits <> 0 || segid lsr segid_bits <> 0 || blkno lsr blkno_bits <> 0
  then
    invalid_arg
      (Printf.sprintf "Bufcache: key out of range (devid %d, segid %d, blkno %d)" devid
         segid blkno);
  (devid lsl (segid_bits + blkno_bits)) lor (segid lsl blkno_bits) lor blkno

(* One (device, segment) — the granularity of flush_segment /
   invalidate_segment and of read-ahead run detection. *)
let pack_seg ~devid ~segid = (devid lsl segid_bits) lor segid

type tier = Hot | Cold

type entry = {
  key : int;
  dev : Device.t;
  segid : int;
  blkno : int;
  page : Page.t;
  mutable dirty : bool;
  mutable pins : int;
  mutable tier : tier;
  mutable prefetched : bool; (* installed by read-ahead, not yet demanded *)
  mutable born : float; (* sim time of install / last demotion, gates promotion *)
  mutable lprev : entry option; (* intrusive LRU links; linked iff pins = 0 *)
  mutable lnext : entry option;
  mutable linked : bool;
}

(* Intrusive doubly-linked recency list: O(1) push/remove/pop, no
   allocation per touch.  Head = most recent, tail = eviction victim. *)
module Lru = struct
  type t = { mutable head : entry option; mutable tail : entry option; mutable len : int }

  let create () = { head = None; tail = None; len = 0 }

  let clear t =
    t.head <- None;
    t.tail <- None;
    t.len <- 0

  let push_front t e =
    e.lprev <- None;
    e.lnext <- t.head;
    (match t.head with Some h -> h.lprev <- Some e | None -> t.tail <- Some e);
    t.head <- Some e;
    e.linked <- true;
    t.len <- t.len + 1

  let remove t e =
    (match e.lprev with Some p -> p.lnext <- e.lnext | None -> t.head <- e.lnext);
    (match e.lnext with Some n -> n.lprev <- e.lprev | None -> t.tail <- e.lprev);
    e.lprev <- None;
    e.lnext <- None;
    e.linked <- false;
    t.len <- t.len - 1

  let pop_back t =
    match t.tail with
    | None -> None
    | Some e ->
      remove t e;
      Some e
end

(* The UNIX file system buffer cache sitting under the magnetic-disk
   device manager: "the file system buffer cache is a secondary buffer
   cache for magnetic disk pages in POSTGRES" (paper, "Cache
   Management").  Pages written back from the DBMS cache land here at
   memory speed and reach the platter asynchronously (POSTGRES 4.0.1 did
   not force them); reads that hit here cost a copy, not a seek.  Only
   magnetic-disk devices get this treatment — NVRAM and the jukebox
   device managers operate on raw devices.

   Same O(1) discipline as the main pool: an intrusive LRU over interned
   keys instead of the old full-table stamp scan per insertion. *)
module Os_cache = struct
  type node = {
    nkey : int;
    mutable nprev : node option;
    mutable nnext : node option;
  }

  type t = {
    cap : int;
    table : (int, node) Hashtbl.t;
    mutable head : node option;
    mutable tail : node option;
  }

  let create cap = { cap; table = Hashtbl.create 256; head = None; tail = None }
  let mem t k = Hashtbl.mem t.table k

  let unlink t n =
    (match n.nprev with Some p -> p.nnext <- n.nnext | None -> t.head <- n.nnext);
    (match n.nnext with Some x -> x.nprev <- n.nprev | None -> t.tail <- n.nprev);
    n.nprev <- None;
    n.nnext <- None

  let link_front t n =
    n.nnext <- t.head;
    (match t.head with Some h -> h.nprev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let touch t k =
    match Hashtbl.find_opt t.table k with
    | Some n ->
      unlink t n;
      link_front t n
    | None -> ()

  let add t k =
    if t.cap > 0 then
      match Hashtbl.find_opt t.table k with
      | Some n ->
        unlink t n;
        link_front t n
      | None ->
        if Hashtbl.length t.table >= t.cap then begin
          match t.tail with
          | Some victim ->
            unlink t victim;
            Hashtbl.remove t.table victim.nkey
          | None -> ()
        end;
        let n = { nkey = k; nprev = None; nnext = None } in
        Hashtbl.replace t.table k n;
        link_front t n

  let clear t =
    Hashtbl.reset t.table;
    t.head <- None;
    t.tail <- None
end

(* One 8 KB copy between address spaces on the era's CPU. *)
let os_copy_cost = 0.00025

(* Per-(device, segment) residency index doubling as read-ahead state:
   flush_segment / invalidate_segment touch only the segment's resident
   pages, and sequential-run detection is a couple of int compares. *)
type seg_state = {
  blocks : (int, entry) Hashtbl.t; (* blkno -> resident entry *)
  mutable ra_next : int; (* block an ascending run would touch next *)
  mutable ra_run : int; (* length of the current ascending run *)
  mutable ra_hint : bool; (* explicit sequential hint from a scan *)
  mutable cold_only : bool; (* archive tier: pages never promote to hot *)
}

type t = {
  cap : int;
  cold_cap : int; (* midpoint split: cold tier target size *)
  readahead_window : int;
  promote_age_s : float;
  table : (int, entry) Hashtbl.t;
  segs : (int, seg_state) Hashtbl.t; (* pack_seg -> state *)
  hot : Lru.t;
  cold : Lru.t;
  os_cache : Os_cache.t;
  written : (int, Device.t) Hashtbl.t; (* device id -> every device a store reached *)
  mutable spare : Page.t list; (* frames of evicted pages, for the next fill *)
  mutable gets : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable evictions : int;
  mutable os_hits : int;
  mutable readaheads : int;
  mutable readahead_hits : int;
  mutable writeback_hook : (device:string -> segid:int -> blkno:int -> unit) option;
}

type stats = {
  s_gets : int;
  s_hits : int;
  s_misses : int;
  s_os_hits : int;
  s_writebacks : int;
  s_evictions : int;
  s_readaheads : int;
  s_readahead_hits : int;
}

let make ?(capacity = 300) ?(os_cache_blocks = 16384) ?(readahead_window = 8)
    ?(promote_age_s = 0.05) () =
  if capacity < 1 then invalid_arg "Bufcache.create: capacity must be >= 1";
  if readahead_window < 0 then invalid_arg "Bufcache.create: readahead_window < 0";
  {
    cap = capacity;
    (* InnoDB-style midpoint: 3/8 of the pool is the probationary cold
       tier a scan can churn; the rest holds pages that proved hot. *)
    cold_cap = max 1 (capacity * 3 / 8);
    readahead_window;
    promote_age_s;
    table = Hashtbl.create (2 * capacity);
    segs = Hashtbl.create 64;
    hot = Lru.create ();
    cold = Lru.create ();
    os_cache = Os_cache.create os_cache_blocks;
    written = Hashtbl.create 4;
    spare = [];
    gets = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    evictions = 0;
    os_hits = 0;
    readaheads = 0;
    readahead_hits = 0;
    writeback_hook = None;
  }

(* The legacy per-instance counters stay authoritative; the unified
   registry sees them through live probes (latest-created cache wins,
   which is the one a single-system test or shell is driving). *)
let register_probes t =
  let p name f = Obs.Metrics.probe name f in
  p "cache.gets" (fun () -> t.gets);
  p "cache.hits" (fun () -> t.hits);
  p "cache.misses" (fun () -> t.misses);
  p "cache.os_hits" (fun () -> t.os_hits);
  p "cache.writebacks" (fun () -> t.writebacks);
  p "cache.evictions" (fun () -> t.evictions);
  p "cache.readaheads" (fun () -> t.readaheads);
  p "cache.readahead_hits" (fun () -> t.readahead_hits);
  p "cache.resident" (fun () -> Hashtbl.length t.table)

let create ?capacity ?os_cache_blocks ?readahead_window ?promote_age_s () =
  let t = make ?capacity ?os_cache_blocks ?readahead_window ?promote_age_s () in
  register_probes t;
  t

let set_writeback_hook t hook = t.writeback_hook <- hook

let capacity t = t.cap
let gets t = t.gets
let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
let evictions t = t.evictions
let os_hits t = t.os_hits
let readaheads t = t.readaheads
let readahead_hits t = t.readahead_hits
let resident t = Hashtbl.length t.table

let stats t =
  {
    s_gets = t.gets;
    s_hits = t.hits;
    s_misses = t.misses;
    s_os_hits = t.os_hits;
    s_writebacks = t.writebacks;
    s_evictions = t.evictions;
    s_readaheads = t.readaheads;
    s_readahead_hits = t.readahead_hits;
  }

let stats_to_string s =
  Printf.sprintf
    "cache_gets=%d cache_hits=%d cache_misses=%d os_hits=%d writebacks=%d evictions=%d \
     readaheads=%d readahead_hits=%d"
    s.s_gets s.s_hits s.s_misses s.s_os_hits s.s_writebacks s.s_evictions s.s_readaheads
    s.s_readahead_hits

let seg_state t dev ~segid =
  let skey = pack_seg ~devid:(Device.id dev) ~segid in
  match Hashtbl.find_opt t.segs skey with
  | Some s -> s
  | None ->
    let s =
      { blocks = Hashtbl.create 16; ra_next = -1; ra_run = 0; ra_hint = false;
        cold_only = false }
    in
    Hashtbl.replace t.segs skey s;
    s

let set_cold_only t dev ~segid = (seg_state t dev ~segid).cold_only <- true
let is_cold_only t dev ~segid = (seg_state t dev ~segid).cold_only

let os_cached_device dev = Device.kind dev = Device.Magnetic_disk

(* Store one copy on one device, with transient-fault retry.  For
   magnetic disks the page lands in the FS buffer cache (contents stored,
   platter write asynchronous); other kinds write through, charged. *)
let store_copy t dev ~segid ~blkno page =
  Hashtbl.replace t.written (Device.id dev) dev;
  if os_cached_device dev then begin
    Resilient.write_block ~charged:false dev ~segid ~blkno page;
    Simclock.Clock.advance (Device.clock dev) ~account:"oscache.write" os_copy_cost;
    Os_cache.add t.os_cache (pack ~devid:(Device.id dev) ~segid ~blkno)
  end
  else Resilient.write_block ~charged:true dev ~segid ~blkno page

let write_back t e =
  if e.dirty then begin
    (match t.writeback_hook with
    | Some hook -> hook ~device:(Device.name e.dev) ~segid:e.segid ~blkno:e.blkno
    | None -> ());
    (* Dual writes: the mirror copy is stored even when the primary has
       failed permanently, so a degraded pair keeps accepting writes.  The
       write-back only fails when no copy lands.  Crash injection is not
       caught — a machine crash mid-write-back propagates as before. *)
    let primary_err =
      try
        store_copy t e.dev ~segid:e.segid ~blkno:e.blkno e.page;
        None
      with (Device.Media_failure _ | Device.Io_fault _) as exn -> Some exn
    in
    let mirror_landed =
      match Device.segment_mirror e.dev ~segid:e.segid with
      | None -> false
      | Some (mdev, msegid) -> (
        try
          store_copy t mdev ~segid:msegid ~blkno:e.blkno e.page;
          true
        with Device.Media_failure _ | Device.Io_fault _ | Invalid_argument _ -> false)
    in
    (match primary_err with
    | Some exn when not mirror_landed -> raise exn
    | _ -> ());
    e.dirty <- false;
    t.writebacks <- t.writebacks + 1;
    if Obs.on Obs.Cache then
      Obs.event Obs.Cache "cache.writeback"
        ~args:
          [
            ("dev", Obs.S (Device.name e.dev)); ("segid", Obs.I e.segid);
            ("blkno", Obs.I e.blkno);
          ]
        ()
  end

(* O(1) eviction: the cold tail is the victim; an all-hot pool falls back
   to the hot tail.  Pinned pages are never linked, so no scan and no
   victim filtering is needed. *)
let evict_one t =
  match
    match Lru.pop_back t.cold with Some _ as v -> v | None -> Lru.pop_back t.hot
  with
  | None -> failwith "Bufcache: all pages pinned, cannot evict"
  | Some e ->
    (* pop unlinked it already; write_back may raise (fault hooks), in
       which case the entry must still be gone from the pool. *)
    e.linked <- false;
    Hashtbl.remove t.table e.key;
    Hashtbl.remove (seg_state t e.dev ~segid:e.segid).blocks e.blkno;
    t.evictions <- t.evictions + 1;
    if Obs.on Obs.Cache then
      Obs.event Obs.Cache "cache.evict"
        ~args:
          [
            ("dev", Obs.S (Device.name e.dev)); ("segid", Obs.I e.segid);
            ("blkno", Obs.I e.blkno); ("dirty", Obs.I (if e.dirty then 1 else 0));
          ]
        ();
    write_back t e;
    (* The victim was unpinned, so nothing holds its page: the frame
       serves the next fill. *)
    t.spare <- e.page :: t.spare

(* A frame for a page about to be read or made: an evicted page's, or a
   fresh one until the pool first fills.  Every fill overwrites the whole
   frame (a device read, or [Page.clear] for a new block). *)
let take_frame t =
  match t.spare with
  | frame :: rest ->
    t.spare <- rest;
    frame
  | [] -> Page.create ()

let ensure_room t = while Hashtbl.length t.table >= t.cap do evict_one t done

let now_of dev = Simclock.Clock.now (Device.clock dev)

(* Keep the hot tier under its cap by demoting its tail to the cold
   front; the demoted page must re-prove itself (born is reset). *)
let rebalance t =
  while t.hot.Lru.len > t.cap - t.cold_cap do
    match Lru.pop_back t.hot with
    | Some e ->
      e.tier <- Cold;
      e.born <- now_of e.dev;
      Lru.push_front t.cold e
    | None -> ()
  done

let link_unpinned t e =
  Lru.push_front (match e.tier with Hot -> t.hot | Cold -> t.cold) e;
  if e.tier = Hot then rebalance t

let install t dev segid blkno page ~pins ~prefetched =
  ensure_room t;
  let key = pack ~devid:(Device.id dev) ~segid ~blkno in
  let e =
    {
      key;
      dev;
      segid;
      blkno;
      page;
      dirty = false;
      pins;
      tier = Cold;
      prefetched;
      born = now_of dev;
      lprev = None;
      lnext = None;
      linked = false;
    }
  in
  Hashtbl.replace t.table key e;
  Hashtbl.replace (seg_state t dev ~segid).blocks blkno e;
  if pins = 0 then link_unpinned t e;
  e

(* Read one block through the resilient layer, consulting the OS cache
   first for magnetic-disk devices: every page is checksum-verified
   (bitrot detected, never returned), transient faults retried, permanent
   ones failed over to the mirror. *)
let fetch_page t dev ~segid ~blkno ~key ~cont frame =
  if os_cached_device dev && Os_cache.mem t.os_cache key then begin
    t.os_hits <- t.os_hits + 1;
    Simclock.Clock.advance (Device.clock dev) ~account:"oscache.read" os_copy_cost;
    Os_cache.touch t.os_cache key;
    Resilient.read_block ~charged:false dev ~segid ~blkno frame
  end
  else begin
    Resilient.read_block ~charged:true ~cont dev ~segid ~blkno frame;
    if os_cached_device dev then Os_cache.add t.os_cache key
  end

(* Sequential-run detection: an access at exactly the run's next block
   extends it; re-reading the block just read keeps it; anything else
   starts a fresh run and cancels any explicit hint. *)
let note_access seg blkno =
  if blkno = seg.ra_next then begin
    seg.ra_run <- seg.ra_run + 1;
    seg.ra_next <- blkno + 1
  end
  else if blkno <> seg.ra_next - 1 then begin
    seg.ra_run <- 1;
    seg.ra_next <- blkno + 1;
    seg.ra_hint <- false
  end

(* Devices with positioning cost get read-ahead; NVRAM reads are flat, so
   prefetching them buys nothing and only churns the pool. *)
let prefetchable_device dev =
  match Device.kind dev with
  | Device.Magnetic_disk | Device.Worm_jukebox -> true
  | Device.Nvram -> false

(* Batch-fetch the next window of the run through Resilient as the
   continuation of the foreground read: the per-request overhead is paid
   once (mirroring the track-at-a-time transfers the paper's disks did
   for free).  Only blocks that would cost a platter read are fetched —
   pages already resident or sitting in the OS cache are skipped.
   Prefetched pages enter the cold tier, so a misprediction is the next
   eviction victim, and speculative faults are swallowed (the foreground
   access did not need the block); only an injected machine crash
   propagates. *)
let prefetch t dev seg ~segid ~from =
  let devid = Device.id dev in
  let nblocks = Device.nblocks dev segid in
  let limit = min (from + t.readahead_window - 1) (nblocks - 1) in
  let fetched = ref 0 in
  (try
     for blkno = from to limit do
       (* Speculative work must never hit the all-pinned failure mode a
          demand fetch would be entitled to: stop the burst instead. *)
       if Hashtbl.length t.table >= t.cap && t.hot.Lru.len + t.cold.Lru.len = 0 then
         raise Exit;
       let key = pack ~devid ~segid ~blkno in
       if
         (not (Hashtbl.mem t.table key))
         && not (os_cached_device dev && Os_cache.mem t.os_cache key)
       then begin
         let page = take_frame t in
         Resilient.read_block ~charged:true ~cont:true dev ~segid ~blkno page;
         if os_cached_device dev then Os_cache.add t.os_cache key;
         let (_ : entry) = install t dev segid blkno page ~pins:0 ~prefetched:true in
         t.readaheads <- t.readaheads + 1;
         incr fetched
       end
     done
   with Exit | Device.Media_failure _ | Device.Io_fault _ -> ());
  (* One burst event per run, carrying how many continuation reads the
     batch actually issued — the trace-checked read-ahead invariant. *)
  if !fetched > 0 && Obs.on Obs.Cache then
    Obs.event Obs.Cache "cache.readahead"
      ~args:
        [
          ("dev", Obs.S (Device.name dev)); ("segid", Obs.I segid);
          ("from", Obs.I from); ("blocks", Obs.I !fetched);
        ]
      ();
  seg.ra_next <- max seg.ra_next (limit + 1)

let get t dev ~segid ~blkno =
  (* Counter coherence: gets = hits + misses, and readahead_hits counts a
     {e subset} of hits (the demand access that first touches a
     prefetched page) — it is a prediction-accuracy annotation, not a
     third outcome, so it never double-counts against gets. *)
  t.gets <- t.gets + 1;
  let key = pack ~devid:(Device.id dev) ~segid ~blkno in
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.hits <- t.hits + 1;
    let was_prefetched = e.prefetched in
    if was_prefetched then begin
      t.readahead_hits <- t.readahead_hits + 1;
      e.prefetched <- false
    end;
    if Obs.on Obs.Cache then
      Obs.event Obs.Cache "cache.hit"
        ~args:
          [
            ("dev", Obs.S (Device.name dev)); ("segid", Obs.I segid);
            ("blkno", Obs.I blkno); ("ra", Obs.I (if was_prefetched then 1 else 0));
          ]
        ();
    if e.linked then Lru.remove (match e.tier with Hot -> t.hot | Cold -> t.cold) e;
    (* Scan resistance: promotion to the hot tier requires a re-touch
       after the page has aged past the install burst — the double-touch
       a single operation makes within microseconds does not count.
       (Promote only after unlinking from the old tier's list.) *)
    if
      e.tier = Cold
      && now_of dev -. e.born >= t.promote_age_s
      && not (seg_state t dev ~segid).cold_only
    then e.tier <- Hot;
    e.pins <- e.pins + 1;
    (let seg = seg_state t dev ~segid in
     note_access seg blkno);
    e.page
  | None ->
    t.misses <- t.misses + 1;
    if Obs.on Obs.Cache then
      Obs.event Obs.Cache "cache.miss"
        ~args:
          [
            ("dev", Obs.S (Device.name dev)); ("segid", Obs.I segid);
            ("blkno", Obs.I blkno);
          ]
        ();
    let seg = seg_state t dev ~segid in
    let page = take_frame t in
    fetch_page t dev ~segid ~blkno ~key ~cont:false page;
    let e = install t dev segid blkno page ~pins:1 ~prefetched:false in
    (* Capture the hint before note_access: a hinted scan's first miss is
       rarely at the previous run's next block, and note_access would
       cancel the hint as "random" before it ever armed the prefetch. *)
    let hinted = seg.ra_hint in
    note_access seg blkno;
    if (hinted || seg.ra_run >= 2) && t.readahead_window > 0 && prefetchable_device dev
    then prefetch t dev seg ~segid ~from:(blkno + 1);
    e.page

let hint_sequential t dev ~segid = (seg_state t dev ~segid).ra_hint <- true

let find_entry t dev ~segid ~blkno =
  let key = pack ~devid:(Device.id dev) ~segid ~blkno in
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
    invalid_arg
      (Printf.sprintf "Bufcache: page %s/%d/%d not resident" (Device.name dev) segid blkno)

let unpin t dev ~segid ~blkno =
  let e = find_entry t dev ~segid ~blkno in
  if e.pins <= 0 then invalid_arg "Bufcache.unpin: page not pinned";
  e.pins <- e.pins - 1;
  if e.pins = 0 then link_unpinned t e

let mark_dirty t dev ~segid ~blkno =
  let e = find_entry t dev ~segid ~blkno in
  e.dirty <- true

let with_page t dev ~segid ~blkno f =
  let page = get t dev ~segid ~blkno in
  Fun.protect ~finally:(fun () -> unpin t dev ~segid ~blkno) (fun () -> f page)

let new_block t dev ~segid =
  let blkno = Device.allocate_block dev segid in
  let page = take_frame t in
  Page.clear page;
  let (_ : entry) = install t dev segid blkno page ~pins:0 ~prefetched:false in
  blkno

(* Deterministic write-back order: (device name, segid, blkno).  Crash
   sweeps inject faults per write-back, so the order must not depend on
   hash-table layout (which varies across OCaml versions). *)
let flush t =
  let dirty =
    Hashtbl.fold (fun _ e acc -> if e.dirty then e :: acc else acc) t.table []
  in
  let dirty =
    List.sort
      (fun a b ->
        let c = String.compare (Device.name a.dev) (Device.name b.dev) in
        if c <> 0 then c
        else
          let c = compare a.segid b.segid in
          if c <> 0 then c else compare a.blkno b.blkno)
      dirty
  in
  List.iter (write_back t) dirty;
  (* Every page this pool ever stored is now durable, so no crash can
     tear one: clear the dirty marks.  Only a complete flush may; one
     that raised above leaves them all set. *)
  Hashtbl.iter (fun _ dev -> Device.clear_marks dev) t.written

let flush_segment t dev ~segid =
  let skey = pack_seg ~devid:(Device.id dev) ~segid in
  match Hashtbl.find_opt t.segs skey with
  | None -> ()
  | Some seg ->
    let dirty =
      Hashtbl.fold (fun _ e acc -> if e.dirty then e :: acc else acc) seg.blocks []
    in
    List.iter (write_back t) (List.sort (fun a b -> compare a.blkno b.blkno) dirty)

let invalidate_segment t dev ~segid =
  let skey = pack_seg ~devid:(Device.id dev) ~segid in
  match Hashtbl.find_opt t.segs skey with
  | None -> ()
  | Some seg ->
    Hashtbl.iter
      (fun _ e ->
        if e.linked then Lru.remove (match e.tier with Hot -> t.hot | Cold -> t.cold) e;
        Hashtbl.remove t.table e.key)
      seg.blocks;
    Hashtbl.remove t.segs skey

let crash t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.segs;
  Lru.clear t.hot;
  Lru.clear t.cold;
  Os_cache.clear t.os_cache
