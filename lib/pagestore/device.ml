type kind = Magnetic_disk | Nvram | Worm_jukebox

let kind_to_string = function
  | Magnetic_disk -> "magnetic_disk"
  | Nvram -> "nvram"
  | Worm_jukebox -> "worm_jukebox"

type geometry = {
  seek_min_s : float;
  seek_max_s : float;
  rotation_s : float;
  xfer_bytes_per_s : float;
  per_io_s : float;
  total_blocks : int;
  extent_blocks : int;
  platter_blocks : int;
  platter_load_s : float;
  cache_blocks : int;
}

let rz58 =
  {
    seek_min_s = 0.0025;
    seek_max_s = 0.026;
    rotation_s = 60. /. 5400.;
    xfer_bytes_per_s = 2.1e6;
    per_io_s = 0.0007;
    total_blocks = 1_380_000_000 / 8192;
    extent_blocks = 8;
    platter_blocks = 0;
    platter_load_s = 0.;
    cache_blocks = 0;
  }

let nvram_geometry =
  {
    seek_min_s = 0.;
    seek_max_s = 0.;
    rotation_s = 0.;
    xfer_bytes_per_s = 40.0e6;
    per_io_s = 20e-6;
    total_blocks = 16384;
    extent_blocks = 1;
    platter_blocks = 0;
    platter_load_s = 0.;
    cache_blocks = 0;
  }

(* Sony WMJ-class optical jukebox (paper defaults).  Extents are one
   block, so every write, a logical rewrite included, lands at the platter
   frontier: a write-once medium is written as an append log. *)
let sony_worm =
  {
    seek_min_s = 0.08;
    seek_max_s = 0.5;
    rotation_s = 60. /. 1800.;
    xfer_bytes_per_s = 0.6e6;
    per_io_s = 0.002;
    total_blocks = 327_000_000_000 / 8192;
    extent_blocks = 1;
    platter_blocks = 3_270_000_000 / 8192;
    platter_load_s = 8.0;
    cache_blocks = 10 * 1024 * 1024 / 8192;
  }

let default_geometry = function
  | Magnetic_disk -> rz58
  | Nvram -> nvram_geometry
  | Worm_jukebox -> sony_worm

(* A tiny LRU set of physical block numbers, used for the jukebox's
   magnetic-disk cache.  Queue-based: O(1) amortized via a recency stamp. *)
module Lru_set = struct
  type t = {
    capacity : int;
    table : (int, int) Hashtbl.t; (* phys -> stamp *)
    mutable stamp : int;
  }

  let create capacity = { capacity; table = Hashtbl.create 64; stamp = 0 }

  let mem t phys = Hashtbl.mem t.table phys

  let touch t phys =
    t.stamp <- t.stamp + 1;
    Hashtbl.replace t.table phys t.stamp

  let evict_oldest t =
    let victim = ref (-1) and oldest = ref max_int in
    Hashtbl.iter
      (fun phys stamp ->
        if stamp < !oldest then begin
          oldest := stamp;
          victim := phys
        end)
      t.table;
    if !victim >= 0 then Hashtbl.remove t.table !victim

  let add t phys =
    if t.capacity > 0 then begin
      if (not (mem t phys)) && Hashtbl.length t.table >= t.capacity then evict_oldest t;
      touch t phys
    end
end

type io_kind = Io_read | Io_write

type fault =
  | Fault_torn of int
  | Fault_io_error
  | Fault_crash
  | Fault_bitrot
  | Fault_stuck
  | Fault_dead

exception Io_fault of { device : string; segid : int; blkno : int }
exception Crash_injected of { device : string; segid : int; blkno : int }

exception
  Media_failure of { device : string; segid : int; blkno : int; reason : string }

type fault_hook = io_kind -> segid:int -> blkno:int -> fault option

type t = {
  name : string;
  id : int; (* process-unique interned id: cheap cache keys, no string compares *)
  kind : kind;
  geometry : geometry;
  clock : Simclock.Clock.t;
  mutable fault_hook : fault_hook option;
  blocks : (int * int, bytes) Hashtbl.t; (* (segid, blkno) -> contents *)
  phys : (int * int, int) Hashtbl.t; (* (segid, blkno) -> physical block *)
  checksums : (int * int, int) Hashtbl.t; (* (segid, blkno) -> CRC of stored image *)
  stuck : (int * int, unit) Hashtbl.t; (* blocks that fail every transfer *)
  seg_len : (int, int) Hashtbl.t; (* segid -> nblocks *)
  seg_extent : (int, int * int) Hashtbl.t; (* segid -> (next phys, remaining) *)
  mirror_seg : (int, int) Hashtbl.t; (* segid -> segid on the mirror device *)
  marks : (int, unit) Hashtbl.t; (* NVRAM: segments a store may have torn *)
  mutable mirror : t option; (* paired secondary, lockstep allocation *)
  mutable dead : bool;
  mutable next_segid : int;
  mutable next_phys : int;
  mutable head_phys : int; (* disk-arm position *)
  mutable loaded_platter : int; (* jukebox: platter in the drive, -1 none *)
  worm_written : (int, unit) Hashtbl.t; (* jukebox: write-once physical blocks *)
  cache : Lru_set.t; (* jukebox: disk block cache *)
  mutable reads : int;
  mutable writes : int;
}

let next_id = ref 0

let create ~clock ~name ~kind ?geometry () =
  let geometry = Option.value geometry ~default:(default_geometry kind) in
  let id = !next_id in
  incr next_id;
  {
    name;
    id;
    kind;
    geometry;
    clock;
    fault_hook = None;
    blocks = Hashtbl.create 1024;
    phys = Hashtbl.create 1024;
    checksums = Hashtbl.create 1024;
    stuck = Hashtbl.create 8;
    seg_len = Hashtbl.create 32;
    seg_extent = Hashtbl.create 32;
    mirror_seg = Hashtbl.create 32;
    marks = Hashtbl.create 32;
    mirror = None;
    dead = false;
    next_segid = 1;
    next_phys = 0;
    head_phys = 0;
    loaded_platter = -1;
    worm_written = Hashtbl.create 1024;
    cache = Lru_set.create geometry.cache_blocks;
    reads = 0;
    writes = 0;
  }

let name t = t.name
let id t = t.id
let kind t = t.kind
let clock t = t.clock
let reads t = t.reads
let writes t = t.writes
let used_blocks t = t.next_phys
let worm_written_blocks t = Hashtbl.length t.worm_written

let media_failure t ~segid ~blkno reason =
  raise (Media_failure { device = t.name; segid; blkno; reason })

let check_alive t ~segid ~blkno =
  if t.dead then media_failure t ~segid ~blkno "device dead"

let check_stuck t ~segid ~blkno =
  if Hashtbl.mem t.stuck (segid, blkno) then media_failure t ~segid ~blkno "stuck block"

let kill t = t.dead <- true
let is_dead t = t.dead
let mark_stuck t ~segid ~blkno = Hashtbl.replace t.stuck (segid, blkno) ()
let is_stuck t ~segid ~blkno = Hashtbl.mem t.stuck (segid, blkno)

(* Silent medium decay: flip a few bytes of the stored image in place
   without touching the recorded checksum, so only verification notices. *)
let rot_bytes b =
  let len = Bytes.length b in
  let flip i =
    if i >= 0 && i < len then Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xA5))
  in
  flip 0;
  flip (len / 2);
  flip (len - 1)

(* Every stored image is one page. *)
let block_crc b = Page.crc32 b ~off:0 ~len:Page.size
let zero_checksum = block_crc (Bytes.make Page.size '\000')

let rec create_segment t =
  if t.dead then media_failure t ~segid:(-1) ~blkno:(-1) "device dead";
  let segid = t.next_segid in
  t.next_segid <- segid + 1;
  Hashtbl.replace t.seg_len segid 0;
  (match t.mirror with
  | Some m when not m.dead ->
    let msegid = create_segment m in
    Hashtbl.replace t.mirror_seg segid msegid
  | _ -> ());
  segid

let segment_exists t segid = Hashtbl.mem t.seg_len segid

let rec drop_segment t segid =
  let len = Option.value ~default:0 (Hashtbl.find_opt t.seg_len segid) in
  for blkno = 0 to len - 1 do
    Hashtbl.remove t.blocks (segid, blkno);
    Hashtbl.remove t.phys (segid, blkno);
    Hashtbl.remove t.checksums (segid, blkno);
    Hashtbl.remove t.stuck (segid, blkno)
  done;
  Hashtbl.remove t.seg_len segid;
  Hashtbl.remove t.seg_extent segid;
  match (t.mirror, Hashtbl.find_opt t.mirror_seg segid) with
  | Some m, Some msegid ->
    Hashtbl.remove t.mirror_seg segid;
    drop_segment m msegid
  | _ -> Hashtbl.remove t.mirror_seg segid

let nblocks t segid =
  match Hashtbl.find_opt t.seg_len segid with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Device.nblocks: no segment %d on %s" segid t.name)

(* Extent-based physical allocation: a segment's blocks come in runs of
   contiguous physical blocks, so sequential scans of one relation stream
   without long seeks even when relations interleave.  A segment's next
   extent is as large as the segment already is, capped at
   [extent_blocks] (runs of 1, 1, 2, 4, 8, 8, ... on disk): a small
   relation reserves no tail, so relations created together stay packed
   end to end, and a WORM (cap 1) always writes at its frontier. *)
let fresh_phys t segid =
  let next, remaining =
    match Hashtbl.find_opt t.seg_extent segid with
    | Some (next, remaining) when remaining > 0 -> (next, remaining)
    | _ ->
      let size = max 1 (min t.geometry.extent_blocks (nblocks t segid)) in
      let next = t.next_phys in
      t.next_phys <- next + size;
      (next, size)
  in
  Hashtbl.replace t.seg_extent segid (next + 1, remaining - 1);
  next

let rec allocate_block t segid =
  if t.dead then media_failure t ~segid ~blkno:(-1) "device dead";
  let len = nblocks t segid in
  let phys = fresh_phys t segid in
  Hashtbl.replace t.phys (segid, len) phys;
  Hashtbl.replace t.blocks (segid, len) (Bytes.make Page.size '\000');
  Hashtbl.replace t.checksums (segid, len) zero_checksum;
  Hashtbl.replace t.seg_len segid (len + 1);
  (* Lockstep allocation keeps mirror block numbers identical, so failover
     reads address the mirror with the same (segid-mapped, blkno) pair. *)
  (match (t.mirror, Hashtbl.find_opt t.mirror_seg segid) with
  | Some m, Some msegid when not m.dead -> (
    try ignore (allocate_block m msegid) with Media_failure _ -> ())
  | _ -> ());
  len

let attach_mirror t m =
  if t == m then invalid_arg "Device.attach_mirror: a device cannot mirror itself";
  if t.mirror <> None then
    invalid_arg (Printf.sprintf "Device.attach_mirror: %s is already mirrored" t.name);
  if m.mirror <> None then
    invalid_arg
      (Printf.sprintf "Device.attach_mirror: mirror target %s is itself mirrored" m.name);
  if t.dead || m.dead then invalid_arg "Device.attach_mirror: cannot mirror a dead device";
  t.mirror <- Some m;
  (* Resilver: every pre-existing segment gets a lockstep copy.  The stored
     image and its recorded checksum are copied verbatim, so latent rot on
     the primary stays detectable rather than being laundered clean. *)
  let segids = Hashtbl.fold (fun segid _ acc -> segid :: acc) t.seg_len [] in
  List.iter
    (fun segid ->
      let msegid = create_segment m in
      Hashtbl.replace t.mirror_seg segid msegid;
      for blkno = 0 to nblocks t segid - 1 do
        ignore (allocate_block m msegid);
        Hashtbl.replace m.blocks (msegid, blkno)
          (Bytes.copy (Hashtbl.find t.blocks (segid, blkno)));
        match Hashtbl.find_opt t.checksums (segid, blkno) with
        | Some c -> Hashtbl.replace m.checksums (msegid, blkno) c
        | None -> ()
      done;
      Simclock.Clock.tick t.clock "mirror.resilver_segment")
    (List.sort compare segids)

let mirror t = t.mirror

let segment_mirror t ~segid =
  match (t.mirror, Hashtbl.find_opt t.mirror_seg segid) with
  | Some m, Some msegid -> Some (m, msegid)
  | _ -> None

let segments t =
  List.sort compare (Hashtbl.fold (fun segid _ acc -> segid :: acc) t.seg_len [])

let check_block t segid blkno =
  if not (Hashtbl.mem t.blocks (segid, blkno)) then
    invalid_arg
      (Printf.sprintf "Device %s: block %d/%d does not exist" t.name segid blkno)

let xfer_time g = float_of_int Page.size /. g.xfer_bytes_per_s

(* Seek + rotate cost for moving the arm to [phys].  A transfer that
   continues exactly where the last one ended streams for free. *)
let charge_positioning t account phys =
  let g = t.geometry in
  if phys <> t.head_phys then begin
    let distance = abs (phys - t.head_phys) in
    let frac = float_of_int distance /. float_of_int (max 1 g.total_blocks) in
    let seek = g.seek_min_s +. ((g.seek_max_s -. g.seek_min_s) *. frac) in
    Simclock.Clock.advance t.clock ~account:(account ^ ".seek") seek;
    Simclock.Clock.advance t.clock ~account:(account ^ ".rotate") (g.rotation_s /. 2.)
  end;
  t.head_phys <- phys + 1

let charge_disk_io t account phys =
  let g = t.geometry in
  Simclock.Clock.advance t.clock ~account:(account ^ ".overhead") g.per_io_s;
  charge_positioning t account phys;
  Simclock.Clock.advance t.clock ~account:(account ^ ".xfer") (xfer_time g)

let charge_nvram_io t account =
  let g = t.geometry in
  Simclock.Clock.advance t.clock ~account (g.per_io_s +. xfer_time g)

(* The jukebox's magnetic-disk cache is charged with RZ58-style constants:
   a cache hit costs a disk I/O, a miss costs platter positioning plus the
   optical transfer plus the cache fill. *)
let cache_io_cost = rz58.per_io_s +. (rz58.rotation_s /. 2.) +. (float_of_int Page.size /. rz58.xfer_bytes_per_s)

let platter_of t phys =
  if t.geometry.platter_blocks <= 0 then 0 else phys / t.geometry.platter_blocks

let charge_jukebox_media t account phys =
  let g = t.geometry in
  let platter = platter_of t phys in
  if platter <> t.loaded_platter then begin
    Simclock.Clock.advance t.clock ~account:"jukebox.load" g.platter_load_s;
    Simclock.Clock.tick t.clock "jukebox.platter_exchange";
    t.loaded_platter <- platter
  end;
  Simclock.Clock.advance t.clock ~account:(account ^ ".overhead") g.per_io_s;
  charge_positioning t account phys;
  Simclock.Clock.advance t.clock ~account:(account ^ ".xfer") (xfer_time g)

let charge_jukebox_read t phys =
  if Lru_set.mem t.cache phys then begin
    Simclock.Clock.tick t.clock "jukebox.cache_hit";
    Simclock.Clock.advance t.clock ~account:"jukebox.cache" cache_io_cost;
    Lru_set.touch t.cache phys
  end
  else begin
    Simclock.Clock.tick t.clock "jukebox.cache_miss";
    charge_jukebox_media t "jukebox" phys;
    (* fill the cache *)
    Simclock.Clock.advance t.clock ~account:"jukebox.cache" cache_io_cost;
    Lru_set.add t.cache phys
  end

let charge_read t ~segid ~blkno =
  check_alive t ~segid ~blkno;
  check_stuck t ~segid ~blkno;
  check_block t segid blkno;
  let phys = Hashtbl.find t.phys (segid, blkno) in
  (match t.kind with
  | Magnetic_disk -> charge_disk_io t "disk" phys
  | Nvram -> charge_nvram_io t "nvram"
  | Worm_jukebox -> charge_jukebox_read t phys);
  t.reads <- t.reads + 1

(* Continuation of a streaming burst already in flight: positioning is
   still charged (and waived when the transfer really does continue at the
   arm), but the per-request controller overhead is paid once for the
   whole burst, by its first (ordinary) read.  NVRAM and the jukebox have
   no such fixed request overhead worth batching away. *)
let charge_read_cont t ~segid ~blkno =
  check_alive t ~segid ~blkno;
  check_stuck t ~segid ~blkno;
  check_block t segid blkno;
  let phys = Hashtbl.find t.phys (segid, blkno) in
  (match t.kind with
  | Magnetic_disk ->
    charge_positioning t "disk" phys;
    Simclock.Clock.advance t.clock ~account:"disk.xfer" (xfer_time t.geometry)
  | Nvram -> charge_nvram_io t "nvram"
  | Worm_jukebox -> charge_jukebox_read t phys);
  t.reads <- t.reads + 1

let set_fault_hook t hook = t.fault_hook <- hook

let consult_hook t io ~segid ~blkno =
  match t.fault_hook with None -> None | Some hook -> hook io ~segid ~blkno

let peek_block t ~segid ~blkno frame =
  check_alive t ~segid ~blkno;
  check_stuck t ~segid ~blkno;
  check_block t segid blkno;
  let stored = Hashtbl.find t.blocks (segid, blkno) in
  match consult_hook t Io_read ~segid ~blkno with
  | None -> Page.blit_in frame 0 stored 0 Page.size
  | Some (Fault_torn n) ->
    (* Transient short read: the first [n] bytes transfer, the rest come
       back as zeros.  The durable copy is untouched. *)
    Page.clear frame;
    Page.blit_in frame 0 stored 0 (max 0 (min n Page.size))
  | Some Fault_io_error -> raise (Io_fault { device = t.name; segid; blkno })
  | Some Fault_crash -> raise (Crash_injected { device = t.name; segid; blkno })
  | Some Fault_bitrot ->
    (* Silent corruption: the medium decays under this read and the rotten
       bytes are returned.  The recorded checksum is left stale, so the
       verified read path is what catches this. *)
    rot_bytes stored;
    Page.blit_in frame 0 stored 0 Page.size
  | Some Fault_stuck ->
    mark_stuck t ~segid ~blkno;
    media_failure t ~segid ~blkno "stuck block"
  | Some Fault_dead ->
    kill t;
    media_failure t ~segid ~blkno "device dead"

(* Uncharged stores (write-backs into the FS buffer cache, mirror repair,
   the NFS baseline's writes) are counted too — without the latency
   histogram the charged transfers get, since they cost no simulated time. *)
let m_poke = Obs.Metrics.counter "device.poke"

(* The dirty marks live in battery-backed RAM beside the status log: one
   NVRAM store of a 16-byte table entry per set or clear, one read of the
   table at restart, all on the "nvram.mark" account. *)
let mark_io_cost = nvram_geometry.per_io_s +. (16. /. nvram_geometry.xfer_bytes_per_s)
let charge_mark_io t = Simclock.Clock.advance t.clock ~account:"nvram.mark" mark_io_cost
let is_marked t ~segid = Hashtbl.mem t.marks segid

let read_marks t =
  charge_mark_io t;
  List.sort compare (Hashtbl.fold (fun segid () acc -> segid :: acc) t.marks [])

let clear_marks t =
  if Hashtbl.length t.marks > 0 then begin
    charge_mark_io t;
    Hashtbl.reset t.marks
  end

let poke_block t ~segid ~blkno page =
  check_alive t ~segid ~blkno;
  check_block t segid blkno;
  (* Mark before the store: a crash that tears this block finds the
     segment marked at restart. *)
  if not (Hashtbl.mem t.marks segid) then begin
    charge_mark_io t;
    Hashtbl.replace t.marks segid ()
  end;
  (* Writing a pending (stuck) sector triggers reallocation, as real
     drives do: the logical block is remapped onto a spare physical
     block, the pending state clears, and the write proceeds. *)
  if Hashtbl.mem t.stuck (segid, blkno) then begin
    Hashtbl.remove t.stuck (segid, blkno);
    Hashtbl.replace t.phys (segid, blkno) (fresh_phys t segid)
  end;
  let fault = consult_hook t Io_write ~segid ~blkno in
  (match fault with
  | Some Fault_io_error -> raise (Io_fault { device = t.name; segid; blkno })
  | Some Fault_crash -> raise (Crash_injected { device = t.name; segid; blkno })
  | Some Fault_stuck ->
    mark_stuck t ~segid ~blkno;
    media_failure t ~segid ~blkno "stuck block"
  | Some Fault_dead ->
    kill t;
    media_failure t ~segid ~blkno "device dead"
  | None | Some (Fault_torn _) | Some Fault_bitrot -> ());
  (* The store lands in the block's own buffer: every block has one from
     [allocate_block], and reads and resilvers copy out of it, so no one
     else holds it.  A torn write moves only the first [n] bytes of the
     new image; the tail keeps whatever was there before. *)
  let stored = Hashtbl.find t.blocks (segid, blkno) in
  let n = match fault with Some (Fault_torn n) -> max 0 (min n Page.size) | _ -> Page.size in
  Page.blit_out page 0 stored 0 n;
  (* The checksum records the bytes that actually reached the medium — a
     torn write is checksum-consistent (self-identifying pages catch it);
     only post-hoc decay leaves the checksum stale. *)
  Hashtbl.replace t.checksums (segid, blkno) (block_crc stored);
  Obs.Metrics.incr m_poke;
  match fault with Some Fault_bitrot -> rot_bytes stored | _ -> ()

(* Unified observability: each charged transfer bumps a registry counter
   and a latency histogram in lockstep and emits a trace event, all
   behind the Device mask so the disabled cost is one bit test. *)
let m_read = Obs.Metrics.counter "device.read"
let h_read = Obs.Metrics.histogram "device.read.latency_us"
let m_read_cont = Obs.Metrics.counter "device.read_cont"
let h_read_cont = Obs.Metrics.histogram "device.read_cont.latency_us"
let m_write = Obs.Metrics.counter "device.write"
let h_write = Obs.Metrics.histogram "device.write.latency_us"

let obs_io t name counter hist ~segid ~blkno ~t0 =
  Obs.Metrics.incr counter;
  Obs.Metrics.observe hist (Simclock.Clock.now t.clock -. t0);
  Obs.event Obs.Device name
    ~args:[ ("dev", Obs.S t.name); ("segid", Obs.I segid); ("blkno", Obs.I blkno) ]
    ()

let read_block t ~segid ~blkno frame =
  if not (Obs.on Obs.Device) then begin
    charge_read t ~segid ~blkno;
    peek_block t ~segid ~blkno frame
  end
  else begin
    let t0 = Simclock.Clock.now t.clock in
    charge_read t ~segid ~blkno;
    peek_block t ~segid ~blkno frame;
    obs_io t "device.read" m_read h_read ~segid ~blkno ~t0
  end

let read_block_cont t ~segid ~blkno frame =
  if not (Obs.on Obs.Device) then begin
    charge_read_cont t ~segid ~blkno;
    peek_block t ~segid ~blkno frame
  end
  else begin
    let t0 = Simclock.Clock.now t.clock in
    charge_read_cont t ~segid ~blkno;
    peek_block t ~segid ~blkno frame;
    obs_io t "device.read_cont" m_read_cont h_read_cont ~segid ~blkno ~t0
  end

let verify_block t ~segid ~blkno =
  check_block t segid blkno;
  let stored = Hashtbl.find t.blocks (segid, blkno) in
  let actual = block_crc stored in
  match Hashtbl.find_opt t.checksums (segid, blkno) with
  | Some want when actual <> want ->
    Error
      (Printf.sprintf "checksum mismatch on %s segment %d block %d: recorded %08x, stored %08x"
         t.name segid blkno want actual)
  | _ -> Ok ()

let recorded_checksum t ~segid ~blkno =
  check_block t segid blkno;
  match Hashtbl.find_opt t.checksums (segid, blkno) with
  | Some c -> c
  | None -> block_crc (Hashtbl.find t.blocks (segid, blkno))

let rot_block t ~segid ~blkno =
  check_block t segid blkno;
  rot_bytes (Hashtbl.find t.blocks (segid, blkno))

let charge_write t ~segid ~blkno =
  (* no stuck check: writes to a pending sector succeed by remapping
     (see poke_block), so only a dead device refuses the transfer *)
  check_alive t ~segid ~blkno;
  check_block t segid blkno;
  let phys = Hashtbl.find t.phys (segid, blkno) in
  (match t.kind with
  | Magnetic_disk -> charge_disk_io t "disk" phys
  | Nvram -> charge_nvram_io t "nvram"
  | Worm_jukebox ->
    (* Write-once media: rewriting a logical block allocates a fresh
       physical block, as the Sony device manager did. *)
    let phys =
      if Hashtbl.mem t.worm_written phys then begin
        let fresh = fresh_phys t segid in
        Hashtbl.replace t.phys (segid, blkno) fresh;
        fresh
      end
      else phys
    in
    Hashtbl.replace t.worm_written phys ();
    charge_jukebox_media t "jukebox" phys;
    Simclock.Clock.advance t.clock ~account:"jukebox.cache" cache_io_cost;
    Lru_set.add t.cache phys);
  t.writes <- t.writes + 1

let write_block t ~segid ~blkno page =
  if not (Obs.on Obs.Device) then begin
    charge_write t ~segid ~blkno;
    poke_block t ~segid ~blkno page
  end
  else begin
    let t0 = Simclock.Clock.now t.clock in
    charge_write t ~segid ~blkno;
    poke_block t ~segid ~blkno page;
    obs_io t "device.write" m_write h_write ~segid ~blkno ~t0
  end

let charge_drain t =
  let g = t.geometry in
  Simclock.Clock.advance t.clock ~account:"disk.drain" (g.per_io_s +. xfer_time g);
  t.writes <- t.writes + 1

let sync t = Simclock.Clock.tick t.clock (t.name ^ ".sync")

let crash t =
  t.head_phys <- 0;
  t.loaded_platter <- -1
