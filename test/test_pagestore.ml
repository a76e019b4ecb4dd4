(* Pages, devices, the device switch, and the buffer cache. *)

module P = Pagestore.Page
module D = Pagestore.Device
module S = Pagestore.Switch
module B = Pagestore.Bufcache

(* Device reads fill a frame the caller passes; these tests want a fresh one. *)
let peek dev ~segid ~blkno =
  let p = Pagestore.Page.create () in
  Pagestore.Device.peek_block dev ~segid ~blkno p;
  p

let read dev ~segid ~blkno =
  let p = Pagestore.Page.create () in
  Pagestore.Device.read_block dev ~segid ~blkno p;
  p

let verified_read dev ~segid ~blkno =
  let p = Pagestore.Page.create () in
  Pagestore.Resilient.read_block dev ~segid ~blkno p;
  p

let fresh_disk ?geometry () =
  let clock = Simclock.Clock.create () in
  (clock, D.create ~clock ~name:"disk" ~kind:D.Magnetic_disk ?geometry ())

(* ---- Page ---- *)

let test_page_accessors () =
  let p = P.create () in
  P.set_u8 p 0 0xAB;
  Alcotest.(check int) "u8" 0xAB (P.get_u8 p 0);
  P.set_u16 p 2 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (P.get_u16 p 2);
  P.set_u32 p 4 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (P.get_u32 p 4);
  P.set_i64 p 8 (-42L);
  Alcotest.(check int64) "i64" (-42L) (P.get_i64 p 8);
  P.set_string p 100 "hello";
  Alcotest.(check string) "string" "hello" (P.get_string p 100 5)

let test_page_bounds () =
  let p = P.create () in
  Alcotest.check_raises "oob write" (Invalid_argument "Page: offset out of bounds")
    (fun () -> P.set_u32 p (P.size - 2) 1);
  Alcotest.check_raises "oob read" (Invalid_argument "Page: offset out of bounds")
    (fun () -> ignore (P.get_i64 p (P.size - 4)))

let test_page_checksum_changes () =
  let p = P.create () in
  let c0 = P.checksum p in
  P.set_u8 p 1000 1;
  Alcotest.(check bool) "checksum differs" true (c0 <> P.checksum p)

let crc_of_string s = P.crc32 (Bytes.of_string s) ~off:0 ~len:(String.length s)

let test_crc_known_answers () =
  Alcotest.(check int) "check value" 0xCBF43926 (crc_of_string "123456789");
  Alcotest.(check int) "empty" 0 (crc_of_string "");
  Alcotest.check_raises "range checked" (Invalid_argument "Page.crc32") (fun () ->
      ignore (P.crc32 (Bytes.create 4) ~off:2 ~len:3))

(* Bit-at-a-time reference: no table, so it shares nothing with
   [Page.crc32] but the polynomial. *)
let crc_bitwise b ~off ~len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc_matches_bitwise () =
  let rng = Random.State.make [| 32 |] in
  let buf = Bytes.init 12_000 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for _ = 1 to 200 do
    let len = Random.State.int rng 9_001 in
    let off = Random.State.int rng (Bytes.length buf - len + 1) in
    let got = P.crc32 buf ~off ~len and want = crc_bitwise buf ~off ~len in
    if got <> want then Alcotest.failf "off=%d len=%d: %08x, want %08x" off len got want
  done;
  (* Every tail length the 8-byte loop leaves, at every alignment. *)
  for off = 0 to 7 do
    for len = 0 to 40 do
      let got = P.crc32 buf ~off ~len and want = crc_bitwise buf ~off ~len in
      if got <> want then Alcotest.failf "off=%d len=%d: %08x, want %08x" off len got want
    done
  done;
  let page = P.of_bytes buf in
  Alcotest.(check int) "whole page"
    (crc_bitwise (P.raw page) ~off:0 ~len:P.size)
    (P.checksum page)

(* Bytes that reach the medium and the wire, pinned: a name-index key
   and one frame's CRC field. *)
let test_crc_golden_bytes () =
  Alcotest.(check string) "dir_name key" "\x00\x00\x00\x00\x00\x00\x00\x01\xe8\xb7\xbe\x43"
    (Index.Key.dir_name ~parentid:1L ~name:"a");
  let frame = List.hd (Remote.Wire.encode_request ~sid:1L ~rid:1L Remote.Wire.Ping) in
  Alcotest.(check string) "frame CRC field" "\xc2\x0e\x9b\xd2" (String.sub frame 32 4)

let test_page_of_bytes_pads () =
  let p = P.of_bytes (Bytes.of_string "xyz") in
  Alcotest.(check string) "prefix" "xyz" (P.get_string p 0 3);
  Alcotest.(check int) "padded" 0 (P.get_u8 p 3)

(* ---- Device ---- *)

let test_device_alloc_rw () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  Alcotest.(check int) "empty" 0 (D.nblocks dev seg);
  let b0 = D.allocate_block dev seg in
  let b1 = D.allocate_block dev seg in
  Alcotest.(check (pair int int)) "block numbers" (0, 1) (b0, b1);
  let page = P.create () in
  P.set_string page 0 "data!";
  D.write_block dev ~segid:seg ~blkno:0 page;
  let back = read dev ~segid:seg ~blkno:0 in
  Alcotest.(check string) "roundtrip" "data!" (P.get_string back 0 5);
  Alcotest.(check int) "reads" 1 (D.reads dev);
  Alcotest.(check int) "writes" 1 (D.writes dev)

(* A store copies the caller's page into the block: later changes to
   that page reach neither the medium nor its recorded checksum. *)
let test_device_store_detaches_caller_page () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  ignore (D.allocate_block dev seg : int);
  let page = P.create () in
  P.set_string page 0 "stored";
  D.poke_block dev ~segid:seg ~blkno:0 page;
  P.set_string page 0 "caller";
  P.set_string page (P.size - 6) "scrawl";
  Alcotest.(check string) "image unchanged" "stored"
    (P.get_string (peek dev ~segid:seg ~blkno:0) 0 6);
  Alcotest.(check (result unit string)) "verifies" (Ok ()) (D.verify_block dev ~segid:seg ~blkno:0);
  D.poke_block dev ~segid:seg ~blkno:0 page;
  Alcotest.(check string) "restore lands" "scrawl"
    (P.get_string (peek dev ~segid:seg ~blkno:0) (P.size - 6) 6)

let test_device_missing_block () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  Alcotest.(check bool) "read missing raises" true
    (try
       ignore (read dev ~segid:seg ~blkno:5);
       false
     with Invalid_argument _ -> true)

let test_device_charges_time () =
  let clock, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let b = D.allocate_block dev seg in
  ignore (read dev ~segid:seg ~blkno:b);
  Alcotest.(check bool) "time advanced" true (Simclock.Clock.now clock > 0.)

let test_device_sequential_cheaper_than_random () =
  let clock, dev = fresh_disk () in
  let seg = D.create_segment dev in
  for _ = 1 to 64 do
    ignore (D.allocate_block dev seg)
  done;
  Simclock.Clock.reset clock;
  for i = 0 to 63 do
    ignore (read dev ~segid:seg ~blkno:i)
  done;
  let seq = Simclock.Clock.now clock in
  Simclock.Clock.reset clock;
  let rng = Simclock.Rng.create 5L in
  for _ = 0 to 63 do
    ignore (read dev ~segid:seg ~blkno:(Simclock.Rng.int rng 64))
  done;
  let rnd = Simclock.Clock.now clock in
  Alcotest.(check bool)
    (Printf.sprintf "sequential %.4fs < random %.4fs" seq rnd)
    true (seq < rnd)

let test_nvram_faster_than_disk () =
  let clock = Simclock.Clock.create () in
  let disk = D.create ~clock ~name:"disk" ~kind:D.Magnetic_disk () in
  let nvram = D.create ~clock ~name:"nv" ~kind:D.Nvram () in
  let sd = D.create_segment disk and sn = D.create_segment nvram in
  ignore (D.allocate_block disk sd);
  ignore (D.allocate_block nvram sn);
  Simclock.Clock.reset clock;
  ignore (read disk ~segid:sd ~blkno:0);
  let t_disk = Simclock.Clock.now clock in
  Simclock.Clock.reset clock;
  ignore (read nvram ~segid:sn ~blkno:0);
  let t_nvram = Simclock.Clock.now clock in
  Alcotest.(check bool) "nvram much faster" true (t_nvram *. 10. < t_disk)

let test_jukebox_platter_load_and_cache () =
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"jb" ~kind:D.Worm_jukebox () in
  let seg = D.create_segment dev in
  let b = D.allocate_block dev seg in
  let page = P.create () in
  D.write_block dev ~segid:seg ~blkno:b page;
  Alcotest.(check bool) "platter load charged" true
    (Simclock.Clock.charged clock "jukebox.load" >= 8.0);
  (* First read after write hits the disk cache: cheap. *)
  Simclock.Clock.reset clock;
  ignore (read dev ~segid:seg ~blkno:b);
  Alcotest.(check int) "cache hit" 1 (Simclock.Clock.ticks clock "jukebox.cache_hit");
  Alcotest.(check bool) "hit is cheap" true (Simclock.Clock.now clock < 0.05)

let test_jukebox_worm_rewrite_allocates () =
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"jb" ~kind:D.Worm_jukebox () in
  let seg = D.create_segment dev in
  let b = D.allocate_block dev seg in
  let page = P.create () in
  D.write_block dev ~segid:seg ~blkno:b page;
  let consumed_after_first = D.worm_written_blocks dev in
  P.set_u8 page 0 1;
  D.write_block dev ~segid:seg ~blkno:b page;
  Alcotest.(check int) "first write consumed one block" 1 consumed_after_first;
  Alcotest.(check int) "rewrite consumed a fresh physical block" 2
    (D.worm_written_blocks dev);
  let back = read dev ~segid:seg ~blkno:b in
  Alcotest.(check int) "latest contents" 1 (P.get_u8 back 0)

let test_drop_segment () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  ignore (D.allocate_block dev seg);
  D.drop_segment dev seg;
  Alcotest.(check bool) "gone" false (D.segment_exists dev seg)

(* ---- extent allocation ---- *)

let test_small_segment_reserves_no_tail () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let before = D.used_blocks dev in
  ignore (D.allocate_block dev seg);
  Alcotest.(check int) "one block moves the frontier by one" 1 (D.used_blocks dev - before)

let test_worm_writes_at_frontier () =
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"jb" ~kind:D.Worm_jukebox () in
  let a = D.create_segment dev and b = D.create_segment dev in
  let page = P.create () in
  let append seg = D.write_block dev ~segid:seg ~blkno:(D.allocate_block dev seg) page in
  append a;
  Simclock.Clock.reset clock;
  List.iter append [ b; a; b; a ];
  D.write_block dev ~segid:a ~blkno:0 page;
  Alcotest.(check (float 0.)) "no platter seek after the first write" 0.
    (Simclock.Clock.charged clock "jukebox.seek")

let test_grown_segment_is_one_run () =
  let clock, dev = fresh_disk () in
  let seg = D.create_segment dev in
  for _ = 1 to 64 do
    ignore (D.allocate_block dev seg)
  done;
  Simclock.Clock.reset clock;
  for blkno = 0 to 63 do
    ignore (read dev ~segid:seg ~blkno)
  done;
  (* Every arm repositioning pays half a rotation. *)
  let n =
    int_of_float
      (Float.round (Simclock.Clock.charged clock "disk.rotate" /. (D.rz58.D.rotation_s /. 2.)))
  in
  Alcotest.(check bool) (Printf.sprintf "%d repositionings" n) true (n <= 1)

(* ---- Switch ---- *)

let test_switch_registry () =
  let clock = Simclock.Clock.create () in
  let sw = S.create ~clock in
  let d1 = S.add_device sw ~name:"disk0" ~kind:D.Magnetic_disk () in
  let _d2 = S.add_device sw ~name:"jukebox" ~kind:D.Worm_jukebox () in
  Alcotest.(check string) "find" "jukebox" (D.name (S.find sw "jukebox"));
  Alcotest.(check bool) "default is first" true (S.default_device sw == d1);
  Alcotest.(check int) "two devices" 2 (List.length (S.devices sw));
  Alcotest.(check bool) "duplicate rejected" true
    (try
       S.register sw d1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (S.find sw "nope");
       false
     with Not_found -> true)

let test_switch_empty_default () =
  let clock = Simclock.Clock.create () in
  let sw = S.create ~clock in
  Alcotest.(check bool) "empty switch has no default" true
    (try
       ignore (S.default_device sw : D.t);
       false
     with Failure _ -> true)

let test_switch_find_opt_agrees () =
  let clock = Simclock.Clock.create () in
  let sw = S.create ~clock in
  let d = S.add_device sw ~name:"disk0" ~kind:D.Magnetic_disk () in
  (match S.find_opt sw "disk0" with
  | Some d' -> Alcotest.(check bool) "find_opt returns the device" true (d == d')
  | None -> Alcotest.fail "find_opt missed a registered device");
  Alcotest.(check bool) "find agrees" true (S.find sw "disk0" == d);
  Alcotest.(check bool) "find_opt None on missing" true (S.find_opt sw "nope" = None);
  Alcotest.(check bool) "find raises on missing" true
    (try
       ignore (S.find sw "nope" : D.t);
       false
     with Not_found -> true)

let test_switch_mirror_pairing () =
  let clock = Simclock.Clock.create () in
  let sw = S.create ~clock in
  ignore (S.add_device sw ~name:"a" ~kind:D.Magnetic_disk () : D.t);
  let b = S.add_device sw ~name:"b" ~kind:D.Magnetic_disk () in
  ignore (S.add_device sw ~name:"c" ~kind:D.Magnetic_disk () : D.t);
  let rejects what f =
    Alcotest.(check bool) what true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  rejects "self-pair rejected" (fun () -> S.mirror sw ~primary:"a" ~secondary:"a");
  rejects "unregistered primary" (fun () -> S.mirror sw ~primary:"zz" ~secondary:"b");
  rejects "unregistered secondary" (fun () -> S.mirror sw ~primary:"a" ~secondary:"zz");
  S.mirror sw ~primary:"a" ~secondary:"b";
  Alcotest.(check (list (pair string string))) "pair recorded" [ ("a", "b") ]
    (S.mirror_pairs sw);
  (match S.mirror_of sw "a" with
  | Some d -> Alcotest.(check bool) "mirror_of names the secondary" true (d == b)
  | None -> Alcotest.fail "mirror_of lost the pairing");
  rejects "re-pairing a mirrored device" (fun () ->
      S.mirror sw ~primary:"a" ~secondary:"c")

(* ---- checksums, rot, mirrors, death ---- *)

let test_device_checksums_catch_rot () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  D.poke_block dev ~segid:seg ~blkno:blk (P.of_bytes (Bytes.make P.size 'x'));
  (match D.verify_block dev ~segid:seg ~blkno:blk with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("fresh write should verify: " ^ e));
  let recorded = D.recorded_checksum dev ~segid:seg ~blkno:blk in
  D.rot_block dev ~segid:seg ~blkno:blk;
  Alcotest.(check bool) "recorded checksum unchanged by rot" true
    (recorded = D.recorded_checksum dev ~segid:seg ~blkno:blk);
  (match D.verify_block dev ~segid:seg ~blkno:blk with
  | Ok () -> Alcotest.fail "rot must fail verification"
  | Error msg ->
    Alcotest.(check bool) "message names the mismatch" true
      (String.length msg > 0
      && String.sub msg 0 (String.length "checksum mismatch") = "checksum mismatch"))

let test_device_mirror_resilver_and_repair () =
  let clock = Simclock.Clock.create () in
  let prim = D.create ~clock ~name:"prim" ~kind:D.Magnetic_disk () in
  let sec = D.create ~clock ~name:"sec" ~kind:D.Magnetic_disk () in
  let seg = D.create_segment prim in
  let blk = D.allocate_block prim seg in
  D.poke_block prim ~segid:seg ~blkno:blk (P.of_bytes (Bytes.make P.size 'm'));
  (* attach after the fact: the resilver copies existing bytes *)
  D.attach_mirror prim sec;
  (match D.segment_mirror prim ~segid:seg with
  | None -> Alcotest.fail "mirrored segment missing"
  | Some (m, mseg) ->
    Alcotest.(check bool) "mirror device" true (m == sec);
    Alcotest.(check char) "mirror holds the bytes" 'm'
      (Bytes.get (P.to_bytes (peek sec ~segid:mseg ~blkno:blk)) 0));
  (* new allocation is lockstep: same blkno on both sides *)
  let blk2 = D.allocate_block prim seg in
  let mseg = match D.segment_mirror prim ~segid:seg with Some (_, s) -> s | None -> -1 in
  Alcotest.(check int) "lockstep block count" (D.nblocks prim seg) (D.nblocks sec mseg);
  ignore blk2;
  (* rot the primary copy; the resilient read fails over and repairs *)
  D.rot_block prim ~segid:seg ~blkno:blk;
  let page = verified_read prim ~segid:seg ~blkno:blk in
  Alcotest.(check char) "failover returns good bytes" 'm'
    (Bytes.get (P.to_bytes page) 0);
  (match D.verify_block prim ~segid:seg ~blkno:blk with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("primary should be repaired in place: " ^ e))

let test_device_kill_and_stuck () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  D.poke_block dev ~segid:seg ~blkno:blk (P.of_bytes (Bytes.make P.size 's'));
  D.mark_stuck dev ~segid:seg ~blkno:blk;
  Alcotest.(check bool) "stuck recorded" true (D.is_stuck dev ~segid:seg ~blkno:blk);
  (match peek dev ~segid:seg ~blkno:blk with
  | _ -> Alcotest.fail "stuck block must not answer"
  | exception D.Media_failure { reason; _ } ->
    Alcotest.(check string) "stuck reason" "stuck block" reason);
  (* a write remaps the pending sector and clears it *)
  D.poke_block dev ~segid:seg ~blkno:blk (P.of_bytes (Bytes.make P.size 't'));
  Alcotest.(check bool) "write remapped the sector" false
    (D.is_stuck dev ~segid:seg ~blkno:blk);
  Alcotest.(check char) "remapped block answers" 't'
    (Bytes.get (P.to_bytes (peek dev ~segid:seg ~blkno:blk)) 0);
  Alcotest.(check bool) "not dead yet" false (D.is_dead dev);
  D.kill dev;
  Alcotest.(check bool) "dead" true (D.is_dead dev);
  (match D.create_segment dev with
  | _ -> Alcotest.fail "dead device must not allocate"
  | exception D.Media_failure { reason; _ } ->
    Alcotest.(check string) "dead reason" "device dead" reason)

(* ---- Buffer cache ---- *)

let test_cache_hit_and_miss () =
  let _, dev = fresh_disk () in
  let cache = B.create ~capacity:8 () in
  let seg = D.create_segment dev in
  let b = B.new_block cache dev ~segid:seg in
  ignore (B.get cache dev ~segid:seg ~blkno:b);
  B.unpin cache dev ~segid:seg ~blkno:b;
  ignore (B.get cache dev ~segid:seg ~blkno:b);
  B.unpin cache dev ~segid:seg ~blkno:b;
  Alcotest.(check int) "hits" 2 (B.hits cache);
  Alcotest.(check int) "no device reads" 0 (D.reads dev)

let test_cache_eviction_writes_back () =
  let _, dev = fresh_disk () in
  let cache = B.create ~capacity:4 () in
  let seg = D.create_segment dev in
  let blocks = List.init 8 (fun _ -> B.new_block cache dev ~segid:seg) in
  let mark b =
    B.with_page cache dev ~segid:seg ~blkno:b (fun p -> P.set_u32 p 0 (b + 1));
    B.mark_dirty cache dev ~segid:seg ~blkno:b
  in
  List.iter mark blocks;
  Alcotest.(check bool) "evictions happened" true (B.evictions cache > 0);
  Alcotest.(check bool) "writebacks happened" true (B.writebacks cache > 0);
  B.flush cache;
  B.crash cache;
  (* All data must be on the device now. *)
  let check b =
    let p = read dev ~segid:seg ~blkno:b in
    Alcotest.(check int) (Printf.sprintf "block %d" b) (b + 1) (P.get_u32 p 0)
  in
  List.iter check blocks

let test_cache_pinned_not_evicted () =
  let _, dev = fresh_disk () in
  let cache = B.create ~capacity:2 () in
  let seg = D.create_segment dev in
  let b0 = B.new_block cache dev ~segid:seg in
  let b1 = B.new_block cache dev ~segid:seg in
  let b2 = B.new_block cache dev ~segid:seg in
  let p0 = B.get cache dev ~segid:seg ~blkno:b0 in
  (* b0 pinned; filling the cache must evict others, not b0 *)
  ignore (B.get cache dev ~segid:seg ~blkno:b1);
  B.unpin cache dev ~segid:seg ~blkno:b1;
  ignore (B.get cache dev ~segid:seg ~blkno:b2);
  B.unpin cache dev ~segid:seg ~blkno:b2;
  P.set_u32 p0 0 7;
  B.mark_dirty cache dev ~segid:seg ~blkno:b0;
  B.unpin cache dev ~segid:seg ~blkno:b0;
  B.flush cache;
  let back = read dev ~segid:seg ~blkno:b0 in
  Alcotest.(check int) "pinned page intact" 7 (P.get_u32 back 0)

(* ---- recycled frames ----

   An eviction hands the victim's frame to the next fill.  These tests
   run a 3-frame pool over two segments whose blocks each hold one byte
   value that no other block holds, so a frame that kept any byte of its
   previous tenant shows it.  Both device kinds: NVRAM reads the device
   directly, a magnetic disk also refills from the OS cache. *)

let pattern base b = Bytes.make P.size (Char.chr (base + b))

let patterned_segments dev ~blocks =
  let fill base =
    let seg = D.create_segment dev in
    for b = 0 to blocks - 1 do
      ignore (D.allocate_block dev seg : int);
      D.write_block dev ~segid:seg ~blkno:b (P.of_bytes (pattern base b))
    done;
    (seg, base)
  in
  (fill (Char.code 'A'), fill (Char.code 'a'))

let holds page (_, base) b = Bytes.equal (P.to_bytes page) (pattern base b)

let each_device_kind f =
  List.iter
    (fun kind ->
      let clock = Simclock.Clock.create () in
      f (D.create ~clock ~name:(D.kind_to_string kind) ~kind ()) (B.create ~capacity:3 ()))
    [ D.Nvram; D.Magnetic_disk ]

let test_recycled_frames_show_device_bytes () =
  each_device_kind (fun dev cache ->
      let a, b = patterned_segments dev ~blocks:4 in
      (* 8 blocks through 3 frames: every access after the first three
         fills an evicted page's frame. *)
      for round = 1 to 3 do
        List.iter
          (fun seg ->
            for blkno = 0 to 3 do
              B.with_page cache dev ~segid:(fst seg) ~blkno (fun p ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s round %d: segment %d block %d" (D.name dev) round
                       (fst seg) blkno)
                    true (holds p seg blkno))
            done)
          [ a; b ]
      done;
      Alcotest.(check bool) "frames were recycled" true (B.evictions cache >= 21))

let test_recycled_frames_faulted_reads () =
  each_device_kind (fun dev cache ->
      let a, b = patterned_segments dev ~blocks:4 in
      let touch seg blkno =
        B.with_page cache dev ~segid:(fst seg) ~blkno (fun p -> P.to_bytes p)
      in
      for blkno = 0 to 3 do
        ignore (touch b blkno : bytes)
      done;
      (* One faulted transfer of [a]'s block, into a frame [b] held. *)
      let faulted fault blkno =
        let armed = ref true in
        D.set_fault_hook dev
          (Some
             (fun io ~segid ~blkno:_ ->
               if io = D.Io_read && segid = fst a && !armed then begin
                 armed := false;
                 Some fault
               end
               else None));
        let outcome = try Some (touch a blkno) with D.Media_failure _ -> None in
        D.set_fault_hook dev None;
        Option.iter
          (fun bytes ->
            Alcotest.(check int)
              (Printf.sprintf "%s block %d: checksum-correct" (D.name dev) blkno)
              (D.recorded_checksum dev ~segid:(fst a) ~blkno)
              (P.checksum (P.of_bytes bytes)))
          outcome;
        outcome
      in
      (* At the device, a torn transfer into a used frame zeroes the
         tail: none of the frame's old bytes survive it. *)
      let frame = P.of_bytes (Bytes.make P.size 'z') in
      D.set_fault_hook dev (Some (fun _ ~segid:_ ~blkno:_ -> Some (D.Fault_torn 100)));
      D.peek_block dev ~segid:(fst a) ~blkno:2 frame;
      D.set_fault_hook dev None;
      Alcotest.(check bool) "torn transfer: prefix, then zeros" true
        (Bytes.equal (P.to_bytes frame)
           (Bytes.cat
              (Bytes.sub (pattern (snd a) 2) 0 100)
              (Bytes.make (P.size - 100) '\000')));
      (match faulted (D.Fault_torn 100) 0 with
      | Some bytes ->
        Alcotest.(check bool) "torn read retried to the device's bytes" true
          (holds (P.of_bytes bytes) a 0)
      | None -> Alcotest.fail "a torn read heals on retry");
      Alcotest.(check bool) "rotten block is a media failure" true
        (faulted D.Fault_bitrot 1 = None);
      for blkno = 0 to 3 do
        Alcotest.(check bool) "pool still sound" true
          (holds (P.of_bytes (touch b blkno)) b blkno)
      done)

let test_new_block_on_recycled_frame_is_zero () =
  each_device_kind (fun dev cache ->
      let a, _ = patterned_segments dev ~blocks:4 in
      for blkno = 0 to 3 do
        B.with_page cache dev ~segid:(fst a) ~blkno ignore
      done;
      Alcotest.(check bool) "an eviction freed a frame" true (B.evictions cache > 0);
      let fresh = B.new_block cache dev ~segid:(fst a) in
      B.with_page cache dev ~segid:(fst a) ~blkno:fresh (fun p ->
          Alcotest.(check bool) (D.name dev ^ ": new block reads as zeros") true
            (Bytes.equal (P.to_bytes p) (Bytes.make P.size '\000'))))

let test_pinned_frame_never_reused () =
  each_device_kind (fun dev cache ->
      let a, b = patterned_segments dev ~blocks:4 in
      let pinned = B.get cache dev ~segid:(fst a) ~blkno:0 in
      for _ = 1 to 3 do
        List.iter
          (fun seg ->
            for blkno = 0 to 3 do
              if not (seg == a && blkno = 0) then
                B.with_page cache dev ~segid:(fst seg) ~blkno (fun p ->
                    Alcotest.(check bool) "another block got the pinned frame" false
                      (p == pinned))
            done)
          [ a; b ]
      done;
      Alcotest.(check bool) (D.name dev ^ ": pinned page intact") true (holds pinned a 0);
      B.unpin cache dev ~segid:(fst a) ~blkno:0)

(* A warm pool's miss fills a recycled frame: it allocates no page, and
   nothing else it allocates is large enough to go straight to the major
   heap.  [Gc.counters] is exact, so the bound is a deterministic gate;
   an 8 KB page is 1,025 words. *)
let test_pool_miss_allocates_no_page () =
  let _, dev = fresh_disk () in
  let cache = B.create ~capacity:8 ~readahead_window:0 () in
  let seg = D.create_segment dev in
  for _ = 1 to 32 do
    ignore (D.allocate_block dev seg : int)
  done;
  let sweep () =
    for blkno = 0 to 31 do
      B.with_page cache dev ~segid:seg ~blkno ignore
    done
  in
  sweep ();
  sweep ();
  let m0 = B.misses cache in
  let _, promoted0, major0 = Gc.counters () in
  for _ = 1 to 4 do
    sweep ()
  done;
  let _, promoted1, major1 = Gc.counters () in
  let misses = B.misses cache - m0 in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  Alcotest.(check int) "every access missed" 128 misses;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words straight to the major heap per miss, under 256"
       (direct /. float_of_int misses))
    true
    (direct /. float_of_int misses < 256.)

let test_cache_crash_loses_dirty () =
  let _, dev = fresh_disk () in
  let cache = B.create ~capacity:8 () in
  let seg = D.create_segment dev in
  let b = B.new_block cache dev ~segid:seg in
  B.with_page cache dev ~segid:seg ~blkno:b (fun p -> P.set_u32 p 0 99);
  B.mark_dirty cache dev ~segid:seg ~blkno:b;
  B.crash cache;
  let p = read dev ~segid:seg ~blkno:b in
  Alcotest.(check int) "dirty page lost" 0 (P.get_u32 p 0)

let test_cache_lru_order () =
  let _, dev = fresh_disk () in
  let cache = B.create ~capacity:3 () in
  let seg = D.create_segment dev in
  let b0 = B.new_block cache dev ~segid:seg in
  let b1 = B.new_block cache dev ~segid:seg in
  let b2 = B.new_block cache dev ~segid:seg in
  (* touch b0 so b1 is the LRU victim when b3 arrives *)
  B.with_page cache dev ~segid:seg ~blkno:b0 (fun _ -> ());
  ignore b1;
  ignore b2;
  let b3 = B.new_block cache dev ~segid:seg in
  ignore b3;
  Simclock.Clock.reset (D.clock dev);
  (* b0 should still be resident: no device read *)
  B.with_page cache dev ~segid:seg ~blkno:b0 (fun _ -> ());
  Alcotest.(check int) "b0 resident" 0 (D.reads dev)

let test_os_cache_absorbs_disk_rereads () =
  (* the UNIX FS buffer cache under the DBMS cache: a page evicted from
     the small DBMS pool re-reads at copy cost, not seek cost *)
  let clock, dev = fresh_disk () in
  let cache = B.create ~capacity:2 ~os_cache_blocks:64 () in
  let seg = D.create_segment dev in
  let blocks = List.init 8 (fun _ -> B.new_block cache dev ~segid:seg) in
  (* touch everything once: contents now in the OS cache *)
  List.iter
    (fun b ->
      B.with_page cache dev ~segid:seg ~blkno:b (fun p -> P.set_u8 p 0 (b + 1));
      B.mark_dirty cache dev ~segid:seg ~blkno:b)
    blocks;
  B.flush cache;
  Simclock.Clock.reset clock;
  let os_hits0 = B.os_hits cache and dev_reads0 = D.reads dev in
  (* cycle through again: DBMS pool (2 pages) cannot hold them, the OS
     cache serves them all *)
  List.iter (fun b -> B.with_page cache dev ~segid:seg ~blkno:b (fun _ -> ())) blocks;
  Alcotest.(check int) "all served by the OS cache" 8 (B.os_hits cache - os_hits0);
  Alcotest.(check int) "no platter reads" 0 (D.reads dev - dev_reads0);
  Alcotest.(check bool) "only copy cost" true (Simclock.Clock.now clock < 0.01)

let test_os_cache_lost_on_crash () =
  let clock, dev = fresh_disk () in
  let cache = B.create ~capacity:2 ~os_cache_blocks:64 () in
  let seg = D.create_segment dev in
  let b = B.new_block cache dev ~segid:seg in
  B.with_page cache dev ~segid:seg ~blkno:b (fun p -> P.set_u8 p 0 9);
  B.mark_dirty cache dev ~segid:seg ~blkno:b;
  B.flush cache;
  B.crash cache;
  Simclock.Clock.reset clock;
  B.with_page cache dev ~segid:seg ~blkno:b (fun _ -> ());
  Alcotest.(check int) "cold platter read after crash" 1 (D.reads dev)

let test_nvram_device_bypasses_os_cache () =
  (* raw devices (NVRAM, jukebox) are not behind the UNIX FS: their
     write-backs hit the device *)
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"nv" ~kind:D.Nvram () in
  let cache = B.create ~capacity:4 () in
  let seg = D.create_segment dev in
  let b = B.new_block cache dev ~segid:seg in
  B.with_page cache dev ~segid:seg ~blkno:b (fun p -> P.set_u8 p 0 1);
  B.mark_dirty cache dev ~segid:seg ~blkno:b;
  B.flush cache;
  Alcotest.(check int) "device write happened" 1 (D.writes dev)

let test_cache_eviction_order_under_pins () =
  (* pinned pages are not eviction candidates at all: with the pool full
     and one page pinned, the next miss evicts an unpinned page and the
     pinned one stays resident *)
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"nv" ~kind:D.Nvram () in
  let cache = B.create ~capacity:3 () in
  let seg = D.create_segment dev in
  for _ = 0 to 3 do
    ignore (B.new_block cache dev ~segid:seg : int)
  done;
  ignore (B.get cache dev ~segid:seg ~blkno:0 : P.t);
  (* pool full: 0 (pinned) + two of 1..3 *)
  let ev0 = B.evictions cache in
  B.with_page cache dev ~segid:seg ~blkno:3 (fun _ -> ());
  B.with_page cache dev ~segid:seg ~blkno:2 (fun _ -> ());
  B.with_page cache dev ~segid:seg ~blkno:1 (fun _ -> ());
  Alcotest.(check bool) "evictions happened" true (B.evictions cache > ev0);
  (* the pinned page never left: touching it is a hit, not a miss *)
  let m0 = B.misses cache in
  ignore (B.get cache dev ~segid:seg ~blkno:0 : P.t);
  Alcotest.(check int) "pinned page still resident" m0 (B.misses cache);
  B.unpin cache dev ~segid:seg ~blkno:0;
  B.unpin cache dev ~segid:seg ~blkno:0;
  Alcotest.check_raises "third unpin rejected"
    (Invalid_argument "Bufcache.unpin: page not pinned") (fun () ->
      B.unpin cache dev ~segid:seg ~blkno:0)

let test_cache_scan_resistant_insertion () =
  (* a one-pass scan larger than the pool must not flush the re-touched
     (promoted) working set, unlike strict LRU insertion at the head *)
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"nv" ~kind:D.Nvram () in
  (* promote_age_s 0: any re-touch promotes (NVRAM barely advances the
     simulated clock, so the age gate would otherwise never open) *)
  let cache = B.create ~capacity:8 ~promote_age_s:0.0 () in
  let seg = D.create_segment dev in
  for _ = 0 to 25 do
    ignore (B.new_block cache dev ~segid:seg : int)
  done;
  B.crash cache;
  (* hot set: blocks 0 and 1, touched twice -> promoted to the hot tier *)
  for _ = 1 to 2 do
    B.with_page cache dev ~segid:seg ~blkno:0 (fun _ -> ());
    B.with_page cache dev ~segid:seg ~blkno:1 (fun _ -> ())
  done;
  (* scan: 20 single-touch blocks, 2.5x the pool *)
  for blkno = 2 to 21 do
    B.with_page cache dev ~segid:seg ~blkno (fun _ -> ())
  done;
  let m0 = B.misses cache in
  B.with_page cache dev ~segid:seg ~blkno:0 (fun _ -> ());
  B.with_page cache dev ~segid:seg ~blkno:1 (fun _ -> ());
  Alcotest.(check int) "hot set survived the scan" m0 (B.misses cache)


let test_cache_cold_only_segment_never_promotes () =
  (* archive (WORM) tier isolation: a cold_only segment's pages serve
     hits from the probationary tier but never promote, so faulting
     history through the cache cannot displace the hot working set —
     and, symmetrically, any later scan cheaply recycles them *)
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"nv" ~kind:D.Nvram () in
  let cache = B.create ~capacity:8 ~promote_age_s:0.0 () in
  let seg = D.create_segment dev in
  for _ = 0 to 25 do
    ignore (B.new_block cache dev ~segid:seg : int)
  done;
  B.crash cache;
  Alcotest.(check bool) "flag starts clear" false (B.is_cold_only cache dev ~segid:seg);
  B.set_cold_only cache dev ~segid:seg;
  Alcotest.(check bool) "flag set" true (B.is_cold_only cache dev ~segid:seg);
  (* double-touch blocks 0 and 1 — on an ordinary segment this promotes
     them to the hot tier (see the scan-resistance test above) *)
  for _ = 1 to 2 do
    B.with_page cache dev ~segid:seg ~blkno:0 (fun _ -> ());
    B.with_page cache dev ~segid:seg ~blkno:1 (fun _ -> ())
  done;
  let h0 = B.hits cache in
  B.with_page cache dev ~segid:seg ~blkno:0 (fun _ -> ());
  Alcotest.(check int) "resident cold page still serves hits" (h0 + 1) (B.hits cache);
  (* a single-touch scan 2.5x the pool recycles the cold tier; the
     re-touched pages were never promoted, so they go with it *)
  for blkno = 2 to 21 do
    B.with_page cache dev ~segid:seg ~blkno (fun _ -> ())
  done;
  let m0 = B.misses cache in
  B.with_page cache dev ~segid:seg ~blkno:0 (fun _ -> ());
  B.with_page cache dev ~segid:seg ~blkno:1 (fun _ -> ());
  Alcotest.(check int) "re-touched pages were recycled, not retained" (m0 + 2)
    (B.misses cache);
  (* the flag is volatile: a crash clears it, recovery re-arms it *)
  B.crash cache;
  Alcotest.(check bool) "crash clears the flag" false
    (B.is_cold_only cache dev ~segid:seg)

let test_cache_readahead_trigger_and_cancel () =
  let clock, dev = fresh_disk () in
  ignore clock;
  let cache = B.create ~capacity:64 () in
  let seg = D.create_segment dev in
  for _ = 0 to 31 do
    ignore (B.new_block cache dev ~segid:seg : int)
  done;
  B.flush cache;
  B.crash cache;
  (* two ascending misses arm read-ahead; the burst fetches the window *)
  B.with_page cache dev ~segid:seg ~blkno:0 (fun _ -> ());
  Alcotest.(check int) "single miss does not prefetch" 0 (B.readaheads cache);
  B.with_page cache dev ~segid:seg ~blkno:1 (fun _ -> ());
  Alcotest.(check int) "run of 2 prefetches the window" 8 (B.readaheads cache);
  let m0 = B.misses cache in
  B.with_page cache dev ~segid:seg ~blkno:2 (fun _ -> ());
  Alcotest.(check int) "prefetched block is a hit" m0 (B.misses cache);
  Alcotest.(check int) "readahead hit counted" 1 (B.readahead_hits cache);
  (* a non-sequential access cancels the run: isolated misses fetch one
     block each, no speculation *)
  let ra0 = B.readaheads cache in
  B.with_page cache dev ~segid:seg ~blkno:20 (fun _ -> ());
  B.with_page cache dev ~segid:seg ~blkno:27 (fun _ -> ());
  Alcotest.(check int) "random misses do not prefetch" ra0 (B.readaheads cache);
  (* an explicit hint arms it from the very first miss *)
  B.hint_sequential cache dev ~segid:seg;
  B.with_page cache dev ~segid:seg ~blkno:12 (fun _ -> ());
  Alcotest.(check bool) "hinted miss prefetches immediately" true
    (B.readaheads cache > ra0)

let test_cache_segment_index_after_invalidate () =
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"nv" ~kind:D.Nvram () in
  let cache = B.create ~capacity:16 () in
  let seg_a = D.create_segment dev in
  let seg_b = D.create_segment dev in
  for _ = 0 to 2 do
    ignore (B.new_block cache dev ~segid:seg_a : int);
    ignore (B.new_block cache dev ~segid:seg_b : int)
  done;
  (* dirty a page in each segment *)
  B.with_page cache dev ~segid:seg_a ~blkno:0 (fun p -> P.set_u8 p 0 0xAA);
  B.mark_dirty cache dev ~segid:seg_a ~blkno:0;
  B.with_page cache dev ~segid:seg_b ~blkno:0 (fun p -> P.set_u8 p 0 0xBB);
  B.mark_dirty cache dev ~segid:seg_b ~blkno:0;
  B.invalidate_segment cache dev ~segid:seg_a;
  Alcotest.(check int) "only B's pages stay resident" 3 (B.resident cache);
  let w0 = B.writebacks cache in
  B.flush cache;
  Alcotest.(check int) "A's dirty page was discarded, B's flushed" (w0 + 1)
    (B.writebacks cache);
  (* the segment index forgot A: segment ops are no-ops, and re-reading an
     A block is a clean miss that re-fetches stale device contents *)
  B.flush_segment cache dev ~segid:seg_a;
  B.hint_sequential cache dev ~segid:seg_a;
  B.with_page cache dev ~segid:seg_a ~blkno:0 (fun p ->
      Alcotest.(check int) "invalidated write never reached the device" 0 (P.get_u8 p 0));
  (* and eviction of every resident page still works (index links intact) *)
  B.crash cache;
  Alcotest.(check int) "crash empties the pool" 0 (B.resident cache)

let test_cache_stats_snapshot () =
  let clock, dev = fresh_disk () in
  ignore clock;
  let cache = B.create ~capacity:2 () in
  let seg = D.create_segment dev in
  for _ = 0 to 5 do
    ignore (B.new_block cache dev ~segid:seg : int)
  done;
  B.with_page cache dev ~segid:seg ~blkno:0 (fun p -> P.set_u8 p 0 1);
  B.mark_dirty cache dev ~segid:seg ~blkno:0;
  B.with_page cache dev ~segid:seg ~blkno:5 (fun _ -> ());
  B.flush cache;
  let s = B.stats cache in
  Alcotest.(check int) "hits" (B.hits cache) s.B.s_hits;
  Alcotest.(check int) "misses" (B.misses cache) s.B.s_misses;
  Alcotest.(check int) "os_hits" (B.os_hits cache) s.B.s_os_hits;
  Alcotest.(check int) "writebacks" (B.writebacks cache) s.B.s_writebacks;
  Alcotest.(check int) "evictions" (B.evictions cache) s.B.s_evictions;
  Alcotest.(check int) "readaheads" (B.readaheads cache) s.B.s_readaheads;
  Alcotest.(check int) "readahead_hits" (B.readahead_hits cache) s.B.s_readahead_hits;
  Alcotest.(check bool) "misses counted" true (s.B.s_misses > 0);
  Alcotest.(check bool) "writeback counted" true (s.B.s_writebacks > 0);
  let line = B.stats_to_string s in
  let contains sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " in stats line") true (contains (k ^ "=")))
    [
      "cache_hits"; "cache_misses"; "os_hits"; "writebacks"; "evictions"; "readaheads";
      "readahead_hits";
    ]

(* ---- dirty marks ---- *)

(* Two one-block segments on a mirrored pair, behind a pool of
   [capacity] pages. *)
let marked_pair ?capacity () =
  let clock = Simclock.Clock.create () in
  let prim = D.create ~clock ~name:"prim" ~kind:D.Magnetic_disk () in
  let sec = D.create ~clock ~name:"sec" ~kind:D.Magnetic_disk () in
  D.attach_mirror prim sec;
  let a = D.create_segment prim and b = D.create_segment prim in
  ignore (D.allocate_block prim a : int);
  ignore (D.allocate_block prim b : int);
  (clock, prim, a, b, B.create ?capacity ())

let dirty cache dev segid =
  B.with_page cache dev ~segid ~blkno:0 (fun p ->
      P.set_u8 p 0 1;
      B.mark_dirty cache dev ~segid ~blkno:0)

(* Marked on both copies, or on neither. *)
let check_marked what prim segid want =
  let m, msegid = Option.get (D.segment_mirror prim ~segid) in
  Alcotest.(check (pair bool bool)) what (want, want)
    (D.is_marked prim ~segid, D.is_marked m ~segid:msegid)

(* One NVRAM store of a 16-byte entry, as the clock charges it (whole
   microseconds). *)
let mark_cost =
  Float.round
    ((D.nvram_geometry.D.per_io_s +. (16. /. D.nvram_geometry.D.xfer_bytes_per_s)) *. 1e6)
  /. 1e6

let test_marks_survive_crash () =
  let clock, dev = fresh_disk () in
  let a = D.create_segment dev and b = D.create_segment dev in
  ignore (D.allocate_block dev a : int);
  ignore (D.allocate_block dev b : int);
  D.poke_block dev ~segid:b ~blkno:0 (P.create ());
  D.crash dev;
  let c0 = Simclock.Clock.charged clock "nvram.mark" in
  Alcotest.(check (list int)) "the store's segment, after the crash" [ b ] (D.read_marks dev);
  Alcotest.(check (float 0.)) "one NVRAM read" mark_cost
    (Simclock.Clock.charged clock "nvram.mark" -. c0);
  D.clear_marks dev;
  Alcotest.(check (list int)) "cleared" [] (D.read_marks dev)

let test_eviction_and_segment_flush_keep_marks () =
  let clock, prim, a, b, cache = marked_pair ~capacity:1 () in
  dirty cache prim a;
  check_marked "a dirty page alone marks nothing" prim a false;
  let c0 = Simclock.Clock.charged clock "nvram.mark" in
  dirty cache prim b;
  Alcotest.(check int) "a was evicted" 1 (B.evictions cache);
  check_marked "eviction marked a" prim a true;
  Alcotest.(check (float 1e-12)) "one NVRAM store per copy" (2. *. mark_cost)
    (Simclock.Clock.charged clock "nvram.mark" -. c0);
  B.flush_segment cache prim ~segid:b;
  check_marked "flush_segment marked b" prim b true;
  check_marked "flush_segment left a marked" prim a true;
  let c1 = Simclock.Clock.charged clock "nvram.mark" in
  dirty cache prim b;
  B.flush_segment cache prim ~segid:b;
  Alcotest.(check (float 0.)) "a marked segment costs nothing more" 0.
    (Simclock.Clock.charged clock "nvram.mark" -. c1)

let test_complete_flush_clears_marks () =
  let clock, prim, a, b, cache = marked_pair () in
  dirty cache prim a;
  dirty cache prim b;
  B.flush_segment cache prim ~segid:a;
  check_marked "a marked" prim a true;
  check_marked "b unmarked" prim b false;
  let c0 = Simclock.Clock.charged clock "nvram.mark" in
  B.flush cache;
  check_marked "a cleared" prim a false;
  check_marked "b cleared" prim b false;
  (* b's two copies were marked, then each device's table was cleared *)
  Alcotest.(check (float 1e-12)) "two marks and two clears" (4. *. mark_cost)
    (Simclock.Clock.charged clock "nvram.mark" -. c0);
  let c1 = Simclock.Clock.charged clock "nvram.mark" in
  B.flush cache;
  Alcotest.(check (float 0.)) "nothing marked, nothing to clear" 0.
    (Simclock.Clock.charged clock "nvram.mark" -. c1)

let test_raising_flush_clears_no_mark () =
  let _, prim, a, b, cache = marked_pair () in
  dirty cache prim a;
  dirty cache prim b;
  B.set_writeback_hook cache
    (Some (fun ~device:_ ~segid ~blkno:_ -> if segid = b then failwith "write-back failed"));
  Alcotest.check_raises "the flush raises" (Failure "write-back failed") (fun () ->
      B.flush cache);
  check_marked "a, written before the failure, stays marked" prim a true;
  B.set_writeback_hook cache None;
  B.flush cache;
  check_marked "the next complete flush clears it" prim a false

let prop_cache_transparent =
  QCheck.Test.make ~name:"cache reads equal device contents" ~count:30
    QCheck.(list (pair (int_bound 15) (int_bound 255)))
    (fun writes ->
      let _, dev = fresh_disk () in
      let cache = B.create ~capacity:4 () in
      let seg = D.create_segment dev in
      for _ = 0 to 15 do
        ignore (B.new_block cache dev ~segid:seg)
      done;
      let model = Array.make 16 0 in
      List.iter
        (fun (b, v) ->
          B.with_page cache dev ~segid:seg ~blkno:b (fun p -> P.set_u8 p 0 v);
          B.mark_dirty cache dev ~segid:seg ~blkno:b;
          model.(b) <- v)
        writes;
      let ok = ref true in
      for b = 0 to 15 do
        B.with_page cache dev ~segid:seg ~blkno:b (fun p ->
            if P.get_u8 p 0 <> model.(b) then ok := false)
      done;
      !ok)

let () =
  Alcotest.run "pagestore"
    [
      ( "page",
        [
          Alcotest.test_case "accessors roundtrip" `Quick test_page_accessors;
          Alcotest.test_case "bounds checked" `Quick test_page_bounds;
          Alcotest.test_case "checksum sensitive" `Quick test_page_checksum_changes;
          Alcotest.test_case "crc known answers" `Quick test_crc_known_answers;
          Alcotest.test_case "crc matches bitwise reference" `Quick test_crc_matches_bitwise;
          Alcotest.test_case "crc golden bytes" `Quick test_crc_golden_bytes;
          Alcotest.test_case "of_bytes pads" `Quick test_page_of_bytes_pads;
        ] );
      ( "device",
        [
          Alcotest.test_case "allocate/read/write" `Quick test_device_alloc_rw;
          Alcotest.test_case "missing block rejected" `Quick test_device_missing_block;
          Alcotest.test_case "store detaches caller page" `Quick
            test_device_store_detaches_caller_page;
          Alcotest.test_case "I/O charges time" `Quick test_device_charges_time;
          Alcotest.test_case "sequential beats random" `Quick
            test_device_sequential_cheaper_than_random;
          Alcotest.test_case "nvram beats disk" `Quick test_nvram_faster_than_disk;
          Alcotest.test_case "jukebox load + cache" `Quick test_jukebox_platter_load_and_cache;
          Alcotest.test_case "WORM rewrite allocates" `Quick test_jukebox_worm_rewrite_allocates;
          Alcotest.test_case "drop segment" `Quick test_drop_segment;
        ] );
      ( "extents",
        [
          Alcotest.test_case "small segment reserves no tail" `Quick
            test_small_segment_reserves_no_tail;
          Alcotest.test_case "WORM writes at the frontier" `Quick test_worm_writes_at_frontier;
          Alcotest.test_case "grown segment is one run" `Quick test_grown_segment_is_one_run;
        ] );
      ( "switch",
        [
          Alcotest.test_case "registry" `Quick test_switch_registry;
          Alcotest.test_case "empty default rejected" `Quick test_switch_empty_default;
          Alcotest.test_case "find/find_opt agree" `Quick test_switch_find_opt_agrees;
          Alcotest.test_case "mirror pairing rules" `Quick test_switch_mirror_pairing;
        ] );
      ( "media",
        [
          Alcotest.test_case "checksums catch rot" `Quick
            test_device_checksums_catch_rot;
          Alcotest.test_case "mirror resilver + repair" `Quick
            test_device_mirror_resilver_and_repair;
          Alcotest.test_case "stuck and dead devices" `Quick
            test_device_kill_and_stuck;
        ] );
      ( "bufcache",
        [
          Alcotest.test_case "hits avoid device" `Quick test_cache_hit_and_miss;
          Alcotest.test_case "eviction writes back" `Quick test_cache_eviction_writes_back;
          Alcotest.test_case "pinned pages survive" `Quick test_cache_pinned_not_evicted;
          Alcotest.test_case "crash loses dirty pages" `Quick test_cache_crash_loses_dirty;
          Alcotest.test_case "recycled frames show device bytes" `Quick
            test_recycled_frames_show_device_bytes;
          Alcotest.test_case "faulted reads into recycled frames" `Quick
            test_recycled_frames_faulted_reads;
          Alcotest.test_case "new block on a recycled frame" `Quick
            test_new_block_on_recycled_frame_is_zero;
          Alcotest.test_case "pinned frame never reused" `Quick test_pinned_frame_never_reused;
          Alcotest.test_case "warm miss allocates no page" `Quick
            test_pool_miss_allocates_no_page;
          Alcotest.test_case "LRU keeps hot pages" `Quick test_cache_lru_order;
          Alcotest.test_case "OS cache absorbs re-reads" `Quick
            test_os_cache_absorbs_disk_rereads;
          Alcotest.test_case "OS cache volatile" `Quick test_os_cache_lost_on_crash;
          Alcotest.test_case "raw devices bypass OS cache" `Quick
            test_nvram_device_bypasses_os_cache;
          Alcotest.test_case "pins excluded from eviction order" `Quick
            test_cache_eviction_order_under_pins;
          Alcotest.test_case "scan-resistant insertion" `Quick
            test_cache_scan_resistant_insertion;
          Alcotest.test_case "cold-only segment never promotes" `Quick
            test_cache_cold_only_segment_never_promotes;
          Alcotest.test_case "read-ahead trigger and cancel" `Quick
            test_cache_readahead_trigger_and_cancel;
          Alcotest.test_case "segment index after invalidate" `Quick
            test_cache_segment_index_after_invalidate;
          Alcotest.test_case "stats snapshot coherent" `Quick
            test_cache_stats_snapshot;
        ] );
      ( "dirty marks",
        [
          Alcotest.test_case "marks survive a crash" `Quick test_marks_survive_crash;
          Alcotest.test_case "eviction and segment flush keep marks" `Quick
            test_eviction_and_segment_flush_keep_marks;
          Alcotest.test_case "complete flush clears marks" `Quick
            test_complete_flush_clears_marks;
          Alcotest.test_case "raising flush clears no mark" `Quick
            test_raising_flush_clears_no_mark;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_cache_transparent ] );
    ]
