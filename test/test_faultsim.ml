(* Fault injection: torn pages, transient I/O errors, injected crashes,
   and their visibility through Fsck. *)

module P = Pagestore.Page
module D = Pagestore.Device
module B = Pagestore.Bufcache
module F = Faultsim
module Fs = Invfs.Fs

(* Device reads fill a frame the caller passes; these tests want a fresh one. *)
let peek dev ~segid ~blkno =
  let p = Pagestore.Page.create () in
  Pagestore.Device.peek_block dev ~segid ~blkno p;
  p

let fresh_disk () =
  let clock = Simclock.Clock.create () in
  (clock, D.create ~clock ~name:"disk" ~kind:D.Magnetic_disk ())

let filled b = P.of_bytes (Bytes.make P.size (Char.chr b))

(* ---- torn writes ---- *)

let test_torn_write_keeps_old_tail () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  D.poke_block dev ~segid:seg ~blkno:blk (filled 0xAA);
  let plan = F.create () in
  F.arm_device plan dev;
  F.schedule plan ~io:F.Write ~after:1 (F.Torn 100);
  D.poke_block dev ~segid:seg ~blkno:blk (filled 0xBB);
  let back = P.to_bytes (peek dev ~segid:seg ~blkno:blk) in
  Alcotest.(check char) "head is new" '\xBB' (Bytes.get back 0);
  Alcotest.(check char) "last new byte" '\xBB' (Bytes.get back 99);
  Alcotest.(check char) "tail is old" '\xAA' (Bytes.get back 100);
  Alcotest.(check char) "end is old" '\xAA' (Bytes.get back (P.size - 1));
  Alcotest.(check int) "event logged" 1 (List.length (F.events plan));
  F.disarm plan

let test_torn_read_zeroes_tail_medium_intact () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  D.poke_block dev ~segid:seg ~blkno:blk (filled 0xCC);
  let plan = F.create () in
  F.arm_device plan dev;
  F.schedule plan ~io:F.Read ~after:1 (F.Torn 8);
  let torn = P.to_bytes (peek dev ~segid:seg ~blkno:blk) in
  Alcotest.(check char) "head survives" '\xCC' (Bytes.get torn 0);
  Alcotest.(check char) "tail zeroed" '\x00' (Bytes.get torn 8);
  (* the medium itself was untouched: a clean re-read sees everything *)
  let again = P.to_bytes (peek dev ~segid:seg ~blkno:blk) in
  Alcotest.(check char) "re-read intact" '\xCC' (Bytes.get again (P.size - 1));
  F.disarm plan

(* ---- transient I/O errors ---- *)

let test_io_error_then_retry_succeeds () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  let plan = F.create () in
  F.arm_device plan dev;
  F.schedule plan ~io:F.Write ~after:1 F.Io_error;
  (match D.poke_block dev ~segid:seg ~blkno:blk (filled 0x11) with
  | () -> Alcotest.fail "expected Io_fault"
  | exception D.Io_fault _ -> ());
  (* transient: nothing remains scheduled, the retry lands *)
  Alcotest.(check int) "schedule drained" 0 (F.pending plan);
  D.poke_block dev ~segid:seg ~blkno:blk (filled 0x11);
  let back = P.to_bytes (peek dev ~segid:seg ~blkno:blk) in
  Alcotest.(check char) "retry landed" '\x11' (Bytes.get back 0);
  F.disarm plan

(* ---- crashes ---- *)

let test_crash_leaves_durable_bytes_unchanged () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  D.poke_block dev ~segid:seg ~blkno:blk (filled 0x77);
  let plan = F.create () in
  F.arm_device plan dev;
  F.schedule plan ~io:F.Write ~after:1 F.Crash;
  (match D.poke_block dev ~segid:seg ~blkno:blk (filled 0x88) with
  | () -> Alcotest.fail "expected Crash_injected"
  | exception D.Crash_injected _ -> ());
  let back = P.to_bytes (peek dev ~segid:seg ~blkno:blk) in
  Alcotest.(check char) "write never landed" '\x77' (Bytes.get back 0);
  F.disarm plan

let test_writeback_stream_crash () =
  let _, dev = fresh_disk () in
  let cache = B.create ~capacity:8 () in
  let seg = D.create_segment dev in
  let blk = B.new_block cache dev ~segid:seg in
  B.with_page cache dev ~segid:seg ~blkno:blk (fun p -> P.set_u8 p 0 0x42);
  B.mark_dirty cache dev ~segid:seg ~blkno:blk;
  let plan = F.create () in
  F.arm_cache plan cache;
  F.schedule plan ~io:F.Writeback ~after:1 F.Crash;
  (match B.flush cache with
  | () -> Alcotest.fail "expected Crash_injected at writeback"
  | exception D.Crash_injected _ -> ());
  Alcotest.(check int) "writeback counted" 1 (F.writebacks_seen plan);
  (* the flush never reached the device *)
  Alcotest.(check int) "no durable bytes" 0
    (P.get_u8 (peek dev ~segid:seg ~blkno:blk) 0);
  F.disarm plan

let test_torn_on_writeback_rejected () =
  let plan = F.create () in
  Alcotest.check_raises "torn writeback is meaningless"
    (Invalid_argument
       "Faultsim.schedule: torn:5 acts on the medium, so it belongs on a \
        device transfer stream (read/write), not the writeback stream")
    (fun () -> F.schedule plan ~io:F.Writeback ~after:1 (F.Torn 5));
  Alcotest.check_raises "bitrot writeback is meaningless"
    (Invalid_argument
       "Faultsim.schedule: bitrot acts on the medium, so it belongs on a \
        device transfer stream (read/write), not the writeback stream")
    (fun () -> F.schedule plan ~io:F.Writeback ~after:1 F.Bitrot)

let test_schedule_errors_name_offender () =
  let plan = F.create () in
  Alcotest.check_raises "after < 1 names the action and stream"
    (Invalid_argument
       "Faultsim.schedule: after must be >= 1 (got 0) for device_dead on the read stream")
    (fun () -> F.schedule plan ~io:F.Read ~after:0 F.Device_dead);
  let rng = Simclock.Rng.create 1L in
  Alcotest.check_raises "within < 1 names the action and stream"
    (Invalid_argument
       "Faultsim.schedule_random: within must be >= 1 (got -3) for stuck on the write stream")
    (fun () -> F.schedule_random plan rng ~io:F.Write ~within:(-3) F.Stuck);
  Alcotest.check_raises "random crash names within"
    (Invalid_argument "Faultsim.schedule_random_crash: within must be >= 1 (got 0)")
    (fun () -> F.schedule_random_crash plan rng ~within:0)

let test_event_strings_cover_media_kinds () =
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  let blk2 = D.allocate_block dev seg in
  D.poke_block dev ~segid:seg ~blkno:blk (filled 0x10);
  D.poke_block dev ~segid:seg ~blkno:blk2 (filled 0x20);
  let plan = F.create () in
  F.arm_device plan dev;
  F.schedule plan ~io:F.Read ~after:1 F.Bitrot;
  F.schedule plan ~io:F.Read ~after:2 F.Stuck;
  F.schedule plan ~io:F.Read ~after:3 F.Device_dead;
  ignore (peek dev ~segid:seg ~blkno:blk : P.t);
  (* the stuck fault lands on blk2; the third read goes back to blk so it
     reaches the hook instead of tripping over the now-stuck block *)
  (match peek dev ~segid:seg ~blkno:blk2 with
  | _ -> Alcotest.fail "expected Media_failure (stuck)"
  | exception D.Media_failure _ -> ());
  (match peek dev ~segid:seg ~blkno:blk with
  | _ -> Alcotest.fail "expected Media_failure (dead)"
  | exception D.Media_failure _ -> ());
  F.disarm plan;
  let strs = List.map F.event_to_string (F.events plan) in
  Alcotest.(check (list string))
    "log renders every media kind"
    [
      Printf.sprintf "#1 read disk/%d/%d -> bitrot" seg blk;
      Printf.sprintf "#2 read disk/%d/%d -> stuck" seg blk2;
      Printf.sprintf "#3 read disk/%d/%d -> device_dead" seg blk;
    ]
    strs

(* ---- determinism ---- *)

let crash_points seed =
  let rng = Simclock.Rng.create seed in
  let plan = F.create () in
  for _ = 1 to 5 do
    F.schedule_random_crash plan rng ~within:100
  done;
  (* drive a fake stream and record where the crashes fire *)
  let fired = ref [] in
  let _, dev = fresh_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  F.arm_device plan dev;
  for i = 1 to 600 do
    match D.poke_block dev ~segid:seg ~blkno:blk (filled (i land 0xff)) with
    | () -> ()
    | exception D.Crash_injected _ -> fired := i :: !fired
  done;
  F.disarm plan;
  List.rev !fired

let test_seeded_plan_is_deterministic () =
  let a = crash_points 0xFEEDL and b = crash_points 0xFEEDL in
  Alcotest.(check (list int)) "same seed, same crash points" a b;
  Alcotest.(check bool) "crashes actually fired" true (List.length a > 0);
  let c = crash_points 0xBEEFL in
  Alcotest.(check bool) "different seed differs" true (a <> c)

(* ---- a torn heap page surfaces in the full fsck audit ---- *)

let make_fs () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  ignore
    (Pagestore.Switch.add_device switch ~name:"disk0" ~kind:D.Magnetic_disk ()
      : D.t);
  let db = Relstore.Db.create ~switch ~clock () in
  Fs.make db ()

let test_torn_heap_page_caught_by_fsck () =
  let fs = make_fs () in
  let s = Fs.new_session fs in
  Fs.write_file s "/intact" (Bytes.of_string "safe and sound");
  Fs.write_file s "/victim" (Bytes.of_string "about to be torn");
  let oid = Fs.stat s "/victim" in
  let inv = Option.get (Fs.file_handle fs ~oid:oid.Invfs.Fileatt.file) in
  let heap_seg = Relstore.Heap.segid (Invfs.Inv_file.heap inv) in
  let dev = Relstore.Heap.device (Invfs.Inv_file.heap inv) in
  (* tear the next flush of the victim's heap pages only *)
  D.set_fault_hook dev
    (Some
       (fun kind ~segid ~blkno:_ ->
         if kind = D.Io_write && segid = heap_seg then Some (D.Fault_torn 64)
         else None));
  Fs.write_file s "/victim" (Bytes.of_string "replacement contents, torn on flush");
  D.set_fault_hook dev None;
  (* drop the caches so reads see the torn durable image *)
  Fs.crash fs;
  let report = Invfs.Fsck.audit fs in
  Alcotest.(check bool) "audit flags the damage" false (Invfs.Fsck.is_clean report);
  let relname = Invfs.Inv_file.relname oid.Invfs.Fileatt.file in
  let mentions_victim =
    List.exists
      (fun p -> String.equal p.Invfs.Fsck.relation relname)
      report.Invfs.Fsck.problems
  in
  Alcotest.(check bool) "problem names the torn relation" true mentions_victim

let () =
  Alcotest.run "faultsim"
    [
      ( "device faults",
        [
          Alcotest.test_case "torn write keeps old tail" `Quick
            test_torn_write_keeps_old_tail;
          Alcotest.test_case "torn read zeroes tail, medium intact" `Quick
            test_torn_read_zeroes_tail_medium_intact;
          Alcotest.test_case "io error is transient" `Quick
            test_io_error_then_retry_succeeds;
          Alcotest.test_case "crash leaves durable bytes" `Quick
            test_crash_leaves_durable_bytes_unchanged;
        ] );
      ( "plans",
        [
          Alcotest.test_case "writeback-stream crash" `Quick test_writeback_stream_crash;
          Alcotest.test_case "torn writeback rejected" `Quick
            test_torn_on_writeback_rejected;
          Alcotest.test_case "schedule errors name the offender" `Quick
            test_schedule_errors_name_offender;
          Alcotest.test_case "event strings cover media kinds" `Quick
            test_event_strings_cover_media_kinds;
          Alcotest.test_case "seeded plans replay" `Quick
            test_seeded_plan_is_deterministic;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "torn heap page flagged" `Quick
            test_torn_heap_page_caught_by_fsck;
        ] );
    ]
