(* Media-failure resilience: checksummed pages, mirrored placement,
   retry/backoff, the background scrubber, and degraded-mode operation. *)

module P = Pagestore.Page
module D = Pagestore.Device
module S = Pagestore.Switch
module R = Pagestore.Resilient
module Sc = Pagestore.Scrub
module F = Faultsim
module Fs = Invfs.Fs
module Errors = Invfs.Errors

(* Device reads fill a frame the caller passes; these tests want a fresh one. *)
let verified_read dev ~segid ~blkno =
  let p = Pagestore.Page.create () in
  Pagestore.Resilient.read_block dev ~segid ~blkno p;
  p

let make_fs ~mirrored () =
  let clock = Simclock.Clock.create () in
  let switch = S.create ~clock in
  ignore (S.add_device switch ~name:"disk0" ~kind:D.Magnetic_disk () : D.t);
  if mirrored then begin
    ignore (S.add_device switch ~name:"disk1" ~kind:D.Magnetic_disk () : D.t);
    S.mirror switch ~primary:"disk0" ~secondary:"disk1"
  end;
  let db = Relstore.Db.create ~switch ~clock () in
  (clock, switch, db, Fs.make db ())

let heap_of fs s path =
  let oid = Fs.lookup_oid s path in
  let inv = Option.get (Fs.file_handle fs ~oid) in
  let heap = Invfs.Inv_file.heap inv in
  (Relstore.Heap.device heap, Relstore.Heap.segid heap)

let payload = Bytes.init 5000 (fun i -> Char.chr (i mod 251))

(* ---- checksums on the foreground read path ---- *)

(* An unmirrored rotten block must surface as EIO — never as silently
   wrong bytes. *)
let test_bitrot_unmirrored_is_eio () =
  let _, _, _, fs = make_fs ~mirrored:false () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" payload;
  let dev, seg = heap_of fs s "/f" in
  Fs.crash fs;
  D.rot_block dev ~segid:seg ~blkno:0;
  let s = Fs.new_session fs in
  match Fs.read_whole_file s "/f" with
  | _ -> Alcotest.fail "rotten unmirrored read must fail, not return bytes"
  | exception Errors.Fs_error (Errors.EIO, _) -> ()

(* With a mirror, the same rot is invisible to the reader: the read fails
   over and repairs the primary copy in place. *)
let test_mirrored_failover_repairs_in_place () =
  let _, _, _, fs = make_fs ~mirrored:true () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" payload;
  let dev, seg = heap_of fs s "/f" in
  Fs.crash fs;
  D.rot_block dev ~segid:seg ~blkno:0;
  let s = Fs.new_session fs in
  let back = Fs.read_whole_file s "/f" in
  Alcotest.(check bytes) "failover read is byte-identical" payload back;
  match D.verify_block dev ~segid:seg ~blkno:0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("primary not repaired in place: " ^ e)

(* A stuck (pending, unreadable) primary block: the mirror answers, and
   the in-place repair write remaps the sector — the pending state clears
   and the primary serves again. *)
let test_stuck_primary_block_failover () =
  let _, _, _, fs = make_fs ~mirrored:true () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" payload;
  let dev, seg = heap_of fs s "/f" in
  Fs.crash fs;
  D.mark_stuck dev ~segid:seg ~blkno:0;
  let s = Fs.new_session fs in
  let back = Fs.read_whole_file s "/f" in
  Alcotest.(check bytes) "mirror serves around the stuck block" payload back;
  Alcotest.(check bool) "repair write remapped the sector" false
    (D.is_stuck dev ~segid:seg ~blkno:0);
  match D.verify_block dev ~segid:seg ~blkno:0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("remapped block should verify: " ^ e)

(* ---- background scrub ---- *)

(* The scrubber finds latent rot and heals it from the mirror before any
   foreground read touches the block. *)
let test_scrub_repairs_before_foreground_read () =
  let _, switch, _, fs = make_fs ~mirrored:true () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" payload;
  let dev, seg = heap_of fs s "/f" in
  Fs.crash fs;
  D.rot_block dev ~segid:seg ~blkno:0;
  (match D.verify_block dev ~segid:seg ~blkno:0 with
  | Ok () -> Alcotest.fail "rot must be latent before the scrub"
  | Error _ -> ());
  let stats = Sc.run switch in
  Alcotest.(check bool) "scrub repaired the rotten block" true (stats.Sc.repaired >= 1);
  Alcotest.(check int) "nothing unrepairable" 0 (List.length stats.Sc.unrepairable);
  (match D.verify_block dev ~segid:seg ~blkno:0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("scrub left the primary bad: " ^ e));
  (* the foreground read arrives after the repair: no failover needed *)
  let s = Fs.new_session fs in
  Alcotest.(check bytes) "post-scrub read" payload (Fs.read_whole_file s "/f")

let test_scrub_reports_unrepairable_without_mirror () =
  let _, switch, _, fs = make_fs ~mirrored:false () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" payload;
  let dev, seg = heap_of fs s "/f" in
  Fs.crash fs;
  D.rot_block dev ~segid:seg ~blkno:0;
  let stats = Sc.run switch in
  Alcotest.(check int) "nothing silently repaired" 0 stats.Sc.repaired;
  Alcotest.(check bool) "the rot is reported" true
    (List.exists
       (fun (d, sg, b, _) -> d = D.name dev && sg = seg && b = 0)
       stats.Sc.unrepairable)

(* ---- retry with backoff ---- *)

let test_transient_error_retried_with_backoff () =
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"disk" ~kind:D.Magnetic_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  D.poke_block dev ~segid:seg ~blkno:blk (P.of_bytes (Bytes.make P.size 'r'));
  let plan = F.create () in
  F.arm_device plan dev;
  F.schedule plan ~io:F.Read ~after:1 F.Io_error;
  let t0 = Simclock.Clock.now clock in
  let page = verified_read dev ~segid:seg ~blkno:blk in
  let elapsed = Simclock.Clock.now clock -. t0 in
  F.disarm plan;
  Alcotest.(check char) "retry returned the bytes" 'r' (Bytes.get (P.to_bytes page) 0);
  Alcotest.(check bool) "backoff charged simulated time" true
    (elapsed >= R.default_policy.R.base_backoff_s)

let test_retry_exhaustion_is_permanent_failure () =
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"disk" ~kind:D.Magnetic_disk () in
  let seg = D.create_segment dev in
  let blk = D.allocate_block dev seg in
  D.poke_block dev ~segid:seg ~blkno:blk (P.of_bytes (Bytes.make P.size 'x'));
  let plan = F.create () in
  F.arm_device plan dev;
  for i = 1 to R.default_policy.R.max_attempts do
    F.schedule plan ~io:F.Read ~after:i F.Io_error
  done;
  (match verified_read dev ~segid:seg ~blkno:blk with
  | _ -> Alcotest.fail "every attempt faulted: expected Media_failure"
  | exception D.Media_failure _ -> ());
  F.disarm plan;
  (* the block itself is fine: a later clean read succeeds *)
  Alcotest.(check char) "medium intact" 'x'
    (Bytes.get (P.to_bytes (verified_read dev ~segid:seg ~blkno:blk)) 0)

(* ---- degraded mode ---- *)

let test_dead_device_degrades_only_its_relations () =
  let clock = Simclock.Clock.create () in
  let switch = S.create ~clock in
  ignore (S.add_device switch ~name:"disk0" ~kind:D.Magnetic_disk () : D.t);
  ignore (S.add_device switch ~name:"disk1" ~kind:D.Magnetic_disk () : D.t);
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let s = Fs.new_session fs in
  let fd = Fs.p_creat s "/safe" in
  ignore (Fs.p_write s fd payload (Bytes.length payload) : int);
  Fs.p_close s fd;
  let fd = Fs.p_creat s ~device:"disk1" "/doomed" in
  ignore (Fs.p_write s fd payload (Bytes.length payload) : int);
  let doomed_rel = Invfs.Inv_file.relname (Fs.fd_oid s fd) in
  Fs.p_close s fd;
  D.kill (S.find switch "disk1");
  Fs.crash fs;
  let s = Fs.new_session fs in
  Alcotest.(check bytes) "file on the live device still serves" payload
    (Fs.read_whole_file s "/safe");
  (match Fs.read_whole_file s "/doomed" with
  | _ -> Alcotest.fail "dead-device read must fail with EIO"
  | exception Errors.Fs_error (Errors.EIO, _) -> ());
  let report = Invfs.Fsck.audit fs in
  Alcotest.(check (list string)) "fsck names exactly the dead relations"
    [ doomed_rel ] report.Invfs.Fsck.degraded;
  Alcotest.(check bool) "fsck still audits clean" true (Invfs.Fsck.is_clean report);
  let rep = Invfs.Recovery.crash_and_recover fs in
  Alcotest.(check (list string)) "recovery reports the same degraded set"
    [ doomed_rel ] rep.Invfs.Recovery.restart.Fs.degraded;
  Alcotest.(check bool) "recovery clean" true (Invfs.Recovery.is_clean rep);
  let s = Fs.new_session fs in
  Alcotest.(check bytes) "survivor intact after recovery" payload
    (Fs.read_whole_file s "/safe")

(* A mirrored relation does NOT degrade when only one side dies. *)
let test_mirror_masks_device_death () =
  let _, switch, db, fs = make_fs ~mirrored:true () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" payload;
  Fs.crash fs;
  D.kill (S.find switch "disk1");
  let s = Fs.new_session fs in
  Alcotest.(check bytes) "primary alone still serves" payload
    (Fs.read_whole_file s "/f");
  Alcotest.(check (list string)) "nothing degraded" []
    (Relstore.Db.degraded_relations db)

(* ---- media failures in recovery and fsck ----

   Recovery verifies every heap page of a relation a dirty mark names in
   the same pass that audits the file's chunk index.  A page that cannot
   be read must still come out as a "media failure" page problem, worded
   as the page check words it, and a dead unmirrored device as a
   degraded relation — from [Fs.crash_and_recover] and [Fsck.audit]
   alike.  A clean relation is left to the full audit and the read path:
   restart does not read it at all. *)

let media_failure_fs () =
  let _, _, _, fs = make_fs ~mirrored:false () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" payload;
  Fs.write_file s "/g" payload;
  let dev, seg = heap_of fs s "/f" in
  let rel = Invfs.Inv_file.relname (Fs.lookup_oid s "/f") in
  (fs, dev, seg, rel)

(* Leave /f's heap marked: an uncommitted write of it goes through the
   pool to the device (a segment flush), and the crash comes before the
   next complete flush. *)
let mark_by_write_through fs ~dev ~seg =
  let s = Fs.new_session fs in
  Fs.p_begin s;
  Fs.write_file s "/f" (Bytes.make 100 'u');
  Pagestore.Bufcache.flush_segment (Relstore.Db.cache (Fs.db fs)) dev ~segid:seg;
  Alcotest.(check bool) "heap marked" true (D.is_marked dev ~segid:seg)

let check_unmarked dev ~seg =
  Alcotest.(check bool) "heap unmarked" false (D.is_marked dev ~segid:seg)

let media_problems (r : Invfs.Fsck.report) =
  List.filter_map
    (fun (p : Invfs.Fsck.problem) ->
      if String.starts_with ~prefix:"media failure:" p.detail then Some (p.relation, p.detail)
      else None)
    r.problems

let problem_list = Alcotest.(list (pair string string))

(* Every read of one block fails for the first three attempts — exactly
   one read through the retry layer — and then succeeds. *)
let fail_one_read dev ~segid:seg ~blkno:blk =
  let left = ref 3 in
  D.set_fault_hook dev
    (Some
       (fun io ~segid ~blkno ->
         if io = D.Io_read && segid = seg && blkno = blk && !left > 0 then begin
           decr left;
           Some D.Fault_io_error
         end
         else None))

let test_retries_exhausted_in_recovery () =
  let fs, dev, seg, rel = media_failure_fs () in
  let expect = [ (rel, Printf.sprintf "media failure: i/o errors persisted through retries (disk0/%d/0)" seg) ] in
  mark_by_write_through fs ~dev ~seg;
  fail_one_read dev ~segid:seg ~blkno:0;
  let r = Fs.crash_and_recover fs in
  Alcotest.check problem_list "recovery reports the unreadable page" expect r.Fs.page_problems;
  Alcotest.(check (list string)) "nothing degraded" [] r.Fs.degraded;
  Alcotest.(check (list int64)) "no file index rebuilt" [] r.Fs.file_indexes_rebuilt;
  Alcotest.(check (list string)) "no catalog rebuilt" [] r.Fs.catalogs_rebuilt;
  fail_one_read dev ~segid:seg ~blkno:0;
  Fs.crash fs;
  let a = Invfs.Fsck.audit fs in
  Alcotest.check problem_list "fsck reports the same page" expect (media_problems a);
  Alcotest.(check (list string)) "fsck: nothing degraded" [] a.Invfs.Fsck.degraded

(* The same fault at rest in a clean relation: restart never reads the
   page, the full audit after it reports it, and the read path fails it
   as EIO. *)
let test_retries_exhausted_at_rest () =
  let fs, dev, seg, rel = media_failure_fs () in
  let expect = [ (rel, Printf.sprintf "media failure: i/o errors persisted through retries (disk0/%d/0)" seg) ] in
  check_unmarked dev ~seg;
  fail_one_read dev ~segid:seg ~blkno:0;
  let reads0 = D.reads dev in
  let r = Fs.crash_and_recover fs in
  Alcotest.(check int) "restart reads nothing" 0 (D.reads dev - reads0);
  Alcotest.check problem_list "restart reports nothing" [] r.Fs.page_problems;
  Alcotest.(check bool) "restart leaves the relation unaudited" false
    (List.mem rel r.Fs.relations_audited);
  let rep = Invfs.Recovery.crash_and_recover fs in
  Alcotest.check problem_list "restart's audit reports the page" expect
    (media_problems rep.Invfs.Recovery.audit);
  fail_one_read dev ~segid:seg ~blkno:0;
  Fs.crash fs;
  let s = Fs.new_session fs in
  match Fs.read_whole_file s "/f" with
  | _ -> Alcotest.fail "an unreadable unmirrored page must read as EIO"
  | exception Errors.Fs_error (Errors.EIO, _) -> ()

let test_stuck_block_in_fsck () =
  let fs, dev, seg, rel = media_failure_fs () in
  Fs.crash fs;
  D.mark_stuck dev ~segid:seg ~blkno:0;
  let a = Invfs.Fsck.audit fs in
  let stuck = Printf.sprintf "media failure: stuck block (disk0/%d/0)" seg in
  (* once from the page check, once from the walk of the file's chunks *)
  Alcotest.check problem_list "fsck reports the stuck page" [ (rel, stuck); (rel, stuck) ]
    (media_problems a);
  Alcotest.(check (list string)) "nothing degraded" [] a.Invfs.Fsck.degraded

(* A heap page that cannot be read leaves nothing to rebuild the file's
   index from: recovery reports the page and leaves the index alone. *)
let test_stuck_block_in_recovery () =
  let fs, dev, seg, rel = media_failure_fs () in
  mark_by_write_through fs ~dev ~seg;
  Fs.crash fs;
  D.mark_stuck dev ~segid:seg ~blkno:0;
  let r = Fs.crash_and_recover fs in
  Alcotest.check problem_list "recovery reports the stuck page"
    [ (rel, Printf.sprintf "media failure: stuck block (disk0/%d/0)" seg) ]
    r.Fs.page_problems;
  Alcotest.(check (list string)) "nothing degraded" [] r.Fs.degraded;
  Alcotest.(check (list int64)) "no file index rebuilt" [] r.Fs.file_indexes_rebuilt;
  let s = Fs.new_session fs in
  Alcotest.(check bytes) "the other file still serves" payload (Fs.read_whole_file s "/g");
  match Fs.read_whole_file s "/f" with
  | _ -> Alcotest.fail "a stuck unmirrored page must read as EIO"
  | exception Errors.Fs_error (Errors.EIO, _) -> ()

let test_stuck_block_at_rest () =
  let fs, dev, seg, rel = media_failure_fs () in
  check_unmarked dev ~seg;
  Fs.crash fs;
  D.mark_stuck dev ~segid:seg ~blkno:0;
  let reads0 = D.reads dev in
  let r = Fs.crash_and_recover fs in
  Alcotest.(check int) "restart reads nothing" 0 (D.reads dev - reads0);
  Alcotest.check problem_list "restart reports nothing" [] r.Fs.page_problems;
  Alcotest.(check bool) "restart leaves the relation unaudited" false
    (List.mem rel r.Fs.relations_audited);
  let rep = Invfs.Recovery.crash_and_recover fs in
  let stuck = Printf.sprintf "media failure: stuck block (disk0/%d/0)" seg in
  Alcotest.check problem_list "restart's audit reports the stuck page"
    [ (rel, stuck); (rel, stuck) ]
    (media_problems rep.Invfs.Recovery.audit);
  let s = Fs.new_session fs in
  Alcotest.(check bytes) "the other file still serves" payload (Fs.read_whole_file s "/g");
  match Fs.read_whole_file s "/f" with
  | _ -> Alcotest.fail "a stuck unmirrored page must read as EIO"
  | exception Errors.Fs_error (Errors.EIO, _) -> ()

let test_dead_device_in_recovery () =
  let clock = Simclock.Clock.create () in
  let switch = S.create ~clock in
  ignore (S.add_device switch ~name:"disk0" ~kind:D.Magnetic_disk () : D.t);
  ignore (S.add_device switch ~name:"disk1" ~kind:D.Magnetic_disk () : D.t);
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let s = Fs.new_session fs in
  Fs.write_file s "/safe" payload;
  let fd = Fs.p_creat s ~device:"disk1" "/doomed" in
  ignore (Fs.p_write s fd payload (Bytes.length payload) : int);
  let doomed_rel = Invfs.Inv_file.relname (Fs.fd_oid s fd) in
  Fs.p_close s fd;
  D.kill (S.find switch "disk1");
  let r = Fs.crash_and_recover fs in
  Alcotest.check problem_list "no page problems" [] r.Fs.page_problems;
  Alcotest.(check (list string)) "recovery degrades the dead relation" [ doomed_rel ]
    r.Fs.degraded;
  Alcotest.(check (list int64)) "no file index rebuilt" [] r.Fs.file_indexes_rebuilt;
  let a = Invfs.Fsck.audit fs in
  Alcotest.check problem_list "fsck: no media problems" [] (media_problems a);
  Alcotest.(check (list string)) "fsck degrades the same relation" [ doomed_rel ]
    a.Invfs.Fsck.degraded

let () =
  Alcotest.run "media"
    [
      ( "checksums",
        [
          Alcotest.test_case "unmirrored bitrot is EIO" `Quick
            test_bitrot_unmirrored_is_eio;
          Alcotest.test_case "mirrored failover repairs in place" `Quick
            test_mirrored_failover_repairs_in_place;
          Alcotest.test_case "stuck primary block failover" `Quick
            test_stuck_primary_block_failover;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "repairs before a foreground read" `Quick
            test_scrub_repairs_before_foreground_read;
          Alcotest.test_case "reports unrepairable rot" `Quick
            test_scrub_reports_unrepairable_without_mirror;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient error retried with backoff" `Quick
            test_transient_error_retried_with_backoff;
          Alcotest.test_case "exhaustion is a permanent failure" `Quick
            test_retry_exhaustion_is_permanent_failure;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "dead device degrades only its relations" `Quick
            test_dead_device_degrades_only_its_relations;
          Alcotest.test_case "mirror masks device death" `Quick
            test_mirror_masks_device_death;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "retries exhausted on a heap page" `Quick
            test_retries_exhausted_in_recovery;
          Alcotest.test_case "retries exhausted on a clean heap page" `Quick
            test_retries_exhausted_at_rest;
          Alcotest.test_case "stuck heap page in fsck" `Quick test_stuck_block_in_fsck;
          Alcotest.test_case "stuck heap page in recovery" `Quick
            test_stuck_block_in_recovery;
          Alcotest.test_case "stuck clean heap page in recovery" `Quick
            test_stuck_block_at_rest;
          Alcotest.test_case "dead unmirrored device" `Quick test_dead_device_in_recovery;
        ] );
    ]
