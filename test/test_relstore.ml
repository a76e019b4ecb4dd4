(* The no-overwrite storage manager: pages, heaps, MVCC visibility,
   transactions, locking, vacuum, crash recovery. *)

module P = Pagestore.Page
module HP = Relstore.Heap_page
module H = Relstore.Heap
module T = Relstore.Txn
module SL = Relstore.Status_log
module LM = Relstore.Lock_mgr
module Db = Relstore.Db

(* Device reads fill a frame the caller passes; these tests want a fresh one. *)
let peek dev ~segid ~blkno =
  let p = Pagestore.Page.create () in
  Pagestore.Device.peek_block dev ~segid ~blkno p;
  p

let payload s = Bytes.of_string s
let str b = Bytes.to_string b

let fresh_db () = Db.create ()

(* A relation with no trees that owns [heap]'s archive: what reads
   [As_of] through to the archive tier. *)
let archived db heap = Index.Indexed.create heap ~archive:(Db.archive db heap) []

(* ---- Heap_page ---- *)

let test_page_insert_read () =
  let p = P.create () in
  HP.init p ~relid:7L ~blkno:3;
  let slot = Option.get (HP.insert p ~oid:100L ~xmin:1 ~payload:(payload "hello")) in
  (match HP.read_record p ~slot with
  | Some r ->
    Alcotest.(check int64) "oid" 100L r.oid;
    Alcotest.(check int) "xmin" 1 r.xmin;
    Alcotest.(check int) "xmax live" 0 r.xmax;
    Alcotest.(check string) "payload" "hello" (str r.payload)
  | None -> Alcotest.fail "record missing");
  Alcotest.(check bool) "dead slot" true (HP.read_record p ~slot:99 = None)

let test_page_fill_until_full () =
  let p = P.create () in
  HP.init p ~relid:1L ~blkno:0;
  let n = ref 0 in
  (try
     while true do
       match HP.insert p ~oid:(Int64.of_int !n) ~xmin:1 ~payload:(payload "0123456789") with
       | Some _ -> incr n
       | None -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) (Printf.sprintf "many records (%d)" !n) true (!n > 200);
  Alcotest.(check int) "nslots" !n (HP.nslots p)

let test_page_max_payload () =
  let p = P.create () in
  HP.init p ~relid:1L ~blkno:0;
  let big = Bytes.make HP.max_payload 'x' in
  (match HP.insert p ~oid:1L ~xmin:1 ~payload:big with
  | Some _ -> ()
  | None -> Alcotest.fail "max payload should fit on empty page");
  Alcotest.check_raises "oversized rejected"
    (Invalid_argument "Heap_page.insert: payload too large") (fun () ->
      ignore (HP.insert p ~oid:2L ~xmin:1 ~payload:(Bytes.make (HP.max_payload + 1) 'x')))

let test_page_compact_preserves_tids () =
  let p = P.create () in
  HP.init p ~relid:1L ~blkno:0;
  let s0 = Option.get (HP.insert p ~oid:1L ~xmin:1 ~payload:(payload "aaa")) in
  let s1 = Option.get (HP.insert p ~oid:2L ~xmin:1 ~payload:(payload "bbb")) in
  let s2 = Option.get (HP.insert p ~oid:3L ~xmin:1 ~payload:(payload "ccc")) in
  HP.kill_slot p ~slot:s1;
  let before = HP.free_space p in
  HP.compact p;
  Alcotest.(check bool) "space reclaimed" true (HP.free_space p > before);
  (match HP.read_record p ~slot:s0 with
  | Some r -> Alcotest.(check string) "s0 intact" "aaa" (str r.payload)
  | None -> Alcotest.fail "s0 lost");
  (match HP.read_record p ~slot:s2 with
  | Some r -> Alcotest.(check string) "s2 intact" "ccc" (str r.payload)
  | None -> Alcotest.fail "s2 lost");
  Alcotest.(check bool) "s1 dead" true (HP.read_record p ~slot:s1 = None)

let test_page_self_identification () =
  let p = P.create () in
  HP.init p ~relid:5L ~blkno:9;
  HP.seal p;
  Alcotest.(check bool) "verifies" true (HP.verify p ~expect_relid:5L ~expect_blkno:9 = Ok ());
  Alcotest.(check bool) "wrong relid" true
    (HP.verify p ~expect_relid:6L ~expect_blkno:9 <> Ok ());
  Alcotest.(check bool) "wrong blkno" true
    (HP.verify p ~expect_relid:5L ~expect_blkno:8 <> Ok ());
  (* corrupt a byte: checksum must catch it *)
  P.set_u8 p 4000 0xFF;
  Alcotest.(check bool) "corruption detected" true
    (HP.verify p ~expect_relid:5L ~expect_blkno:9 <> Ok ())

(* ---- Status log ---- *)

let test_status_lifecycle () =
  let clock = Simclock.Clock.create () in
  let log = SL.create ~clock in
  let x1 = SL.begin_txn log in
  let x2 = SL.begin_txn log in
  Alcotest.(check bool) "distinct xids" true (x1 <> x2);
  Alcotest.(check bool) "in progress" true (SL.state log x1 = SL.In_progress);
  Simclock.Clock.advance clock 1.;
  let ts = SL.commit log x1 in
  Alcotest.(check bool) "committed" true (SL.is_committed log x1);
  Alcotest.(check bool) "commit time recorded" true (SL.commit_time log x1 = Some ts);
  SL.abort log x2;
  Alcotest.(check bool) "aborted" true (SL.state log x2 = SL.Aborted);
  Alcotest.(check bool) "commit aborted fails" true
    (try
       ignore (SL.commit log x2);
       false
     with Invalid_argument _ -> true)

let test_status_crash_recovery () =
  let clock = Simclock.Clock.create () in
  let log = SL.create ~clock in
  let x1 = SL.begin_txn log in
  let x2 = SL.begin_txn log in
  ignore (SL.commit log x1);
  SL.crash_recover log;
  Alcotest.(check bool) "committed survives" true (SL.is_committed log x1);
  Alcotest.(check bool) "in-progress aborted" true (SL.state log x2 = SL.Aborted);
  Alcotest.(check (list int)) "no active" [] (SL.active log)

let test_committed_before () =
  let clock = Simclock.Clock.create () in
  let log = SL.create ~clock in
  let x = SL.begin_txn log in
  Simclock.Clock.advance clock 2.;
  let ts = SL.commit log x in
  Alcotest.(check bool) "before horizon" true (SL.committed_before log x ts);
  Alcotest.(check bool) "not before earlier" false
    (SL.committed_before log x (Int64.sub ts 1L))

(* ---- Lock manager ---- *)

let test_lock_shared_compatible () =
  let lm = LM.create () in
  LM.acquire lm 1 ~resource:"r" LM.Shared;
  LM.acquire lm 2 ~resource:"r" LM.Shared;
  Alcotest.(check int) "two holders" 2 (List.length (LM.holders lm ~resource:"r"))

let test_lock_exclusive_conflicts () =
  let lm = LM.create () in
  LM.acquire lm 1 ~resource:"r" LM.Exclusive;
  Alcotest.(check bool) "reader blocked" true
    (try
       LM.acquire lm 2 ~resource:"r" LM.Shared;
       false
     with LM.Would_block _ -> true);
  LM.release_all lm 1;
  LM.acquire lm 2 ~resource:"r" LM.Shared

let test_lock_upgrade () =
  let lm = LM.create () in
  LM.acquire lm 1 ~resource:"r" LM.Shared;
  LM.acquire lm 1 ~resource:"r" LM.Exclusive;
  (match LM.holders lm ~resource:"r" with
  | [ (1, LM.Exclusive) ] -> ()
  | _ -> Alcotest.fail "expected upgraded exclusive");
  (* upgrade with another reader present must block *)
  let lm2 = LM.create () in
  LM.acquire lm2 1 ~resource:"r" LM.Shared;
  LM.acquire lm2 2 ~resource:"r" LM.Shared;
  Alcotest.(check bool) "upgrade blocked" true
    (try
       LM.acquire lm2 1 ~resource:"r" LM.Exclusive;
       false
     with LM.Would_block _ -> true)

let test_lock_deadlock_detected () =
  let lm = LM.create () in
  LM.acquire lm 1 ~resource:"a" LM.Exclusive;
  LM.acquire lm 2 ~resource:"b" LM.Exclusive;
  (* 1 waits for b *)
  (try LM.acquire lm 1 ~resource:"b" LM.Exclusive with LM.Would_block _ -> ());
  (* 2 requesting a closes the cycle *)
  Alcotest.(check bool) "deadlock raised" true
    (try
       LM.acquire lm 2 ~resource:"a" LM.Exclusive;
       false
     with LM.Deadlock _ -> true)

let test_lock_release_unblocks () =
  let lm = LM.create () in
  LM.acquire lm 1 ~resource:"r" LM.Exclusive;
  Alcotest.(check bool) "blocked" false (LM.try_acquire lm 2 ~resource:"r" LM.Exclusive);
  Alcotest.(check (list int)) "wait edge" [ 1 ] (LM.waiting lm 2);
  LM.release_all lm 1;
  Alcotest.(check (list int)) "edge cleared" [] (LM.waiting lm 2);
  Alcotest.(check bool) "granted" true (LM.try_acquire lm 2 ~resource:"r" LM.Exclusive)

(* ---- Heap + transactions + MVCC ---- *)

let test_heap_insert_fetch () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid =
    Db.with_txn db (fun txn -> H.insert heap txn ~oid:(Db.allocate_oid db) (payload "v1"))
  in
  let txn = Db.begin_txn db in
  (match H.fetch heap (T.snapshot txn) tid with
  | Some r -> Alcotest.(check string) "visible after commit" "v1" (str r.payload)
  | None -> Alcotest.fail "record invisible");
  T.abort txn

let test_heap_own_changes_visible () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  Db.with_txn db (fun txn ->
      let tid = H.insert heap txn ~oid:1L (payload "mine") in
      match H.fetch heap (T.snapshot txn) tid with
      | Some r -> Alcotest.(check string) "own insert visible" "mine" (str r.payload)
      | None -> Alcotest.fail "own insert invisible")

let test_heap_aborted_invisible () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let txn = Db.begin_txn db in
  let tid = H.insert heap txn ~oid:1L (payload "ghost") in
  T.abort txn;
  let reader = Db.begin_txn db in
  Alcotest.(check bool) "aborted invisible" true
    (H.fetch heap (T.snapshot reader) tid = None);
  T.abort reader

let test_heap_delete_and_update () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "old")) in
  let tid2 = Db.with_txn db (fun txn -> H.update heap txn tid (payload "new")) in
  let reader = Db.begin_txn db in
  Alcotest.(check bool) "old version invisible" true
    (H.fetch heap (T.snapshot reader) tid = None);
  (match H.fetch heap (T.snapshot reader) tid2 with
  | Some r ->
    Alcotest.(check string) "new version" "new" (str r.payload);
    Alcotest.(check int64) "same oid" 1L r.oid
  | None -> Alcotest.fail "new version invisible");
  (* the old version still physically exists (no overwrite) *)
  (match H.fetch_any heap tid with
  | Some r -> Alcotest.(check string) "old bytes in place" "old" (str r.payload)
  | None -> Alcotest.fail "old version physically gone");
  T.abort reader

let test_heap_double_delete_rejected () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "x")) in
  Db.with_txn db (fun txn -> H.delete heap txn tid);
  Alcotest.(check bool) "double delete" true
    (try
       Db.with_txn db (fun txn -> H.delete heap txn tid);
       false
     with Invalid_argument _ -> true)

let test_time_travel_sees_history () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid1 = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "v1")) in
  Simclock.Clock.advance (Db.clock db) 10.;
  let t_after_v1 = Db.now db in
  Simclock.Clock.advance (Db.clock db) 10.;
  let tid2 = Db.with_txn db (fun txn -> H.update heap txn tid1 (payload "v2")) in
  (* as-of t_after_v1: v1 visible, v2 not *)
  let snap = Relstore.Snapshot.As_of t_after_v1 in
  (match H.fetch heap snap tid1 with
  | Some r -> Alcotest.(check string) "v1 at t1" "v1" (str r.payload)
  | None -> Alcotest.fail "v1 invisible in the past");
  Alcotest.(check bool) "v2 not yet" true (H.fetch heap snap tid2 = None);
  (* now: v2 only *)
  let now_snap = Relstore.Snapshot.As_of (Db.now db) in
  Alcotest.(check bool) "v1 dead now" true (H.fetch heap now_snap tid1 = None);
  Alcotest.(check bool) "v2 live now" true (H.fetch heap now_snap tid2 <> None)

let test_scan_visibility () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  Db.with_txn db (fun txn ->
      for i = 1 to 10 do
        ignore (H.insert heap txn ~oid:(Int64.of_int i) (payload (string_of_int i)))
      done);
  (* delete evens *)
  Db.with_txn db (fun txn ->
      let doomed = ref [] in
      H.scan heap (T.snapshot txn) (fun r ->
          if Int64.to_int r.oid mod 2 = 0 then doomed := r.tid :: !doomed);
      List.iter (fun tid -> H.delete heap txn tid) !doomed);
  let reader = Db.begin_txn db in
  let seen = ref [] in
  H.scan heap (T.snapshot reader) (fun r -> seen := Int64.to_int r.oid :: !seen);
  Alcotest.(check (list int)) "odds remain" [ 1; 3; 5; 7; 9 ] (List.sort compare !seen);
  T.abort reader

let test_crash_recovery_semantics () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid_committed =
    Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "durable"))
  in
  let txn = Db.begin_txn db in
  let tid_uncommitted = H.insert heap txn ~oid:2L (payload "volatile") in
  Db.crash db;
  (* no fsck, no replay: read immediately *)
  let reader = Db.begin_txn db in
  (match H.fetch heap (T.snapshot reader) tid_committed with
  | Some r -> Alcotest.(check string) "committed survives" "durable" (str r.payload)
  | None -> Alcotest.fail "committed data lost");
  Alcotest.(check bool) "uncommitted rolled back" true
    (H.fetch heap (T.snapshot reader) tid_uncommitted = None);
  T.abort reader

let test_large_payload_roundtrip () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let big = Bytes.init HP.max_payload (fun i -> Char.chr (i mod 251)) in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L big) in
  let reader = Db.begin_txn db in
  (match H.fetch heap (T.snapshot reader) tid with
  | Some r -> Alcotest.(check bytes) "8148-byte chunk" big r.payload
  | None -> Alcotest.fail "big record lost");
  T.abort reader

let test_verify_clean_heap () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  Db.with_txn db (fun txn ->
      for i = 1 to 100 do
        ignore (H.insert heap txn ~oid:(Int64.of_int i) (payload (String.make 100 'x')))
      done);
  Alcotest.(check bool) "verifies" true (H.verify heap = Ok ())

let test_aborted_deleter_leaves_visible () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "keep")) in
  let txn = Db.begin_txn db in
  H.delete heap txn tid;
  T.abort txn;
  let reader = Db.begin_txn db in
  (match H.fetch heap (T.snapshot reader) tid with
  | Some r -> Alcotest.(check string) "still visible" "keep" (str r.payload)
  | None -> Alcotest.fail "aborted delete hid the record");
  T.abort reader

let test_update_chain_history () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let clock = Db.clock db in
  let tid = ref (Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "v0"))) in
  let stamps = ref [] in
  for i = 1 to 5 do
    Simclock.Clock.advance clock 1.;
    stamps := (Db.now db, Printf.sprintf "v%d" (i - 1)) :: !stamps;
    Simclock.Clock.advance clock 1.;
    tid := Db.with_txn db (fun txn -> H.update heap txn !tid (payload (Printf.sprintf "v%d" i)))
  done;
  List.iter
    (fun (ts, expect) ->
      let seen = ref [] in
      H.scan heap (Relstore.Snapshot.As_of ts) (fun r -> seen := str r.payload :: !seen);
      Alcotest.(check (list string)) ("state at " ^ expect) [ expect ] !seen)
    !stamps

let test_vacuum_respects_horizon () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let clock = Db.clock db in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "old")) in
  Simclock.Clock.advance clock 10.;
  let horizon = Db.now db in
  Simclock.Clock.advance clock 10.;
  (* this version dies AFTER the horizon: it must be kept *)
  ignore (Db.with_txn db (fun txn -> H.update heap txn tid (payload "new")));
  let stats = Db.vacuum db ~relation:"t" ~horizon ~mode:`Discard () in
  Alcotest.(check int) "nothing before horizon was dead" 0 stats.discarded;
  Alcotest.(check bool) "old version still present" true (H.fetch_any heap tid <> None)

let test_scan_skips_unwritten_pages () =
  (* allocate a block directly on the device (never initialized as a heap
     page): scans and verify must tolerate it *)
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  Db.with_txn db (fun txn -> ignore (H.insert heap txn ~oid:1L (payload "x")));
  ignore (Pagestore.Device.allocate_block (H.device heap) (H.segid heap) : int);
  let reader = Db.begin_txn db in
  let n = ref 0 in
  H.scan heap (T.snapshot reader) (fun _ -> incr n);
  T.abort reader;
  Alcotest.(check int) "one record" 1 !n;
  Alcotest.(check bool) "verify tolerates zero page" true (H.verify heap = Ok ())

(* ---- Vacuum ---- *)

let test_vacuum_discard () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "v1")) in
  ignore (Db.with_txn db (fun txn -> H.update heap txn tid (payload "v2")));
  Simclock.Clock.advance (Db.clock db) 1.;
  let stats = Db.vacuum db ~relation:"t" ~mode:`Discard () in
  Alcotest.(check int) "one version discarded" 1 stats.discarded;
  Alcotest.(check bool) "old version physically gone" true (H.fetch_any heap tid = None);
  (* current version still readable *)
  let reader = Db.begin_txn db in
  let count = ref 0 in
  H.scan heap (T.snapshot reader) (fun _ -> incr count);
  Alcotest.(check int) "live record remains" 1 !count;
  T.abort reader

let test_vacuum_archive_preserves_time_travel () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "v1")) in
  Simclock.Clock.advance (Db.clock db) 5.;
  let t_v1 = Db.now db in
  Simclock.Clock.advance (Db.clock db) 5.;
  ignore (Db.with_txn db (fun txn -> H.update heap txn tid (payload "v2")));
  Simclock.Clock.advance (Db.clock db) 1.;
  let rel = archived db heap in
  let stats = Db.vacuum db ~relation:"t" ~mode:(`Archive (Index.Indexed.archive rel)) () in
  Alcotest.(check int) "archived" 1 stats.archived;
  (* time travel to t_v1 still finds v1, via the archive *)
  let snap = Relstore.Snapshot.As_of t_v1 in
  let seen = ref [] in
  Index.Indexed.scan rel snap (fun r -> seen := str r.payload :: !seen);
  Alcotest.(check (list string)) "v1 from archive" [ "v1" ] !seen

let test_vacuum_removes_aborted () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let txn = Db.begin_txn db in
  ignore (H.insert heap txn ~oid:1L (payload "junk"));
  T.abort txn;
  let stats = Db.vacuum db ~relation:"t" ~mode:`Discard () in
  Alcotest.(check int) "aborted garbage collected" 1 stats.discarded


(* ---- incremental concurrent vacuum & the WORM tier ---- *)

let test_vacuum_full_pass_gives_way_to_writer () =
  (* the full pass is one step over the whole heap: with a writer holding
     the relation it removes nothing and the writer goes on to commit;
     the next pass archives the version that writer killed *)
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "v1")) in
  Simclock.Clock.advance (Db.clock db) 5.;
  let t_v1 = Db.now db in
  Simclock.Clock.advance (Db.clock db) 5.;
  let writer = Db.begin_txn db in
  ignore (H.update heap writer tid (payload "v2") : Relstore.Tid.t);
  let rel = archived db heap in
  let mode = `Archive (Index.Indexed.archive rel) in
  let st = Db.vacuum db ~relation:"t" ~mode () in
  Alcotest.(check (list int)) "nothing scanned, archived or discarded" [ 0; 0; 0; 0 ]
    [ st.scanned; st.archived; st.discarded; st.pages_compacted ];
  Alcotest.(check bool) "old version still in the main heap" true
    (H.fetch_any heap tid <> None);
  ignore (T.commit writer : int64);
  Simclock.Clock.advance (Db.clock db) 1.;
  let st = Db.vacuum db ~relation:"t" ~mode () in
  Alcotest.(check int) "the writer's dead version archived" 1 st.archived;
  Alcotest.(check bool) "gone from the main heap" true (H.fetch_any heap tid = None);
  let seen = ref [] in
  Index.Indexed.scan rel (Relstore.Snapshot.As_of t_v1) (fun r ->
      seen := str r.payload :: !seen);
  Alcotest.(check (list string)) "v1 from the archive" [ "v1" ] !seen

let dead_versions db heap n =
  (* [n] records, each updated once: [n] dead versions spread over the heap *)
  let tids =
    Array.init n (fun i ->
        Db.with_txn db (fun txn ->
            H.insert heap txn ~oid:(Int64.of_int i) (payload (String.make 300 'a'))))
  in
  Array.iter
    (fun tid ->
      ignore (Db.with_txn db (fun txn -> H.update heap txn tid (payload (String.make 300 'b')))))
    tids;
  Simclock.Clock.advance (Db.clock db) 1.

let test_vacuum_step_budget_and_cursor () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  dead_versions db heap 60;
  let nb = H.nblocks heap in
  Alcotest.(check bool) "heap spans several pages" true (nb > 2);
  let total = ref 0 and steps = ref 0 and wrapped = ref false in
  while not !wrapped do
    let st = Db.vacuum_step db ~relation:"t" ~mode:`Discard ~pages:1 () in
    incr steps;
    Alcotest.(check bool) "one-page budget respected" true (st.Relstore.Vacuum.s_pages <= 1);
    total := !total + st.Relstore.Vacuum.s_discarded;
    wrapped := st.Relstore.Vacuum.s_wrapped
  done;
  Alcotest.(check int) "full pass collects every dead version" 60 !total;
  Alcotest.(check bool) "took one step per page" true (!steps >= nb);
  (* idempotent: a second full pass finds nothing *)
  let again = ref 0 and wrapped = ref false in
  while not !wrapped do
    let st = Db.vacuum_step db ~relation:"t" ~mode:`Discard ~pages:4 () in
    again := !again + st.Relstore.Vacuum.s_discarded;
    wrapped := st.Relstore.Vacuum.s_wrapped
  done;
  Alcotest.(check int) "second pass is empty" 0 !again

let test_vacuum_step_yields_to_writer () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  dead_versions db heap 4;
  let w = Db.begin_txn db in
  H.write_lock heap w;
  let st = Db.vacuum_step db ~relation:"t" ~mode:`Discard ~pages:8 () in
  Alcotest.(check bool) "skipped while the writer holds the relation" true
    st.Relstore.Vacuum.s_skipped;
  Alcotest.(check int) "nothing touched" 0 st.Relstore.Vacuum.s_pages;
  T.abort w;
  let collected = ref 0 and wrapped = ref false in
  while not !wrapped do
    let st = Db.vacuum_step db ~relation:"t" ~mode:`Discard ~pages:8 () in
    Alcotest.(check bool) "runs after the writer releases" false
      st.Relstore.Vacuum.s_skipped;
    collected := !collected + st.Relstore.Vacuum.s_discarded;
    wrapped := st.Relstore.Vacuum.s_wrapped
  done;
  Alcotest.(check int) "cursor did not advance past the skip" 4 !collected

let test_vacuum_step_runs_alongside_reader () =
  (* Shared-vs-Shared: a reader never blocks the incremental vacuum, and
     the dead versions it can no longer see are collected under it *)
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  dead_versions db heap 3;
  let r = Db.begin_txn db in
  T.lock r ~resource:(H.resource heap) LM.Shared;
  let collected = ref 0 and wrapped = ref false in
  while not !wrapped do
    let st = Db.vacuum_step db ~relation:"t" ~mode:`Discard ~pages:8 () in
    Alcotest.(check bool) "reader does not block the step" false
      st.Relstore.Vacuum.s_skipped;
    collected := !collected + st.Relstore.Vacuum.s_discarded;
    wrapped := st.Relstore.Vacuum.s_wrapped
  done;
  Alcotest.(check int) "invisible versions collected under the reader" 3 !collected;
  T.abort r

let test_vacuum_on_remove_fires_exactly_once () =
  (* index maintenance contract, both flavours: every version leaving
     the main heap announces its TID exactly once *)
  let expect_removed heap =
    let dead = ref [] in
    H.scan_raw heap (fun r ->
        if Relstore.Xid.is_valid r.H.xmax
           && Relstore.Status_log.is_committed (H.status_log heap) r.H.xmax
        then dead := r.H.tid :: !dead);
    List.sort compare !dead
  in
  (* full pass *)
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  dead_versions db heap 5;
  let expected = expect_removed heap in
  let removed = ref [] in
  ignore
    (Db.vacuum db ~relation:"t" ~mode:`Discard
       ~on_remove:(fun r -> removed := r.H.tid :: !removed)
       ()
      : Relstore.Vacuum.stats);
  Alcotest.(check int) "run: one callback per dead version" (List.length expected)
    (List.length !removed);
  Alcotest.(check bool) "run: exact tid set" true
    (List.sort compare !removed = expected);
  (* incremental, across the whole cursor pass *)
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  dead_versions db heap 5;
  let expected = expect_removed heap in
  let removed = ref [] and wrapped = ref false in
  while not !wrapped do
    let st =
      Db.vacuum_step db ~relation:"t" ~mode:`Discard ~pages:1
        ~on_remove:(fun r -> removed := r.H.tid :: !removed)
        ()
    in
    wrapped := st.Relstore.Vacuum.s_wrapped
  done;
  Alcotest.(check bool) "step: exact tid set, once each" true
    (List.sort compare !removed = expected)

let test_archive_is_append_only () =
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  dead_versions db heap 1;
  let archive = Db.archive db heap in
  ignore (Db.vacuum db ~relation:"t" ~mode:(`Archive archive) () : Relstore.Vacuum.stats);
  let arch = Lazy.force archive in
  let archived = ref [] in
  H.scan_raw arch (fun r -> archived := r :: !archived);
  Alcotest.(check int) "one archived version" 1 (List.length !archived);
  let rejected f =
    try
      f ();
      false
    with H.Append_only _ -> true
  in
  Alcotest.(check bool) "insert on WORM rejected" true
    (rejected (fun () ->
         ignore (Db.with_txn db (fun txn -> H.insert arch txn ~oid:99L (payload "x")))));
  let victim = (List.hd !archived).H.tid in
  Alcotest.(check bool) "delete on WORM rejected" true
    (rejected (fun () -> ignore (Db.with_txn db (fun txn -> H.delete arch txn victim))));
  Alcotest.(check bool) "update on WORM rejected" true
    (rejected (fun () ->
         ignore (Db.with_txn db (fun txn -> H.update arch txn victim (payload "y")))));
  (* the one legal write: the vacuum's own raw append *)
  let r = List.hd !archived in
  ignore (H.append_raw arch ~oid:r.H.oid ~xmin:r.H.xmin ~xmax:r.H.xmax r.H.payload : Relstore.Tid.t)

let test_archive_duplicate_collapses () =
  (* a crash between the archive copy and the kill leaves the version on
     both tiers; As_of reads must collapse the duplicate, and a re-run
     of the step must not double anything *)
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "v1")) in
  Simclock.Clock.advance (Db.clock db) 5.;
  let t_v1 = Db.now db in
  Simclock.Clock.advance (Db.clock db) 5.;
  ignore (Db.with_txn db (fun txn -> H.update heap txn tid (payload "v2")));
  Simclock.Clock.advance (Db.clock db) 1.;
  (* make the archive, then hand-plant the duplicate a torn step would
     leave behind: copy the dead version without killing the original *)
  let rel = archived db heap in
  let arch = Lazy.force (Index.Indexed.archive rel) in
  let dead = Option.get (H.fetch_any heap tid) in
  ignore (H.append_raw arch ~oid:dead.H.oid ~xmin:dead.H.xmin ~xmax:dead.H.xmax dead.H.payload
           : Relstore.Tid.t);
  let versions_at ts =
    let seen = ref [] in
    Index.Indexed.scan rel (Relstore.Snapshot.As_of ts) (fun r ->
        seen := str r.H.payload :: !seen);
    !seen
  in
  Alcotest.(check (list string)) "duplicate collapsed" [ "v1" ] (versions_at t_v1);
  (* now the real pass archives it and kills the original *)
  let wrapped = ref false in
  while not !wrapped do
    let st =
      Db.vacuum_step db ~relation:"t" ~mode:(`Archive (Index.Indexed.archive rel)) ~pages:4 ()
    in
    wrapped := st.Relstore.Vacuum.s_wrapped
  done;
  Alcotest.(check bool) "original gone from the main heap" true (H.fetch_any heap tid = None);
  Alcotest.(check (list string)) "still exactly one v1" [ "v1" ] (versions_at t_v1)

let test_lease_holds_the_horizon () =
  (* an As_of holder registers a lease; the safe horizon stays below it
     so the versions it reads cannot be reclaimed until release *)
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  let tid = Db.with_txn db (fun txn -> H.insert heap txn ~oid:1L (payload "v1")) in
  Simclock.Clock.advance (Db.clock db) 5.;
  let ts = Db.now db in
  let lease = Db.acquire_lease db ~horizon:ts in
  Simclock.Clock.advance (Db.clock db) 5.;
  ignore (Db.with_txn db (fun txn -> H.update heap txn tid (payload "v2")));
  Simclock.Clock.advance (Db.clock db) 1.;
  let sweep () =
    let n = ref 0 and wrapped = ref false in
    while not !wrapped do
      let st = Db.vacuum_step db ~relation:"t" ~mode:`Discard ~pages:4 () in
      n := !n + st.Relstore.Vacuum.s_discarded;
      wrapped := st.Relstore.Vacuum.s_wrapped
    done;
    !n
  in
  Alcotest.(check int) "leased version survives the sweep" 0 (sweep ());
  Alcotest.(check bool) "still readable at the lease horizon" true
    (H.fetch_any heap tid <> None);
  Db.release_lease db lease;
  Alcotest.(check int) "released: the sweep reclaims it" 1 (sweep ())

(* ---- Db plumbing ---- *)

let test_db_relations () =
  let db = fresh_db () in
  ignore (Db.create_relation db ~name:"a" ());
  ignore (Db.create_relation db ~name:"b" ());
  Alcotest.(check (list string)) "listed" [ "a"; "b" ] (Db.relations db);
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Db.create_relation db ~name:"a" ());
       false
     with Invalid_argument _ -> true);
  Db.drop_relation db "a";
  Alcotest.(check bool) "dropped" false (Db.relation_exists db "a")

let test_db_oids_unique () =
  let db = fresh_db () in
  let a = Db.allocate_oid db in
  let b = Db.allocate_oid db in
  Alcotest.(check bool) "monotone" true (Int64.compare a b < 0)

(* ---- group commit ---- *)

let read_counter name = match Obs.Metrics.read name with Some v -> v | None -> 0

let group_flushes () = Obs.Metrics.hist_count (Obs.Metrics.histogram "txn.commit.group_size")

let test_group_commit_batches_forces () =
  let db = Db.create () in
  let heap = Db.create_relation db ~name:"r" () in
  let d0 = read_counter "log.commit.durable" in
  let f0 = group_flushes () in
  let commit i =
    Db.with_txn db (fun txn ->
        ignore (H.insert heap txn ~oid:(Int64.of_int i) (payload "x") : Relstore.Tid.t))
  in
  for i = 1 to SL.group_size - 1 do
    commit i
  done;
  Alcotest.(check int) "seven commits pending" (SL.group_size - 1)
    (SL.pending_force (Db.status_log db));
  Alcotest.(check (float 0.)) "no force charged yet" 0.
    (Simclock.Clock.charged (Db.clock db) "xlog.commit");
  commit SL.group_size;
  Alcotest.(check int) "the eighth commit forced the batch" 0
    (SL.pending_force (Db.status_log db));
  Alcotest.(check int) "exactly one force" (f0 + 1) (group_flushes ());
  Alcotest.(check int) "eight durable commits" (d0 + 8) (read_counter "log.commit.durable");
  Alcotest.(check bool) "the force was charged" true
    (Simclock.Clock.charged (Db.clock db) "xlog.commit" > 0.)

let test_sync_forces_partial_batch () =
  let fs = Invfs.Fs.make (Db.create ()) () in
  let db = Invfs.Fs.db fs in
  Db.force_group db;
  Invfs.Fs.write_file (Invfs.Fs.new_session fs) "/partial" (Bytes.of_string "x");
  let pending = SL.pending_force (Db.status_log db) in
  Alcotest.(check bool) "a partial batch is pending" true
    (pending > 0 && pending < SL.group_size);
  let d0 = read_counter "log.commit.durable" in
  let f0 = group_flushes () in
  Invfs.Fs.sync fs;
  Alcotest.(check int) "drained" 0 (SL.pending_force (Db.status_log db));
  Alcotest.(check int) "one force" (f0 + 1) (group_flushes ());
  Alcotest.(check int) "covering the partial batch" (d0 + pending)
    (read_counter "log.commit.durable")

let test_status_log_group_api () =
  let clock = Simclock.Clock.create () in
  let log = SL.create ~clock in
  let commit_one () =
    let x = SL.begin_txn log in
    ignore (SL.commit ~force:true log x : int64)
  in
  commit_one ();
  Alcotest.(check int) "pending 1" 1 (SL.pending_force log);
  for _ = 2 to SL.group_size do
    commit_one ()
  done;
  Alcotest.(check int) "force covers the batch" SL.group_size (SL.force_pending log);
  Alcotest.(check int) "drained" 0 (SL.pending_force log);
  (* age bound: a lone pending commit comes due after max_age_s *)
  commit_one ();
  Simclock.Clock.advance clock (SL.max_age_s /. 2.);
  Alcotest.(check bool) "young batch not age_due" false (SL.age_due log);
  Simclock.Clock.advance clock SL.max_age_s;
  Alcotest.(check bool) "age_due after the wait" true (SL.age_due log);
  Alcotest.(check int) "age force covers it" 1 (SL.force_pending log)

let test_group_commit_survives_crash () =
  let clock = Simclock.Clock.create () in
  let log = SL.create ~clock in
  let x1 = SL.begin_txn log in
  ignore (SL.commit ~force:true log x1 : int64);
  let x2 = SL.begin_txn log in
  Alcotest.(check int) "one pending" 1 (SL.pending_force log);
  SL.crash_recover log;
  (* the status area is NVRAM-backed: the enqueued-but-unforced commit
     survives the crash; the in-flight transaction is rolled back *)
  Alcotest.(check bool) "x1 committed" true (SL.is_committed log x1);
  Alcotest.(check bool) "x2 aborted" true (SL.state log x2 = SL.Aborted);
  Alcotest.(check int) "pending reset" 0 (SL.pending_force log)

(* The create path end to end: a 64-chunk file written one auto-commit
   chunk at a time must form real batches on both Inversion systems, and
   the group-size histogram must account for every durable commit
   (flushes x mean group size = commits). *)
let test_create_path_forms_groups () =
  let module S = Benchlib.Systems in
  List.iter
    (fun make ->
      let sys : S.t = make () in
      let h = Obs.Metrics.histogram "txn.commit.group_size" in
      (* drain the setup commits so the deltas cover the create alone *)
      sys.S.flush_caches ();
      let d0 = read_counter "log.commit.durable" in
      let f0 = Obs.Metrics.hist_count h and s0 = Obs.Metrics.hist_sum h in
      let f = sys.S.create "/groups.dat" in
      for i = 0 to 63 do
        sys.S.write f ~off:(Int64.of_int (i * sys.S.io_unit)) (Bytes.make sys.S.io_unit 'g')
      done;
      sys.S.flush_caches ();
      let commits = read_counter "log.commit.durable" - d0 in
      let flushes = Obs.Metrics.hist_count h - f0 in
      let mean = float_of_int commits /. float_of_int (max 1 flushes) in
      Alcotest.(check int)
        (sys.S.sys_name ^ ": flushes x mean group size = commits")
        commits
        (Float.to_int (Float.round ((Obs.Metrics.hist_sum h -. s0) *. 1e6)));
      Alcotest.(check bool)
        (Printf.sprintf "%s: mean group %.2f > 1.5 (%d commits, %d flushes)" sys.S.sys_name
           mean commits flushes)
        true (mean > 1.5))
    [ S.inversion_single_process; S.inversion_client_server ]

let test_fsck_detects_media_corruption () =
  (* "The only difficulties arise when the physical storage medium is
     damaged" — flip bytes behind the storage manager's back and the
     self-identifying blocks must notice *)
  let db = fresh_db () in
  let heap = Db.create_relation db ~name:"t" () in
  Db.with_txn db (fun txn ->
      for i = 1 to 50 do
        ignore (H.insert heap txn ~oid:(Int64.of_int i) (payload (String.make 200 'd')))
      done);
  Alcotest.(check bool) "clean before damage" true (H.verify heap = Ok ());
  (* flip a byte directly on the medium *)
  let dev = H.device heap in
  let page = peek dev ~segid:(H.segid heap) ~blkno:0 in
  P.set_u8 page 2000 (P.get_u8 page 2000 lxor 0xFF);
  Pagestore.Device.poke_block dev ~segid:(H.segid heap) ~blkno:0 page;
  (* the cache may still hold the clean copy: drop it *)
  Pagestore.Bufcache.crash (Db.cache db);
  (match H.verify heap with
  | Error msg ->
    Alcotest.(check bool) ("detected: " ^ msg) true
      (String.length msg > 0)
  | Ok () -> Alcotest.fail "corruption went undetected")

let prop_heap_page_model =
  (* model-based slotted page: insert/kill/compact against an assoc list *)
  QCheck.Test.make ~name:"heap page matches slot model" ~count:100
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (pair (int_bound 2) (string_of_size Gen.(int_range 0 80))))
    (fun ops ->
      let page = P.create () in
      HP.init page ~relid:9L ~blkno:0;
      let model : (int, string) Hashtbl.t = Hashtbl.create 16 in
      let next_oid = ref 0L in
      List.iter
        (fun (kind, data) ->
          match kind with
          | 0 | 1 -> (
            (* insert *)
            next_oid := Int64.add !next_oid 1L;
            match HP.insert page ~oid:!next_oid ~xmin:1 ~payload:(payload data) with
            | Some slot -> Hashtbl.replace model slot data
            | None -> () (* page full: model unchanged *))
          | _ ->
            (* kill a random-ish live slot, then sometimes compact *)
            (match Hashtbl.fold (fun k _ _ -> Some k) model None with
            | Some slot ->
              HP.kill_slot page ~slot;
              Hashtbl.remove model slot
            | None -> ());
            if String.length data mod 2 = 0 then HP.compact page)
        ops;
      Hashtbl.fold
        (fun slot expect acc ->
          acc
          &&
          match HP.read_record page ~slot with
          | Some r -> str r.payload = expect
          | None -> false)
        model true)

let prop_mvcc_last_committed_wins =
  QCheck.Test.make ~name:"visible version is last committed update" ~count:30
    QCheck.(list_of_size Gen.(int_range 1 12) (string_of_size (Gen.return 6)))
    (fun values ->
      let db = fresh_db () in
      let heap = Db.create_relation db ~name:"t" () in
      let tid = ref None in
      List.iter
        (fun v ->
          Db.with_txn db (fun txn ->
              match !tid with
              | None -> tid := Some (H.insert heap txn ~oid:1L (payload v))
              | Some old -> tid := Some (H.update heap txn old (payload v))))
        values;
      let reader = Db.begin_txn db in
      let visible = ref [] in
      H.scan heap (T.snapshot reader) (fun r -> visible := str r.payload :: !visible);
      T.abort reader;
      !visible = [ List.nth values (List.length values - 1) ])

let prop_time_travel_monotone_history =
  QCheck.Test.make ~name:"as-of snapshots replay history exactly" ~count:20
    QCheck.(list_of_size Gen.(int_range 1 8) (string_of_size (Gen.return 4)))
    (fun values ->
      let db = fresh_db () in
      let heap = Db.create_relation db ~name:"t" () in
      let tid = ref None in
      let stamps =
        List.map
          (fun v ->
            Simclock.Clock.advance (Db.clock db) 1.;
            Db.with_txn db (fun txn ->
                match !tid with
                | None -> tid := Some (H.insert heap txn ~oid:1L (payload v))
                | Some old -> tid := Some (H.update heap txn old (payload v)));
            Simclock.Clock.advance (Db.clock db) 0.001;
            (Db.now db, v))
          values
      in
      List.for_all
        (fun (ts, expect) ->
          let seen = ref [] in
          H.scan heap (Relstore.Snapshot.As_of ts) (fun r -> seen := str r.payload :: !seen);
          !seen = [ expect ])
        stamps)

let () =
  Alcotest.run "relstore"
    [
      ( "heap_page",
        [
          Alcotest.test_case "insert/read" `Quick test_page_insert_read;
          Alcotest.test_case "fill until full" `Quick test_page_fill_until_full;
          Alcotest.test_case "max payload" `Quick test_page_max_payload;
          Alcotest.test_case "compact preserves TIDs" `Quick test_page_compact_preserves_tids;
          Alcotest.test_case "self-identification" `Quick test_page_self_identification;
        ] );
      ( "status_log",
        [
          Alcotest.test_case "lifecycle" `Quick test_status_lifecycle;
          Alcotest.test_case "crash recovery" `Quick test_status_crash_recovery;
          Alcotest.test_case "committed_before" `Quick test_committed_before;
        ] );
      ( "locks",
        [
          Alcotest.test_case "shared compatible" `Quick test_lock_shared_compatible;
          Alcotest.test_case "exclusive conflicts" `Quick test_lock_exclusive_conflicts;
          Alcotest.test_case "upgrade" `Quick test_lock_upgrade;
          Alcotest.test_case "deadlock detection" `Quick test_lock_deadlock_detected;
          Alcotest.test_case "release unblocks" `Quick test_lock_release_unblocks;
        ] );
      ( "heap+mvcc",
        [
          Alcotest.test_case "insert/fetch" `Quick test_heap_insert_fetch;
          Alcotest.test_case "own changes visible" `Quick test_heap_own_changes_visible;
          Alcotest.test_case "aborted invisible" `Quick test_heap_aborted_invisible;
          Alcotest.test_case "delete/update versions" `Quick test_heap_delete_and_update;
          Alcotest.test_case "double delete rejected" `Quick test_heap_double_delete_rejected;
          Alcotest.test_case "time travel" `Quick test_time_travel_sees_history;
          Alcotest.test_case "scan visibility" `Quick test_scan_visibility;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery_semantics;
          Alcotest.test_case "full-page payload" `Quick test_large_payload_roundtrip;
          Alcotest.test_case "self-identifying pages verify" `Quick test_verify_clean_heap;
        ] );
      ( "media",
        [
          Alcotest.test_case "fsck detects corruption" `Quick
            test_fsck_detects_media_corruption;
        ] );
      ( "mvcc edge cases",
        [
          Alcotest.test_case "aborted delete invisible" `Quick
            test_aborted_deleter_leaves_visible;
          Alcotest.test_case "update chain history" `Quick test_update_chain_history;
          Alcotest.test_case "vacuum horizon" `Quick test_vacuum_respects_horizon;
          Alcotest.test_case "zero pages tolerated" `Quick test_scan_skips_unwritten_pages;
        ] );
      ( "vacuum",
        [
          Alcotest.test_case "discard" `Quick test_vacuum_discard;
          Alcotest.test_case "archive keeps history" `Quick
            test_vacuum_archive_preserves_time_travel;
          Alcotest.test_case "aborted garbage" `Quick test_vacuum_removes_aborted;
          Alcotest.test_case "full pass gives way to writer" `Quick
            test_vacuum_full_pass_gives_way_to_writer;
          Alcotest.test_case "step budget and cursor" `Quick
            test_vacuum_step_budget_and_cursor;
          Alcotest.test_case "step yields to writer" `Quick test_vacuum_step_yields_to_writer;
          Alcotest.test_case "step runs alongside reader" `Quick
            test_vacuum_step_runs_alongside_reader;
          Alcotest.test_case "on_remove fires exactly once" `Quick
            test_vacuum_on_remove_fires_exactly_once;
          Alcotest.test_case "archive tier is append-only" `Quick test_archive_is_append_only;
          Alcotest.test_case "torn-step duplicate collapses" `Quick
            test_archive_duplicate_collapses;
          Alcotest.test_case "lease holds the horizon" `Quick test_lease_holds_the_horizon;
        ] );
      ( "db",
        [
          Alcotest.test_case "relation catalog" `Quick test_db_relations;
          Alcotest.test_case "oid allocation" `Quick test_db_oids_unique;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "batched force accounting" `Quick
            test_group_commit_batches_forces;
          Alcotest.test_case "size and age triggers" `Quick test_status_log_group_api;
          Alcotest.test_case "Fs.sync forces a partial batch" `Quick
            test_sync_forces_partial_batch;
          Alcotest.test_case "enqueued commits survive crash" `Quick
            test_group_commit_survives_crash;
          Alcotest.test_case "create path forms groups" `Quick
            test_create_path_forms_groups;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heap_page_model;
            prop_mvcc_last_committed_wins;
            prop_time_travel_monotone_history;
          ] );
    ]
