(* Whole-system crash recovery: the status-log and Db recovery
   primitives, directed crashes at the nastiest moments (mid-commit,
   mid-multi-chunk-write, many open sessions), time travel across a
   recovery, and the seeded differential harness. *)

module D = Pagestore.Device
module SL = Relstore.Status_log
module Db = Relstore.Db
module Fs = Invfs.Fs
module Rec = Invfs.Recovery
module F = Faultsim
module CT = Benchlib.Crashtest

(* Device reads fill a frame the caller passes; these tests want a fresh one. *)
let peek dev ~segid ~blkno =
  let p = Pagestore.Page.create () in
  Pagestore.Device.peek_block dev ~segid ~blkno p;
  p

let bytes_of = Bytes.of_string
let str = Bytes.to_string

let make_fs ?(devices = [ ("disk0", D.Magnetic_disk) ]) () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  List.iter
    (fun (name, kind) -> ignore (Pagestore.Switch.add_device switch ~name ~kind () : D.t))
    devices;
  let db = Relstore.Db.create ~switch ~clock () in
  Fs.make db ()

let armed_fs ?devices () =
  let fs = make_fs ?devices () in
  let plan = F.create () in
  F.arm_switch plan (Db.switch (Fs.db fs));
  F.arm_cache plan (Db.cache (Fs.db fs));
  (fs, plan)

let recover_clean fs =
  let r = Rec.crash_and_recover fs in
  Alcotest.(check bool)
    ("recovery clean: " ^ Rec.report_to_string r)
    true (Rec.is_clean r);
  r

(* ---- Status_log ---- *)

let test_status_log_recover_aborts_and_advances () =
  let clock = Simclock.Clock.create () in
  let log = SL.create ~clock in
  let x1 = SL.begin_txn log in
  let x2 = SL.begin_txn log in
  let x3 = SL.begin_txn log in
  ignore (SL.commit log x2 : int64);
  SL.crash_recover log;
  Alcotest.(check bool) "x1 aborted" true (SL.state log x1 = SL.Aborted);
  Alcotest.(check bool) "x3 aborted" true (SL.state log x3 = SL.Aborted);
  Alcotest.(check bool) "x2 still committed" true (SL.is_committed log x2);
  Alcotest.(check (list int)) "nothing active" [] (SL.active log)

let test_status_log_never_reuses_xids () =
  let clock = Simclock.Clock.create () in
  let log = SL.create ~clock in
  let xids = List.init 5 (fun _ -> SL.begin_txn log) in
  let high = List.fold_left max 0 xids in
  SL.crash_recover log;
  let fresh = SL.begin_txn log in
  Alcotest.(check bool) "fresh xid above every pre-crash xid" true (fresh > high);
  (* were an old xid reused, its Aborted verdict would leak onto the new
     transaction's records — the classic recovery bug *)
  Alcotest.(check bool) "fresh xid is live" true (SL.state log fresh = SL.In_progress)

(* ---- Db ---- *)

let test_db_crash_and_recover () =
  let db = Db.create () in
  let heap = Db.create_relation db ~name:"r" () in
  Db.with_txn db (fun txn ->
      ignore (Relstore.Heap.insert heap txn ~oid:1L (bytes_of "durable") : Relstore.Tid.t));
  let txn = Db.begin_txn db in
  ignore (Relstore.Heap.insert heap txn ~oid:2L (bytes_of "doomed") : Relstore.Tid.t);
  let doomed_xid = Relstore.Txn.xid txn in
  let rolled_back = SL.active (Db.status_log db) in
  Db.crash db;
  let page_problems = Db.verify_relations db in
  Alcotest.(check (list int)) "in-flight txn rolled back" [ doomed_xid ] rolled_back;
  Alcotest.(check int) "no page damage" 0 (List.length page_problems);
  let seen = ref [] in
  Relstore.Heap.scan (Db.find_relation db "r")
    (Relstore.Snapshot.As_of (Db.now db))
    (fun r -> seen := str r.Relstore.Heap.payload :: !seen);
  Alcotest.(check (list string)) "only the committed record" [ "durable" ] !seen

(* ---- directed crashes ---- *)

let test_crash_during_commit_flush () =
  let fs, plan = armed_fs () in
  let s = Fs.new_session fs in
  Fs.write_file s "/stable" (bytes_of "pre-existing");
  Fs.p_begin s;
  let fd = Fs.p_creat s "/big" in
  (* three chunks' worth, so the commit flush spans several page writes *)
  let payload = Bytes.make (Invfs.Chunk.capacity * 3) 'x' in
  ignore (Fs.p_write s fd payload (Bytes.length payload) : int);
  Fs.p_close s fd;
  F.schedule plan ~io:F.Write ~after:2 F.Crash;
  (match Fs.p_commit s with
  | () -> Alcotest.fail "expected the commit flush to crash"
  | exception D.Crash_injected _ -> ());
  F.clear_schedule plan;
  ignore (recover_clean fs : Rec.report);
  let s = Fs.new_session fs in
  Alcotest.(check bool) "uncommitted file gone" false (Fs.exists s "/big");
  Alcotest.(check string) "committed file intact" "pre-existing"
    (str (Fs.read_whole_file s "/stable"));
  (* the system keeps working: the same name can be created and committed *)
  Fs.write_file s "/big" (bytes_of "second try");
  Alcotest.(check string) "post-recovery write works" "second try"
    (str (Fs.read_whole_file s "/big"))

let test_crash_mid_multichunk_autocommit () =
  let fs, plan = armed_fs () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" (bytes_of "original contents");
  F.schedule plan ~io:F.Write ~after:2 F.Crash;
  let overwrite = Bytes.make (Invfs.Chunk.capacity * 3) 'y' in
  (match Fs.write_file s "/f" overwrite with
  | () -> Alcotest.fail "expected the auto-commit write to crash"
  | exception D.Crash_injected _ -> ());
  F.clear_schedule plan;
  ignore (recover_clean fs : Rec.report);
  let s = Fs.new_session fs in
  Alcotest.(check string) "atomic: old contents survive whole" "original contents"
    (str (Fs.read_whole_file s "/f"))

(* The full vacuum pass archives history crash-safely: one file written
   three times on a disk plus a WORM jukebox, then an archive [vacuum_all]
   and a sync, crashed at each device write in turn.  Every restart is
   clean, and the first version still reads back [As_of] its time. *)
let test_crash_during_archive_vacuum_all () =
  let old_bytes = Bytes.make 100 'a' in
  let rec crash_on k =
    let fs, plan =
      armed_fs ~devices:[ ("disk0", D.Magnetic_disk); ("jukebox", D.Worm_jukebox) ] ()
    in
    let s = Fs.new_session fs in
    let advance () = Simclock.Clock.advance (Fs.clock fs) 1. in
    Fs.write_file s "/f" old_bytes;
    advance ();
    let t_old = Db.now (Fs.db fs) in
    advance ();
    Fs.write_file s "/f" (Bytes.make 100 'b');
    Fs.write_file s "/f" (Bytes.make 100 'c');
    advance ();
    F.schedule plan ~io:F.Write ~after:k F.Crash;
    match
      ignore (Fs.vacuum_all fs ~mode:`Archive () : Relstore.Vacuum.stats);
      Fs.sync fs
    with
    | () -> k - 1
    | exception D.Crash_injected _ ->
      F.clear_schedule plan;
      ignore (recover_clean fs : Rec.report);
      let s = Fs.new_session fs in
      Alcotest.(check bytes)
        (Printf.sprintf "crash at write %d: the first version reads back" k)
        old_bytes
        (Fs.read_whole_file s ~timestamp:t_old "/f");
      Alcotest.(check bytes)
        (Printf.sprintf "crash at write %d: the current version intact" k)
        (Bytes.make 100 'c') (Fs.read_whole_file s "/f");
      crash_on (k + 1)
  in
  Alcotest.(check bool) "the vacuum and sync span several writes" true (crash_on 1 > 3)

(* A root split of a file's chunk tree, crashed at each device store of
   the flush that lands it.  One chunk written 511 times fills the root
   leaf (511 items of klen 8); the 512th version splits it, and block 0
   becomes the internal root over a copy of the old leaf and its new
   sibling.  Every restart is clean, and some rebuild the torn tree;
   every version reads back [As_of] its time, and the current contents
   are the last committed version. *)
let test_crash_during_chunk_root_split () =
  let leaf_cap = 511 in
  let rebuilt = ref 0 in
  let version i = Bytes.of_string (Printf.sprintf "version %03d" i) in
  let rec crash_on k =
    let fs, plan = armed_fs () in
    let s = Fs.new_session fs in
    let stamps =
      Array.init leaf_cap (fun i ->
          Fs.write_file s "/f" (version i);
          Simclock.Clock.advance (Fs.clock fs) 1.;
          Db.now (Fs.db fs))
    in
    let oid = Fs.lookup_oid s "/f" in
    let tree () = Invfs.Inv_file.index (Option.get (Fs.file_handle fs ~oid)) in
    Alcotest.(check int) "the root leaf is full" leaf_cap (Index.Btree.count (tree ()));
    Alcotest.(check int) "height before the split" 1 (Index.Btree.height (tree ()));
    F.schedule plan ~io:F.Write ~after:k F.Crash;
    match Fs.write_file s "/f" (version leaf_cap) with
    | () ->
      (* past the last store the split is whole on disk: a restart
         finds nothing to rebuild *)
      let r = recover_clean fs in
      Alcotest.(check (list int64)) "no index rebuilt" [] r.Rec.restart.Fs.file_indexes_rebuilt;
      Alcotest.(check int) "height after the split" 2 (Index.Btree.height (tree ()));
      let s = Fs.new_session fs in
      Alcotest.(check bytes) "the splitting version reads back" (version leaf_cap)
        (Fs.read_whole_file s "/f");
      k - 1
    | exception D.Crash_injected _ ->
      F.clear_schedule plan;
      let r = recover_clean fs in
      if r.Rec.restart.Fs.file_indexes_rebuilt <> [] then incr rebuilt;
      Alcotest.(check bool)
        (Printf.sprintf "crash at write %d: the audit is clean" k)
        true
        (Invfs.Fsck.is_clean (Invfs.Fsck.audit fs));
      let s = Fs.new_session fs in
      Array.iteri
        (fun i ts ->
          Alcotest.(check bytes)
            (Printf.sprintf "crash at write %d: version %d reads back" k i)
            (version i)
            (Fs.read_whole_file s ~timestamp:ts "/f"))
        stamps;
      let current = Fs.read_whole_file s "/f" in
      Alcotest.(check bool)
        (Printf.sprintf "crash at write %d: the current version is the last committed" k)
        true
        (Bytes.equal current (version (leaf_cap - 1)) || Bytes.equal current (version leaf_cap));
      crash_on (k + 1)
  in
  Alcotest.(check bool) "the split's flush spans several writes" true (crash_on 1 > 3);
  Alcotest.(check bool) "some crash tears the chunk tree" true (!rebuilt > 0)

(* ---- no replay: committed index entries are already on disk ---- *)

(* A writing commit flushes its heap and index pages before its status
   entry is logged, so a commit whose batch force has not yet been paid
   is still whole on disk: restart aborts the in-flight and audits the
   dirty-marked relations, and finds nothing to rebuild. *)
let test_unforced_batch_needs_no_replay () =
  let fs = make_fs () in
  let s = Fs.new_session fs in
  Fs.write_file s "/unforced.txt" (bytes_of "committed, batch unforced");
  Alcotest.(check bool) "batch still unforced" true
    (SL.pending_force (Db.status_log (Fs.db fs)) > 0);
  let check_recovered label =
    let r = recover_clean fs in
    Alcotest.(check (list string)) (label ^ ": no catalog rebuilt") []
      r.Rec.restart.Fs.catalogs_rebuilt;
    Alcotest.(check (list int64)) (label ^ ": no file index rebuilt") []
      r.Rec.restart.Fs.file_indexes_rebuilt;
    let s = Fs.new_session fs in
    Alcotest.(check string) (label ^ ": file reachable by name") "committed, batch unforced"
      (str (Fs.read_whole_file s "/unforced.txt"))
  in
  check_recovered "first crash";
  (* no sync in between: the second restart sees the same disk *)
  check_recovered "second crash"

let test_crash_with_multiple_open_sessions () =
  let fs, _plan = armed_fs () in
  let setup = Fs.new_session fs in
  Fs.write_file setup "/a" (bytes_of "a v1");
  let s1 = Fs.new_session fs
  and s2 = Fs.new_session fs
  and s3 = Fs.new_session fs in
  Fs.p_begin s1;
  Fs.write_file s1 "/a" (bytes_of "a v2, uncommitted");
  Fs.write_file s2 "/b" (bytes_of "b committed");
  Fs.p_begin s3;
  let fd = Fs.p_creat s3 "/c" in
  ignore (Fs.p_write s3 fd (bytes_of "c uncommitted") 13 : int);
  Fs.p_close s3 fd;
  let report = recover_clean fs in
  Alcotest.(check int) "both open transactions rolled back" 2
    (List.length report.Rec.restart.Fs.rolled_back);
  let s = Fs.new_session fs in
  Alcotest.(check string) "s1's txn rolled back" "a v1" (str (Fs.read_whole_file s "/a"));
  Alcotest.(check string) "s2's auto-commit survived" "b committed"
    (str (Fs.read_whole_file s "/b"));
  Alcotest.(check bool) "s3's create rolled back" false (Fs.exists s "/c")

(* ---- time travel across a recovery ---- *)

let test_time_travel_survives_recovery () =
  let fs, _plan = armed_fs () in
  let advance dt = Simclock.Clock.advance (Fs.clock fs) ~account:"test" dt in
  let s = Fs.new_session fs in
  Fs.write_file s "/doc" (bytes_of "version one");
  advance 1.0;
  let t1 = Db.now (Fs.db fs) in
  advance 1.0;
  Fs.write_file s "/doc" (bytes_of "version two");
  advance 1.0;
  let t2 = Db.now (Fs.db fs) in
  advance 1.0;
  Fs.p_begin s;
  Fs.write_file s "/doc" (bytes_of "version three, doomed");
  ignore (recover_clean fs : Rec.report);
  let s = Fs.new_session fs in
  Alcotest.(check string) "current = last committed" "version two"
    (str (Fs.read_whole_file s "/doc"));
  Alcotest.(check string) "as-of t1 unharmed" "version one"
    (str (Fs.read_whole_file s ~timestamp:t1 "/doc"));
  Alcotest.(check string) "as-of t2 unharmed" "version two"
    (str (Fs.read_whole_file s ~timestamp:t2 "/doc"));
  (* and history written after recovery stacks on top *)
  advance 1.0;
  Fs.write_file s "/doc" (bytes_of "version four");
  Alcotest.(check string) "post-recovery history" "version two"
    (str (Fs.read_whole_file s ~timestamp:t2 "/doc"));
  Alcotest.(check string) "new current" "version four" (str (Fs.read_whole_file s "/doc"))

(* ---- the differential harness ---- *)

let fixed_seeds = [ 1L; 2L; 3L; 5L; 7L; 11L; 13L; 17L; 42L; 1993L ]

let extra_seeds () =
  match Sys.getenv_opt "CRASH_SEEDS" with
  | None | Some "" -> []
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun tok -> Int64.of_string_opt (String.trim tok))

let test_harness_seed seed () =
  let o = CT.run ~seed () in
  Alcotest.(check (list string))
    (Printf.sprintf "seed %Ld proves out (%s)" seed (CT.outcome_to_string o))
    [] o.CT.mismatches;
  Alcotest.(check bool) "workload crashed at least once" true (o.CT.crashes > 0);
  Alcotest.(check bool) "workload applied real operations" true (o.CT.ops_applied > 50)

(* ---- recovery reads each page once ---- *)

(* A file whose heap outgrows both the OS cache and the buffer pool: a
   second pass over it (or a fetch per index entry) has to go back to the
   disk.  A store of one of its blocks (its own image, poked back) marks
   it, so restart audits it; recovery's device reads must stay within one
   read of every block the device holds. *)
let test_recovery_reads_each_page_once () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let dev = Pagestore.Switch.add_device switch ~name:"disk0" ~kind:D.Magnetic_disk () in
  let db = Db.create ~cache_capacity:32 ~os_cache_blocks:64 ~switch ~clock () in
  let fs = Fs.make db () in
  let s = Fs.new_session fs in
  Fs.write_file s "/big" (Bytes.make (Invfs.Chunk.capacity * 200) 'r');
  let inv = Option.get (Fs.file_handle fs ~oid:(Fs.lookup_oid s "/big")) in
  let heap = Invfs.Inv_file.heap inv in
  Alcotest.(check bool) "heap larger than OS cache and pool" true
    (Relstore.Heap.nblocks heap > 64 + 32);
  let segid = Relstore.Heap.segid heap in
  D.poke_block dev ~segid ~blkno:0 (peek dev ~segid ~blkno:0);
  let every_block =
    List.fold_left (fun acc segid -> acc + D.nblocks dev segid) 0 (D.segments dev)
  in
  let before = D.reads dev in
  let r = Fs.crash_and_recover fs in
  let reads = D.reads dev - before in
  Alcotest.(check int) "no page problems" 0 (List.length r.Fs.page_problems);
  Alcotest.(check (list string)) "the marked file audited"
    [ Relstore.Heap.name heap ] r.Fs.relations_audited;
  Alcotest.(check (list int64)) "no index rebuilt" [] r.Fs.file_indexes_rebuilt;
  Alcotest.(check bool)
    (Printf.sprintf "%d device reads for %d blocks" reads every_block)
    true (reads <= every_block);
  Alcotest.(check bytes) "file intact" (Bytes.make (Invfs.Chunk.capacity * 200) 'r')
    (Fs.read_whole_file (Fs.new_session fs) "/big")

(* After a sync no store is in flight, so no relation is marked and
   restart reads nothing.  The full pass ({!Invfs.Fsck.audit}) still
   reads every block: a relation's trees are allocated before its first
   heap block, and extents grow with their segment, so the
   trees-then-heap audit streams from one small file into the next with
   almost no arm repositioning, and exactly one device read per block. *)
let test_recovery_streams_small_files () =
  let fs = make_fs () in
  let dev = Pagestore.Switch.find (Db.switch (Fs.db fs)) "disk0" in
  let clock = Fs.clock fs in
  let s = Fs.new_session fs in
  for i = 1 to 200 do
    Fs.write_file s (Printf.sprintf "/f%03d" i) (Bytes.make 600 'x')
  done;
  Fs.sync fs;
  let reads0 = D.reads dev in
  let r = Fs.crash_and_recover fs in
  Alcotest.(check int) "restart after a sync reads nothing" 0 (D.reads dev - reads0);
  Alcotest.(check (list string)) "no relation audited" [] r.Fs.relations_audited;
  let rotate0 = Simclock.Clock.charged clock "disk.rotate" and reads0 = D.reads dev in
  let a = Invfs.Fsck.audit fs in
  let repositionings =
    int_of_float
      (Float.round
         ((Simclock.Clock.charged clock "disk.rotate" -. rotate0)
         /. (D.rz58.D.rotation_s /. 2.)))
  in
  Alcotest.(check bool) ("audit clean: " ^ Invfs.Fsck.report_to_string a) true
    (Invfs.Fsck.is_clean a);
  Alcotest.(check bool)
    (Printf.sprintf "%d repositionings" repositionings)
    true (repositionings <= 20);
  (* The streaming saves arm movement, never reads: every block is read
     exactly once. *)
  let every_block =
    List.fold_left (fun acc segid -> acc + D.nblocks dev segid) 0 (D.segments dev)
  in
  Alcotest.(check int) "one device read per block" every_block (D.reads dev - reads0)

(* Files whose heaps never got a block hold no version, so their chunk
   indexes are moot: the full audit reads none of their index blocks and
   says nothing about them. *)
let test_moot_trees_stay_unread () =
  let fs = make_fs () in
  let dev = Pagestore.Switch.find (Db.switch (Fs.db fs)) "disk0" in
  let s = Fs.new_session fs in
  let index_segid fd =
    Invfs.Inv_file.index_segid (Option.get (Fs.file_handle fs ~oid:(Fs.fd_oid s fd)))
  in
  Fs.write_file s "/full" (bytes_of "data");
  let fd = Fs.p_creat s "/empty" in
  let empty = index_segid fd in
  Fs.p_close s fd;
  Fs.p_begin s;
  let fd = Fs.p_creat s "/aborted" in
  let aborted = index_segid fd in
  Fs.p_close s fd;
  Fs.p_abort s;
  let read_segids = ref [] in
  D.set_fault_hook dev
    (Some
       (fun io ~segid ~blkno:_ ->
         if io = D.Io_read then read_segids := segid :: !read_segids;
         None));
  Fs.crash fs;
  let a = Invfs.Fsck.audit fs in
  D.set_fault_hook dev None;
  Alcotest.(check bool) "audit read something" true (!read_segids <> []);
  Alcotest.(check bool) "empty file's index unread" false (List.mem empty !read_segids);
  Alcotest.(check bool) "aborted file's index unread" false (List.mem aborted !read_segids);
  Alcotest.(check bool) ("audit clean: " ^ Invfs.Fsck.report_to_string a) true
    (Invfs.Fsck.is_clean a);
  Alcotest.(check (list string)) "nothing degraded" [] a.Invfs.Fsck.degraded

(* ---- dirty marks: every store path marks what it writes ----

   A crash can tear only a relation with a store since the last complete
   flush; restart audits exactly the relations whose heap or tree
   segments are marked.  One test per store path: the relation must come
   out marked and audited, and rebuilt where the crash left it damaged.
   [recover_clean] also runs the full audit, so a torn relation restart
   skipped would fail it. *)

let disk fs name = Pagestore.Switch.find (Db.switch (Fs.db fs)) name

let handle fs s path = Option.get (Fs.file_handle fs ~oid:(Fs.lookup_oid s path))

let heap_segid inv = Relstore.Heap.segid (Invfs.Inv_file.heap inv)

(* The relation whose heap or one of whose trees is [segid] on disk0. *)
let owner fs segid =
  let rels =
    ref
      [ Invfs.Naming.relation (Fs.naming_catalog fs);
        Invfs.Fileatt.relation (Fs.fileatt_catalog fs) ]
  in
  Fs.iter_file_handles fs (fun _ inv -> rels := Invfs.Inv_file.relation inv :: !rels);
  match
    List.find_opt
      (fun rel ->
        Relstore.Heap.segid (Index.Indexed.heap rel) = segid
        || List.exists
             (fun (ix : Index.Audit.index) -> Index.Btree.segid ix.tree = segid)
             (Index.Indexed.indexes rel))
      !rels
  with
  | Some rel -> Relstore.Heap.name (Index.Indexed.heap rel)
  | None -> Alcotest.failf "segment %d belongs to no relation" segid

let check_audited (r : Rec.report) rel =
  Alcotest.(check bool)
    (Printf.sprintf "%s audited (%s)" rel
       (String.concat "," r.Rec.restart.Fs.relations_audited))
    true
    (List.mem rel r.Rec.restart.Fs.relations_audited)

(* Committed two-chunk files /f and /g, both overwritten by an open
   transaction that is ready to commit. *)
let committed_then_overwritten fs =
  let s = Fs.new_session fs in
  List.iter (fun path -> Fs.write_file s path (Bytes.make (Invfs.Chunk.capacity * 2) 'a'))
    [ "/f"; "/g" ];
  Fs.p_begin s;
  List.iter (fun path -> Fs.write_file s path (Bytes.make (Invfs.Chunk.capacity * 3) 'b'))
    [ "/f"; "/g" ];
  s

let check_committed_contents fs =
  Alcotest.(check bytes) "the committed contents survive"
    (Bytes.make (Invfs.Chunk.capacity * 2) 'a')
    (Fs.read_whole_file (Fs.new_session fs) "/f")

(* Crash on each write of the commit flush in turn: the write that never
   landed marked its segment first.  Then tear the flush's write of /f's
   chunk index and crash on the next one (/g's): restart rebuilds it. *)
let test_mark_commit_flush_crash () =
  let rec crash_on n segs =
    let fs, plan = armed_fs () in
    let s = committed_then_overwritten fs in
    F.schedule plan ~io:F.Write ~after:n F.Crash;
    match Fs.p_commit s with
    | () -> List.rev segs
    | exception D.Crash_injected { segid; _ } ->
      F.clear_schedule plan;
      Alcotest.(check bool) (Printf.sprintf "write %d: segment marked" n) true
        (D.is_marked (disk fs "disk0") ~segid);
      let rel = owner fs segid in
      check_audited (recover_clean fs) rel;
      check_committed_contents fs;
      crash_on (n + 1) ((n, segid) :: segs)
  in
  let segs = crash_on 1 [] in
  Alcotest.(check bool) "the flush spans several writes" true (List.length segs > 3);
  let fs, plan = armed_fs () in
  let s = committed_then_overwritten fs in
  let inv = handle fs s "/f" in
  let index_write =
    match List.find_opt (fun (_, segid) -> segid = Invfs.Inv_file.index_segid inv) segs with
    | Some (n, _) -> n
    | None -> Alcotest.fail "the flush never wrote the chunk index"
  in
  F.schedule plan ~io:F.Write ~after:index_write (F.Torn 64);
  F.schedule plan ~io:F.Write ~after:(index_write + 1) F.Crash;
  (match Fs.p_commit s with
  | () -> Alcotest.fail "expected the commit flush to crash"
  | exception D.Crash_injected _ -> ());
  F.clear_schedule plan;
  let r = recover_clean fs in
  check_audited r (Invfs.Inv_file.relname (Invfs.Inv_file.oid inv));
  Alcotest.(check (list int64)) "the torn index rebuilt" [ Invfs.Inv_file.oid inv ]
    r.Rec.restart.Fs.file_indexes_rebuilt;
  check_committed_contents fs

(* A pool too small for the transaction steals its dirty heap pages:
   eviction stores them, and only a complete flush would clear the
   mark. *)
let test_mark_eviction_steal () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let dev = Pagestore.Switch.add_device switch ~name:"disk0" ~kind:D.Magnetic_disk () in
  let db = Db.create ~cache_capacity:16 ~os_cache_blocks:16 ~switch ~clock () in
  let fs = Fs.make db () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" (Bytes.make (Invfs.Chunk.capacity * 2) 'a');
  let segid = heap_segid (handle fs s "/f") in
  Alcotest.(check bool) "the commit cleared the mark" false (D.is_marked dev ~segid);
  let evictions = (Pagestore.Bufcache.stats (Db.cache db)).Pagestore.Bufcache.s_evictions in
  Fs.p_begin s;
  Fs.write_file s "/f" (Bytes.make (Invfs.Chunk.capacity * 40) 'b');
  Alcotest.(check bool) "the pool stole pages" true
    ((Pagestore.Bufcache.stats (Db.cache db)).Pagestore.Bufcache.s_evictions > evictions);
  Alcotest.(check bool) "heap marked" true (D.is_marked dev ~segid);
  check_audited (recover_clean fs) (owner fs segid);
  check_committed_contents fs

(* Flushing the chunk index's segment stores the tree while the heap
   page its new entry points at is still only in the pool: at the crash
   the entry dangles, and restart rebuilds the index. *)
let test_mark_write_through () =
  let fs = make_fs () in
  let dev = disk fs "disk0" in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" (Bytes.make (Invfs.Chunk.capacity * 2) 'a');
  let inv = handle fs s "/f" in
  Fs.p_begin s;
  Fs.write_file s "/f" (Bytes.make (Invfs.Chunk.capacity * 3) 'b');
  Pagestore.Bufcache.flush_segment (Db.cache (Fs.db fs)) dev
    ~segid:(Invfs.Inv_file.index_segid inv);
  Alcotest.(check bool) "tree marked" true
    (D.is_marked dev ~segid:(Invfs.Inv_file.index_segid inv));
  Alcotest.(check bool) "heap still dirty, unmarked" false
    (D.is_marked dev ~segid:(heap_segid inv));
  let r = recover_clean fs in
  check_audited r (Invfs.Inv_file.relname (Invfs.Inv_file.oid inv));
  Alcotest.(check (list int64)) "the dangling index rebuilt" [ Invfs.Inv_file.oid inv ]
    r.Rec.restart.Fs.file_indexes_rebuilt;
  check_committed_contents fs

let mirrored_fs () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  ignore (Pagestore.Switch.add_device switch ~name:"disk0" ~kind:D.Magnetic_disk () : D.t);
  ignore (Pagestore.Switch.add_device switch ~name:"disk1" ~kind:D.Magnetic_disk () : D.t);
  Pagestore.Switch.mirror switch ~primary:"disk0" ~secondary:"disk1";
  let fs = Fs.make (Db.create ~switch ~clock ()) () in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" (Bytes.make (Invfs.Chunk.capacity * 2) 'a');
  let segid = heap_segid (handle fs s "/f") in
  Fs.crash fs;
  Alcotest.(check bool) "nothing marked at rest" false (D.is_marked (disk fs "disk0") ~segid);
  (fs, segid)

(* A read that fails over to the mirror repairs the primary in place:
   that repair is a store. *)
let test_mark_failover_repair () =
  let fs, segid = mirrored_fs () in
  let dev = disk fs "disk0" in
  D.rot_block dev ~segid ~blkno:0;
  check_committed_contents fs;
  Alcotest.(check bool) "the repair marked the primary" true (D.is_marked dev ~segid);
  check_audited (recover_clean fs) (owner fs segid)

(* The scrubber refreshes a rotten mirror copy from the primary: a mark
   on either copy makes restart audit the relation. *)
let test_mark_scrub_repair () =
  let fs, segid = mirrored_fs () in
  let dev = disk fs "disk0" in
  let mdev, msegid = Option.get (D.segment_mirror dev ~segid) in
  D.rot_block mdev ~segid:msegid ~blkno:0;
  let stats = Pagestore.Scrub.run (Db.switch (Fs.db fs)) in
  Alcotest.(check int) "the scrubber repaired the copy" 1 stats.Pagestore.Scrub.repaired;
  Alcotest.(check bool) "the mirror copy marked" true (D.is_marked mdev ~segid:msegid);
  Alcotest.(check bool) "the primary unmarked" false (D.is_marked dev ~segid);
  check_audited (recover_clean fs) (owner fs segid);
  check_committed_contents fs

let test_harness_deterministic () =
  let a = CT.run ~seed:42L () and b = CT.run ~seed:42L () in
  Alcotest.(check string) "identical outcomes for identical seeds"
    (CT.outcome_to_string a) (CT.outcome_to_string b)

let () =
  let harness_cases =
    List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "seed %Ld" seed) `Quick (test_harness_seed seed))
      (fixed_seeds @ extra_seeds ())
  in
  Alcotest.run "crash_recovery"
    [
      ( "status log",
        [
          Alcotest.test_case "recover aborts in-flight" `Quick
            test_status_log_recover_aborts_and_advances;
          Alcotest.test_case "xids never reused" `Quick test_status_log_never_reuses_xids;
        ] );
      ("db", [ Alcotest.test_case "crash_and_recover" `Quick test_db_crash_and_recover ]);
      ( "directed crashes",
        [
          Alcotest.test_case "mid-commit flush" `Quick test_crash_during_commit_flush;
          Alcotest.test_case "mid multi-chunk auto write" `Quick
            test_crash_mid_multichunk_autocommit;
          Alcotest.test_case "multiple open sessions" `Quick
            test_crash_with_multiple_open_sessions;
          Alcotest.test_case "unforced batch, no replay" `Quick
            test_unforced_batch_needs_no_replay;
          Alcotest.test_case "chunk-tree root split at every write" `Quick
            test_crash_during_chunk_root_split;
          Alcotest.test_case "archive vacuum_all at every write" `Quick
            test_crash_during_archive_vacuum_all;
        ] );
      ( "page reads",
        [
          Alcotest.test_case "recovery reads each page once" `Quick
            test_recovery_reads_each_page_once;
          Alcotest.test_case "recovery streams small files" `Quick
            test_recovery_streams_small_files;
          Alcotest.test_case "moot trees stay unread" `Quick test_moot_trees_stay_unread;
        ] );
      ( "dirty marks",
        [
          Alcotest.test_case "crash mid commit flush" `Quick test_mark_commit_flush_crash;
          Alcotest.test_case "eviction steal" `Quick test_mark_eviction_steal;
          Alcotest.test_case "index write-through" `Quick test_mark_write_through;
          Alcotest.test_case "failover repair" `Quick test_mark_failover_repair;
          Alcotest.test_case "scrub mirror repair" `Quick test_mark_scrub_repair;
        ] );
      ( "time travel",
        [
          Alcotest.test_case "as-of reads survive recovery" `Quick
            test_time_travel_survives_recovery;
        ] );
      ( "differential harness",
        Alcotest.test_case "deterministic" `Quick test_harness_deterministic
        :: harness_cases );
    ]
