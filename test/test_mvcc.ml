(* Property-based MVCC visibility: random interleavings of
   begin/write/delete/commit/abort across three concurrent transaction
   slots — with budgeted increments of the concurrent archive vacuum
   spliced in between ops — checked against a brute-force oracle
   computed from the operation history alone (which transaction
   inserted and deleted each record, and what its status was at each
   instant).

   Each slot writes its own relation so three transactions can hold
   their exclusive locks simultaneously — the interleaving exercised
   here is of *visibility* state, which is exactly what the paper's
   status-file design claims needs no write-ahead log to get right.
   The vacuum op must be invisible in every oracle comparison: records
   whose deleter committed below the safe horizon migrate to the
   archive tier but keep answering [As_of] scans, and nothing above
   the horizon moves at all.

   Shrinking is by prefix: an op sequence that fails keeps failing as
   its shortest failing prefix, which is the readable repro. *)

module Db = Relstore.Db
module Heap = Relstore.Heap
module Txn = Relstore.Txn
module Snapshot = Relstore.Snapshot

type op = Begin of int | Write of int | Delete of int | Commit of int | Abort of int | Vacuum

let op_of_int i =
  if i >= 15 then Vacuum
  else
    let slot = i / 5 in
    match i mod 5 with
    | 0 -> Begin slot
    | 1 -> Write slot
    | 2 -> Delete slot
    | 3 -> Commit slot
    | _ -> Abort slot

let op_to_string = function
  | Begin s -> Printf.sprintf "begin@%d" s
  | Write s -> Printf.sprintf "write@%d" s
  | Delete s -> Printf.sprintf "delete@%d" s
  | Commit s -> Printf.sprintf "commit@%d" s
  | Abort s -> Printf.sprintf "abort@%d" s
  | Vacuum -> "vacuum"

(* the oracle's view of one inserted record *)
type version = {
  v_oid : int64;
  v_slot : int;
  v_tid : Relstore.Tid.t;
  v_xmin : int;
  mutable v_xmax : int option;  (** xid that last stamped a delete *)
}

type status = Active | Done_commit of int64 | Done_abort

let run_scenario ops =
  let clock = Simclock.Clock.create () in
  let db = Db.create ~clock () in
  let rels =
    Array.init 3 (fun i ->
        let heap = Db.create_relation db ~name:(Printf.sprintf "r%d" i) () in
        Index.Indexed.create heap ~archive:(Db.archive db heap) [])
  in
  let txns = Array.make 3 None in
  let statuses : (int, status) Hashtbl.t = Hashtbl.create 16 in
  let versions = ref [] in
  let next_oid = ref 1L in
  (* horizons: (timestamp, unit) captured after every op *)
  let horizons = ref [] in
  (* a delete already stamped on [v] still blocks re-deletion unless it
     aborted — mirrors [Heap.delete]'s "already deleted" guard *)
  let delete_stands ~self v =
    match v.v_xmax with
    | None -> false
    | Some x -> x = self || Hashtbl.find_opt statuses x <> Some Done_abort
  in
  let step op =
    (match op with
    | Begin slot ->
      if txns.(slot) = None then begin
        let t = Db.begin_txn db in
        Hashtbl.replace statuses (Txn.xid t) Active;
        txns.(slot) <- Some t
      end
    | Write slot -> (
      match txns.(slot) with
      | None -> ()
      | Some t ->
        let oid = !next_oid in
        next_oid := Int64.add oid 1L;
        let tid = Heap.insert (Index.Indexed.heap rels.(slot)) t ~oid (Bytes.make 24 'v') in
        versions :=
          { v_oid = oid; v_slot = slot; v_tid = tid; v_xmin = Txn.xid t; v_xmax = None }
          :: !versions)
    | Delete slot -> (
      match txns.(slot) with
      | None -> ()
      | Some t ->
        (* oldest record in this slot's relation that t can see and that
           no standing delete already claims *)
        let self = Txn.xid t in
        let victim =
          List.find_opt
            (fun v ->
              v.v_slot = slot
              && (v.v_xmin = self
                 || match Hashtbl.find_opt statuses v.v_xmin with
                    | Some (Done_commit _) -> true
                    | _ -> false)
              && not (delete_stands ~self v))
            (List.rev !versions)
        in
        match victim with
        | None -> ()
        | Some v ->
          Heap.delete (Index.Indexed.heap rels.(slot)) t v.v_tid;
          v.v_xmax <- Some self)
    | Commit slot -> (
      match txns.(slot) with
      | None -> ()
      | Some t ->
        let ts = Txn.commit t in
        Hashtbl.replace statuses (Txn.xid t) (Done_commit ts);
        txns.(slot) <- None)
    | Abort slot -> (
      match txns.(slot) with
      | None -> ()
      | Some t ->
        Txn.abort t;
        Hashtbl.replace statuses (Txn.xid t) Done_abort;
        txns.(slot) <- None)
    | Vacuum ->
      (* one budgeted increment per relation; a skip (foreground writer
         holds the relation) is a legal outcome and changes nothing *)
      Array.iteri
        (fun i rel ->
          ignore
            (Db.vacuum_step db
               ~relation:(Printf.sprintf "r%d" i)
               ~mode:(`Archive (Index.Indexed.archive rel)) ~pages:1 ()
              : Relstore.Vacuum.step_stats))
        rels);
    (* a strictly-later instant than anything the op just did *)
    Simclock.Clock.advance clock ~account:"test.step" 1.0;
    horizons := Db.now db :: !horizons
  in
  List.iter step ops;
  (db, rels, txns, statuses, List.rev !versions, List.rev !horizons)

let scan_oids rels snap =
  let acc = ref [] in
  Array.iter
    (fun rel -> Index.Indexed.scan rel snap (fun r -> acc := r.Heap.oid :: !acc))
    rels;
  List.sort Int64.compare !acc

let committed_by statuses xid horizon =
  match Hashtbl.find_opt statuses xid with
  | Some (Done_commit ts) -> ts <= horizon
  | _ -> false

let expected_as_of statuses versions horizon =
  List.filter_map
    (fun v ->
      if
        committed_by statuses v.v_xmin horizon
        && not (match v.v_xmax with Some x -> committed_by statuses x horizon | None -> false)
      then Some v.v_oid
      else None)
    versions
  |> List.sort Int64.compare

let expected_current statuses versions ~self =
  let committed xid = match Hashtbl.find_opt statuses xid with
    | Some (Done_commit _) -> true
    | _ -> false
  in
  List.filter_map
    (fun v ->
      let inserted = committed v.v_xmin || v.v_xmin = self in
      let deleted =
        match v.v_xmax with Some x -> committed x || x = self | None -> false
      in
      if inserted && not deleted then Some v.v_oid else None)
    versions
  |> List.sort Int64.compare

let show_oids l = String.concat "," (List.map Int64.to_string l)

let prop_visibility codes =
  let ops = List.map op_of_int codes in
  let db, rels, txns, statuses, versions, horizons = run_scenario ops in
  (* 1. time travel: every captured horizon sees exactly the records
        whose inserter had committed — and whose deleter had not — by
        then, no matter how much of the history the vacuum has since
        migrated to the archive tier *)
  List.iter
    (fun horizon ->
      let got = scan_oids rels (Snapshot.As_of horizon) in
      let want = expected_as_of statuses versions horizon in
      if got <> want then
        QCheck.Test.fail_reportf
          "as-of %Ld mismatch\n  ops: %s\n  oracle: [%s]\n  scan:   [%s]" horizon
          (String.concat " " (List.map op_to_string ops))
          (show_oids want) (show_oids got))
    horizons;
  (* 2. each still-active transaction sees every committed record plus
        its own uncommitted writes and minus its own uncommitted deletes
        — and nothing from aborted or other in-progress transactions *)
  Array.iter
    (fun slot_txn ->
      match slot_txn with
      | None -> ()
      | Some t ->
        let got = scan_oids rels (Txn.snapshot t) in
        let want = expected_current statuses versions ~self:(Txn.xid t) in
        if got <> want then
          QCheck.Test.fail_reportf
            "current(xid=%d) mismatch\n  ops: %s\n  oracle: [%s]\n  scan:   [%s]"
            (Txn.xid t)
            (String.concat " " (List.map op_to_string ops))
            (show_oids want) (show_oids got))
    txns;
  (* 3. a fresh observer that writes nothing sees exactly the committed set *)
  let observer = Db.begin_txn db in
  let got = scan_oids rels (Txn.snapshot observer) in
  let want = expected_current statuses versions ~self:(-1) in
  Txn.abort observer;
  if got <> want then
    QCheck.Test.fail_reportf
      "observer mismatch\n  ops: %s\n  oracle: [%s]\n  scan:   [%s]"
      (String.concat " " (List.map op_to_string ops))
      (show_oids want) (show_oids got);
  true

(* op sequences over 3 slots x 5 op kinds plus the vacuum op (codes
   15-17, so the vacuum fires in ~1/6 of slots), shrunk by prefix only
   (a failing sequence stays a *sequence* — dropping middle ops would
   change every later op's meaning) *)
let arb_ops =
  let gen = QCheck.Gen.(list_size (int_bound 40) (int_bound 17)) in
  let shrink l yield =
    let n = List.length l in
    if n > 0 then begin
      let prefix k = List.filteri (fun i _ -> i < k) l in
      yield (prefix (n / 2));
      yield (prefix (n - 1))
    end
  in
  QCheck.make ~print:QCheck.Print.(list int) ~shrink gen

let prop_mvcc =
  QCheck.Test.make ~name:"random interleavings match the status-log oracle" ~count:150
    arb_ops prop_visibility

(* One directed scenario pinning down the sharpest cases: an aborted
   writer's records never appear, an in-progress writer's records are
   private, and a crash-free commit is visible from its timestamp on. *)
let test_directed () =
  let db = Db.create () in
  let rel = Db.create_relation db ~name:"d" () in
  (* committed write *)
  let t1 = Db.begin_txn db in
  ignore (Heap.insert rel t1 ~oid:1L (Bytes.make 8 'a') : Relstore.Tid.t);
  let ts1 = Txn.commit t1 in
  (* aborted write *)
  let t2 = Db.begin_txn db in
  ignore (Heap.insert rel t2 ~oid:2L (Bytes.make 8 'b') : Relstore.Tid.t);
  Txn.abort t2;
  (* in-progress write *)
  let t3 = Db.begin_txn db in
  ignore (Heap.insert rel t3 ~oid:3L (Bytes.make 8 'c') : Relstore.Tid.t);
  let collect snap =
    let acc = ref [] in
    Heap.scan rel snap (fun r -> acc := r.Heap.oid :: !acc);
    List.sort Int64.compare !acc
  in
  Alcotest.(check (list int64)) "observer sees only the commit" [ 1L ]
    (collect (Snapshot.Current (Txn.xid (Db.begin_txn db))));
  Alcotest.(check (list int64)) "writer sees its own uncommitted row" [ 1L; 3L ]
    (collect (Txn.snapshot t3));
  Alcotest.(check (list int64)) "as-of the commit instant" [ 1L ]
    (collect (Snapshot.As_of ts1));
  Alcotest.(check (list int64)) "as-of before the commit" []
    (collect (Snapshot.As_of (Int64.sub ts1 1L)));
  Txn.abort t3

(* Directed vacuum splice: a committed-then-deleted record crosses the
   safe horizon, a vacuum increment migrates it to the archive tier,
   and every pre-captured horizon still reads exactly what it read
   before the vacuum ran. *)
let test_vacuum_preserves_horizons () =
  let clock = Simclock.Clock.create () in
  let db = Db.create ~clock () in
  let rel = Db.create_relation db ~name:"r0" () in
  let with_archive = Index.Indexed.create rel ~archive:(Db.archive db rel) [] in
  let t1 = Db.begin_txn db in
  ignore (Heap.insert rel t1 ~oid:1L (Bytes.make 8 'a') : Relstore.Tid.t);
  ignore (Txn.commit t1 : int64);
  Simclock.Clock.advance clock 1.0;
  let h_alive = Db.now db in
  Simclock.Clock.advance clock 1.0;
  let t2 = Db.begin_txn db in
  let tid =
    let found = ref None in
    Heap.scan rel (Txn.snapshot t2) (fun r -> found := Some r.Heap.tid);
    Option.get !found
  in
  Heap.delete rel t2 tid;
  ignore (Txn.commit t2 : int64);
  Simclock.Clock.advance clock 1.0;
  let h_dead = Db.now db in
  Simclock.Clock.advance clock 1.0;
  let collect h =
    let acc = ref [] in
    Index.Indexed.scan with_archive (Snapshot.As_of h) (fun r -> acc := r.Heap.oid :: !acc);
    List.sort Int64.compare !acc
  in
  Alcotest.(check (list int64)) "alive before the vacuum" [ 1L ] (collect h_alive);
  let archived = ref 0 and wrapped = ref false in
  while not !wrapped do
    let st =
      Db.vacuum_step db ~relation:"r0"
        ~mode:(`Archive (Index.Indexed.archive with_archive)) ~pages:1 ()
    in
    archived := !archived + st.Relstore.Vacuum.s_archived;
    wrapped := st.Relstore.Vacuum.s_wrapped
  done;
  Alcotest.(check int) "the dead version migrated" 1 !archived;
  Alcotest.(check (list int64)) "below the horizon: still alive" [ 1L ] (collect h_alive);
  Alcotest.(check (list int64)) "above the delete: still gone" [] (collect h_dead)

(* ---- key tests: testing in place is testing the copies ----

   A scan's key test runs on each record in its page and copies out only
   the records it passes.  Over random histories of one relation —
   inserts, updates, deletes, aborted writers, budgeted archive vacuum
   steps that kill and compact slots, and torn vacuum steps that leave a
   version in both heaps and twice in the archive — [Indexed.scan ~where]
   must hand over exactly the records, in the same order, that the
   unfiltered scan followed by the same test on the copies hands over,
   under a current snapshot and at every [As_of] horizon.

   Payloads are an 8-byte key then a short name, so the tests below
   reach the record header, a payload integer and the payload's tail. *)

module HP = Relstore.Heap_page

let names = [| "n1"; "n1x"; "xn1"; "" |]

let key_tests =
  let tail (r : Heap.record) =
    Bytes.sub_string r.payload 8 (Bytes.length r.payload - 8)
  in
  [
    ("oid 3", (fun v -> HP.oid_is v 3L), fun (r : Heap.record) -> Int64.equal r.oid 3L);
    ( "payload key 2",
      (fun v -> HP.payload_i64_is v ~at:0 2L),
      fun (r : Heap.record) -> Int64.equal (Bytes.get_int64_le r.payload 0) 2L );
    ("payload tail n1", (fun v -> HP.payload_ends_with v ~at:8 "n1"), fun r -> tail r = "n1");
    ( "payload length 10",
      (fun v -> HP.payload_length v = 10),
      fun r -> Bytes.length r.payload = 10 );
    ("nothing", (fun _ -> false), fun _ -> false);
  ]

let prop_key_test_filters_copies codes =
  let clock = Simclock.Clock.create () in
  let db = Db.create ~clock () in
  let heap = Db.create_relation db ~name:"k" () in
  let archive = Db.archive db heap in
  let rel = Index.Indexed.create heap ~archive [] in
  let txn = ref None and next_oid = ref 1L and horizons = ref [] in
  let payload n =
    let name = names.(n mod Array.length names) in
    let b = Bytes.create (8 + String.length name) in
    Bytes.set_int64_le b 0 (Int64.of_int (n mod 4));
    Bytes.blit_string name 0 b 8 (String.length name);
    b
  in
  let first_visible t =
    let hit = ref None in
    Heap.scan heap (Txn.snapshot t) (fun r -> if !hit = None then hit := Some r);
    !hit
  in
  let writer () =
    match !txn with
    | Some t -> t
    | None ->
      let t = Db.begin_txn db in
      txn := Some t;
      t
  in
  let step code =
    let n = code / 12 in
    (match code mod 12 with
    | 0 | 1 | 2 | 3 ->
      let oid = !next_oid in
      next_oid := Int64.add oid 1L;
      ignore (Heap.insert heap (writer ()) ~oid (payload n) : Relstore.Tid.t)
    | 4 ->
      let t = writer () in
      Option.iter
        (fun (r : Heap.record) -> ignore (Heap.update heap t r.tid (payload n) : Relstore.Tid.t))
        (first_visible t)
    | 5 ->
      let t = writer () in
      Option.iter (fun (r : Heap.record) -> Heap.delete heap t r.tid) (first_visible t)
    | 6 | 7 ->
      Option.iter (fun t -> ignore (Txn.commit t : int64)) !txn;
      txn := None
    | 8 ->
      Option.iter Txn.abort !txn;
      txn := None
    | 9 | 10 ->
      (* Gives way while the writer is open. *)
      ignore
        (Db.vacuum_step db ~relation:"k" ~mode:(`Archive archive) ~pages:1 ()
          : Relstore.Vacuum.step_stats)
    | _ ->
      (* A torn vacuum step: the version is archived (twice, as a re-run
         would) but never killed in the main heap. *)
      let versions = ref [] in
      Heap.scan_raw heap (fun r -> versions := r :: !versions);
      (match List.rev !versions with
      | [] -> ()
      | vs ->
        let (r : Heap.record) = List.nth vs (n mod List.length vs) in
        for _ = 1 to 2 do
          ignore
            (Heap.append_raw (Lazy.force archive) ~oid:r.oid ~xmin:r.xmin ~xmax:r.xmax r.payload
              : Relstore.Tid.t)
        done));
    Simclock.Clock.advance clock ~account:"test.step" 1.0;
    horizons := Db.now db :: !horizons
  in
  List.iter step codes;
  let check label snap =
    List.iter
      (fun (name, where, test) ->
        let got = ref [] and want = ref [] in
        Index.Indexed.scan ~where rel snap (fun r -> got := r :: !got);
        Index.Indexed.scan rel snap (fun r -> if test r then want := r :: !want);
        if !got <> !want then
          QCheck.Test.fail_reportf
            "%s, key test %s: %d records in place, %d from the copies\n  ops: %s"
            label name (List.length !got) (List.length !want)
            (String.concat " " (List.map string_of_int codes)))
      key_tests
  in
  Option.iter (fun t -> check "writer's snapshot" (Txn.snapshot t)) !txn;
  let observer = Db.begin_txn db in
  check "observer's snapshot" (Txn.snapshot observer);
  Txn.abort observer;
  List.iter (fun h -> check (Printf.sprintf "as-of %Ld" h) (Snapshot.As_of h)) !horizons;
  true

let prop_key_test =
  QCheck.Test.make ~name:"key test in place matches the test on copies" ~count:150
    QCheck.(make ~print:Print.(list int) Gen.(list_size (int_bound 80) (int_bound 95)))
    prop_key_test_filters_copies

let () =
  Alcotest.run "mvcc"
    [
      ( "visibility",
        [
          Alcotest.test_case "directed corner cases" `Quick test_directed;
          Alcotest.test_case "vacuum splice preserves horizons" `Quick
            test_vacuum_preserves_horizons;
          QCheck_alcotest.to_alcotest prop_mvcc;
          QCheck_alcotest.to_alcotest prop_key_test;
        ] );
    ]
