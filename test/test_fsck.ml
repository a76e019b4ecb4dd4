(* The structural audit: clean baselines, detection of deliberately
   corrupted heap pages and B-tree indexes, and repair via recovery. *)

module P = Pagestore.Page
module D = Pagestore.Device
module Db = Relstore.Db
module Fs = Invfs.Fs
module Fsck = Invfs.Fsck
module Rec = Invfs.Recovery

(* Device reads fill a frame the caller passes; these tests want a fresh one. *)
let peek dev ~segid ~blkno =
  let p = Pagestore.Page.create () in
  Pagestore.Device.peek_block dev ~segid ~blkno p;
  p

let bytes_of = Bytes.of_string
let str = Bytes.to_string

let make_fs () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  ignore
    (Pagestore.Switch.add_device switch ~name:"disk0" ~kind:D.Magnetic_disk ()
      : D.t);
  let db = Relstore.Db.create ~switch ~clock () in
  Fs.make db ()

let populated () =
  let fs = make_fs () in
  let s = Fs.new_session fs in
  Fs.mkdir s "/docs";
  Fs.write_file s "/docs/report" (bytes_of "quarterly numbers");
  Fs.write_file s "/notes" (Bytes.make (Invfs.Chunk.capacity * 2) 'n');
  (fs, s)

let file_heap fs path s =
  let att = Fs.stat s path in
  let inv = Option.get (Fs.file_handle fs ~oid:att.Invfs.Fileatt.file) in
  (att, Invfs.Inv_file.heap inv)

let test_clean_baseline () =
  let fs, _ = populated () in
  let r = Fsck.audit fs in
  Alcotest.(check bool) ("clean: " ^ Fsck.report_to_string r) true (Fsck.is_clean r);
  Alcotest.(check bool) "files were checked" true (r.Fsck.files_checked >= 3)

let test_clean_after_plain_crash () =
  let fs, s = populated () in
  Fs.p_begin s;
  Fs.write_file s "/doomed" (bytes_of "never committed");
  Fs.crash fs;
  let r = Fsck.audit fs in
  Alcotest.(check bool)
    ("post-crash audit clean: " ^ Fsck.report_to_string r)
    true (Fsck.is_clean r)

let test_corrupted_heap_page_detected () =
  let fs, s = populated () in
  let att, heap = file_heap fs "/docs/report" s in
  let dev = Relstore.Heap.device heap in
  let segid = Relstore.Heap.segid heap in
  (* flip bytes in the durable image of the first non-empty heap block *)
  let corrupted = ref false in
  for blkno = 0 to Relstore.Heap.nblocks heap - 1 do
    if not !corrupted then begin
      let page = peek dev ~segid ~blkno in
      if P.to_bytes page <> Bytes.make P.size '\000' then begin
        P.set_u8 page 512 (P.get_u8 page 512 lxor 0xFF);
        D.poke_block dev ~segid ~blkno page;
        corrupted := true
      end
    end
  done;
  Alcotest.(check bool) "found a block to corrupt" true !corrupted;
  (* drop the caches so the audit reads the damaged durable image *)
  Fs.crash fs;
  let r = Fsck.audit fs in
  Alcotest.(check bool) "audit flags the damage" false (Fsck.is_clean r);
  let relname = Invfs.Inv_file.relname att.Invfs.Fileatt.file in
  Alcotest.(check bool) "problem names the relation" true
    (List.exists (fun p -> String.equal p.Fsck.relation relname) r.Fsck.problems)

let test_corrupted_index_detected_and_rebuilt () =
  let fs, s = populated () in
  let att, heap = file_heap fs "/notes" s in
  let oid = att.Invfs.Fileatt.file in
  let dev = Relstore.Heap.device heap in
  (* zero the chunk index's root (block 0) in the durable image *)
  D.poke_block dev ~segid:att.Invfs.Fileatt.index_segid ~blkno:0 (P.create ());
  (* a machine crash now: caches drop, reads hit the zeroed root *)
  Fs.crash fs;
  let inv = Option.get (Fs.file_handle fs ~oid) in
  (match (Index.Indexed.audit (Invfs.Inv_file.relation inv)).Index.Audit.indexes with
  | Ok () -> Alcotest.fail "index audit missed the zeroed root"
  | Error _ -> ());
  let audit = Fsck.audit fs in
  Alcotest.(check bool) "audit flags the index" false (Fsck.is_clean audit);
  (* whole-system recovery detects the damage and rebuilds from the heap *)
  let report = Rec.crash_and_recover fs in
  Alcotest.(check bool) "index rebuilt for the file" true
    (List.mem oid report.Rec.restart.Fs.file_indexes_rebuilt);
  Alcotest.(check bool)
    ("recovery ends clean: " ^ Rec.report_to_string report)
    true (Rec.is_clean report);
  let s = Fs.new_session fs in
  Alcotest.(check string) "contents readable through rebuilt index"
    (String.make (Invfs.Chunk.capacity * 2) 'n')
    (str (Fs.read_whole_file s "/notes"))

let test_catalog_index_rebuild () =
  let fs, s = populated () in
  Fs.write_file s "/more" (bytes_of "more data");
  (* damage the naming catalog's B-trees in memory the way a crash does,
     then let recovery prove it can rebuild them from the heap *)
  let naming = Invfs.Naming.relation (Fs.naming_catalog fs) in
  Index.Indexed.crash naming;
  (match (Index.Indexed.audit naming).Index.Audit.indexes with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "naming index dirty before damage: %s" msg);
  let report = Rec.crash_and_recover fs in
  Alcotest.(check bool)
    ("recovery clean: " ^ Rec.report_to_string report)
    true (Rec.is_clean report);
  let s = Fs.new_session fs in
  Alcotest.(check string) "namespace intact" "more data"
    (str (Fs.read_whole_file s "/more"))

(* ---- the one-pass index audit against the per-record reference ---- *)

module H = Relstore.Heap
module Tid = Relstore.Tid
module Bt = Index.Btree
module Audit = Index.Audit

exception Bad of string

(* The audit recovery ran before the one-pass version, kept here as the
   differential oracle: a second heap scan that probes each tree once per
   committed version (descend, then follow the chain), then one
   [fetch_any] per index entry. *)
let reference heap (indexes : Audit.index list) =
  let log = H.status_log heap in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let committed = ref [] in
  match
    H.scan_raw heap (fun r ->
        if Relstore.Status_log.is_committed log r.H.xmin then committed := r :: !committed)
  with
  | exception e -> Error ("heap scan failed: " ^ Printexc.to_string e)
  | () when !committed = [] -> Ok ()
  | () -> (
    try
      List.iter
        (fun (ix : Audit.index) ->
          match Bt.check_invariants ix.tree with
          | Ok () -> ()
          | Error m -> bad "%s: %s" ix.name m)
        indexes;
      List.iter
        (fun (r : H.record) ->
          List.iter
            (fun (ix : Audit.index) ->
              if not (List.mem (Tid.encode r.tid) (Bt.lookup ix.tree ~key:(ix.key_of r)))
              then bad "%s: committed version not indexed" ix.name)
            indexes)
        (List.rev !committed);
      List.iter
        (fun (ix : Audit.index) ->
          Bt.iter ix.tree (fun key v ->
              match H.fetch_any heap (Tid.decode v) with
              | None -> bad "%s: dangling index entry" ix.name
              | Some r ->
                if not (String.equal key (ix.key_of r)) then bad "%s: entry aliases" ix.name))
        indexes;
      Ok ()
    with
    | Bad m -> Error m
    | e -> Error ("index probe failed: " ^ Printexc.to_string e))

(* One audited relation, and the trees over it. *)
type audited = {
  label : string;
  heap : H.t;
  indexes : Audit.index list;
  audit : unit -> Audit.verdict;
}

let audited label rel =
  { label; heap = Index.Indexed.heap rel; indexes = Index.Indexed.indexes rel;
    audit = (fun () -> Index.Indexed.audit rel) }

let catalogs fs =
  [ audited "naming" (Invfs.Naming.relation (Fs.naming_catalog fs));
    audited "fileatt" (Invfs.Fileatt.relation (Fs.fileatt_catalog fs)) ]

let file fs path =
  let oid = Fs.lookup_oid (Fs.new_session fs) path in
  audited path (Invfs.Inv_file.relation (Option.get (Fs.file_handle fs ~oid)))

(* Every tree of the audited relations, paired with its relation. *)
let trees audited = List.concat_map (fun a -> List.map (fun ix -> (a, ix)) a.indexes) audited

let tree_name ((a : audited), (ix : Audit.index)) = a.label ^ "." ^ ix.name

(* Crash (so both audits read the durable image), run both, and fail if
   the reference finds a problem the one-pass audit misses.  Returns the
   reference's verdict. *)
let differential fs (a : audited) ~what =
  Fs.crash fs;
  let expect = reference a.heap a.indexes in
  (match (expect, (a.audit ()).Audit.indexes) with
  | Error m, Ok () ->
    Alcotest.failf "%s: the reference found %S, the one-pass audit nothing" what m
  | _ -> ());
  expect

(* ---- durable-image surgery on a tree's segment.  Every block is a
   node page, the root at block 0: the level (u16) at byte 2, a leaf's
   next leaf (u32) at byte 6 (0xFFFF_FFFF ends the chain) and an
   internal node's first child (u32) at byte 10. ---- *)

let no_block = 0xFFFF_FFFF

let seg_of (ix : Audit.index) = (Bt.device ix.tree, Bt.segid ix.tree)

let images ix =
  let dev, segid = seg_of ix in
  Array.init (D.nblocks dev segid) (fun blkno -> P.copy (peek dev ~segid ~blkno))

let put_block ix blkno page =
  let dev, segid = seg_of ix in
  D.poke_block dev ~segid ~blkno page

let restore ix imgs = Array.iteri (put_block ix) imgs

let leaves ix =
  let dev, segid = seg_of ix in
  let page blkno = peek dev ~segid ~blkno in
  let rec leftmost b = if P.get_u16 (page b) 2 = 0 then b else leftmost (P.get_u32 (page b) 10) in
  let rec chain b acc =
    if b = no_block then List.rev acc else chain (P.get_u32 (page b) 6) (b :: acc)
  in
  chain (leftmost 0) []

let set_next ix leaf next =
  let dev, segid = seg_of ix in
  let p = P.copy (peek dev ~segid ~blkno:leaf) in
  P.set_u32 p 6 next;
  put_block ix leaf p

let entries (ix : Audit.index) =
  let acc = ref [] in
  Bt.iter ix.tree (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let committed_entries (a : audited) ix =
  let log = H.status_log a.heap in
  let live = Hashtbl.create 64 in
  H.scan_raw a.heap (fun r ->
      if Relstore.Status_log.is_committed log r.H.xmin then
        Hashtbl.replace live (Tid.encode r.H.tid) ());
  List.filter (fun (_, v) -> Hashtbl.mem live v) (entries ix)

(* Tree edits through the buffer cache, then flushed to the durable image. *)
let edit fs f =
  f ();
  Pagestore.Bufcache.flush (Db.cache (Fs.db fs))

let add_entry fs ix k v = edit fs (fun () -> Bt.insert ix.Audit.tree ~key:k ~value:v)

let repoint fs ix (k, v) v' =
  edit fs (fun () ->
      ignore (Bt.delete ix.Audit.tree ~key:k ~value:v : bool);
      Bt.insert ix.Audit.tree ~key:k ~value:v')

let empty_slot_of v = Tid.encode (Tid.make ~blkno:(Tid.decode v).Tid.blkno ~slot:4000)

(* Build the audited state: 520 files in one directory and a sparse file
   of 521 one-byte chunks, enough that every tree splits.  Every op that splits a watched
   tree is torn right after it lands: each block the op changed is put
   back, one at a time, to its image from before the op (a block the op
   allocated, to zeros), and the two audits are compared.  Returns the
   file system, the watched relations and the watched trees' images from
   halfway through. *)
let populate_tearing_splits () =
  let fs = make_fs () in
  Fs.mkdir (Fs.new_session fs) "/d";
  let watched = ref (catalogs fs) in
  let torn = ref 0 and flagged = ref 0 in
  let step run =
    let before = List.map (fun t -> (t, images (snd t))) (trees !watched) in
    run ();
    List.iter
      (fun (((a, ix) as t), pre) ->
        let post = images ix in
        if Array.length post > Array.length pre then begin
          Array.iteri
            (fun blkno after ->
              let old = if blkno < Array.length pre then pre.(blkno) else P.create () in
              if P.to_bytes old <> P.to_bytes after then begin
                put_block ix blkno old;
                incr torn;
                (match differential fs a ~what:("torn split of " ^ tree_name t) with
                | Error _ -> incr flagged
                | Ok () -> ());
                restore ix post;
                Fs.crash fs
              end)
            post
        end)
      before
  in
  let half = ref [] in
  for i = 0 to 519 do
    step (fun () ->
        Fs.write_file (Fs.new_session fs) (Printf.sprintf "/d/f%03d" i)
          (bytes_of (string_of_int i)));
    if i = 260 then half := List.map (fun (_, ix) -> (Bt.segid ix.Audit.tree, images ix)) (trees !watched)
  done;
  Fs.write_file (Fs.new_session fs) "/sparse" (bytes_of "s");
  watched := !watched @ [ file fs "/sparse" ];
  step (fun () ->
      let s = Fs.new_session fs in
      Fs.with_transaction s (fun () ->
          let fd = Fs.p_open s "/sparse" Fs.Rdwr in
          for i = 1 to 520 do
            ignore (Fs.p_lseek s fd (Int64.of_int (i * Invfs.Chunk.capacity)) Fs.Seek_set : int64);
            ignore (Fs.p_write s fd (bytes_of "s") 1 : int)
          done;
          Fs.p_close s fd));
  Alcotest.(check bool) "every watched tree split at least once" true (!torn >= 8);
  Alcotest.(check bool) "the reference flags torn splits" true (!flagged > 0);
  Fs.crash fs;
  (fs, !watched @ [ file fs "/d/f007" ], !half)

(* Built once: each test below leaves the trees as it found them. *)
let audit_fixture = lazy (populate_tearing_splits ())

let check_baseline fs watched =
  List.iter
    (fun a ->
      match differential fs a ~what:a.label with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: unmutated state flagged: %s" a.label m)
    watched

(* Run [mutate] on one tree, require both audits to flag it, put the
   tree back. *)
let directed fs t ~what mutate =
  let a, ix = t in
  let saved = images ix in
  mutate ();
  (match differential fs a ~what:(what ^ " on " ^ tree_name t) with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s on %s: the reference missed it" what (tree_name t));
  restore ix saved;
  Fs.crash fs

let test_audit_directed_mutations () =
  let fs, watched, _ = Lazy.force audit_fixture in
  check_baseline fs watched;
  List.iter
    (fun ((a, ix) as t) ->
      let live = committed_entries a ix in
      let ((k, v) as e) = List.nth live (List.length live / 2) in
      directed fs t ~what:"zeroed root" (fun () -> put_block ix 0 (P.create ()));
      directed fs t ~what:"dropped entry" (fun () ->
          edit fs (fun () -> ignore (Bt.delete ix.Audit.tree ~key:k ~value:v : bool)));
      (* the next two leave every committed version indexed: only the
         entry-to-record direction can see them *)
      directed fs t ~what:"extra entry at an empty slot" (fun () ->
          add_entry fs ix k (empty_slot_of v));
      (match List.find_opt (fun (k', _) -> not (String.equal k k')) live with
      | Some (_, v') ->
        directed fs t ~what:"extra entry at another key's slot" (fun () ->
            add_entry fs ix k v');
        directed fs t ~what:"entry moved to another key's slot" (fun () ->
            repoint fs ix e v')
      | None -> ());
      match leaves ix with
      | first :: _ :: rest ->
        (* the first leaf still points where it did before its right
           sibling was split off *)
        let stale = match rest with third :: _ -> third | [] -> no_block in
        directed fs t ~what:"stale next pointer" (fun () -> set_next ix first stale)
      | _ -> ())
    (trees watched);
  check_baseline fs watched

let test_audit_random_mutations () =
  let fs, watched, half = Lazy.force audit_fixture in
  let trees = Array.of_list (trees watched) in
  let flagged = ref 0 in
  for seed = 1 to 120 do
    let rng = Simclock.Rng.create (Int64.of_int seed) in
    let pick l = List.nth l (Simclock.Rng.int rng (List.length l)) in
    let ((a, ix) as t) = trees.(Simclock.Rng.int rng (Array.length trees)) in
    let saved = images ix in
    let nblocks = Array.length saved in
    let kind =
      pick
        [ "zero root"; "drop entry"; "empty slot"; "other key"; "stale next"; "flip byte";
          "stale page" ]
    in
    (match kind with
    | "zero root" -> put_block ix 0 (P.create ())
    | "drop entry" ->
      let k, v = pick (entries ix) in
      edit fs (fun () -> ignore (Bt.delete ix.Audit.tree ~key:k ~value:v : bool))
    | "empty slot" | "other key" ->
      let ((k, v) as e) = pick (entries ix) in
      let target =
        if kind = "other key" then snd (pick (entries ix))
        else
          Tid.encode
            (Tid.make ~blkno:(Tid.decode v).Tid.blkno
               ~slot:(2000 + Simclock.Rng.int rng 1000))
      in
      if Simclock.Rng.bool rng then repoint fs ix e target else add_entry fs ix k target
    | "stale next" ->
      (* any block, the one past the segment, or the end of the chain *)
      let b = Simclock.Rng.int rng (nblocks + 2) in
      set_next ix (pick (leaves ix)) (if b = nblocks + 1 then no_block else b)
    | "flip byte" ->
      let blkno = Simclock.Rng.int rng nblocks in
      let p = P.copy saved.(blkno) in
      let off = Simclock.Rng.int rng P.size in
      P.set_u8 p off (P.get_u8 p off lxor (1 + Simclock.Rng.int rng 255));
      put_block ix blkno p
    | _ ->
      let blkno = Simclock.Rng.int rng nblocks in
      let old =
        match List.assoc_opt (Bt.segid ix.Audit.tree) half with
        | Some imgs when blkno < Array.length imgs -> imgs.(blkno)
        | Some _ | None -> P.create ()
      in
      put_block ix blkno old);
    (match differential fs a ~what:(Printf.sprintf "seed %d: %s on %s" seed kind (tree_name t)) with
    | Error _ -> incr flagged
    | Ok () -> ());
    restore ix saved;
    Fs.crash fs
  done;
  Alcotest.(check bool) "most mutations are real damage" true (!flagged > 60);
  check_baseline fs watched

(* ---- the cross-shard placement walk (pure: inputs built by hand) ----

   Two shards, four buckets: bucket = oid mod 4, owner = 1 + (bucket mod
   2).  oids 0,2 -> shard 1; oids 1,3 -> shard 2. *)

let audit ?(owner = [| 1; 2; 1; 2 |]) ?(handoff = []) ?(drops = []) ~named ~resident
    () =
  Fsck.cross_shard_audit ~nshards:2 ~owner ~handoff ~drops
    ~bucket_of:(fun oid -> Int64.to_int (Int64.rem oid 4L))
    ~named ~resident

let problems r = List.map (fun p -> p.Fsck.relation) r.Fsck.sh_problems

let test_shard_audit_clean () =
  let r =
    audit ~named:[ 0L; 1L; 2L; 7L ]
      ~resident:[ (1, Some [ 0L; 2L ]); (2, Some [ 1L; 7L ]) ]
      ()
  in
  Alcotest.(check bool) ("clean: " ^ Fsck.shard_report_to_string r) true
    (Fsck.is_shard_clean r);
  Alcotest.(check int) "files" 4 r.Fsck.sh_files_checked;
  Alcotest.(check int) "copies" 4 r.Fsck.sh_copies_checked;
  (* a never-written file (no copy anywhere) is legitimate *)
  let r = audit ~named:[ 0L ] ~resident:[ (1, Some []); (2, Some []) ] () in
  Alcotest.(check bool) "empty file clean" true (Fsck.is_shard_clean r)

let test_shard_audit_stray_and_missing () =
  (* oid 0 belongs on shard 1 but only shard 2 holds it: one stray copy
     on shard 2, one missing-from-authority on shard 1 *)
  let r = audit ~named:[ 0L ] ~resident:[ (1, Some []); (2, Some [ 0L ]) ] () in
  Alcotest.(check bool) "unclean" false (Fsck.is_shard_clean r);
  Alcotest.(check (list string)) "both sides named" [ "shard1"; "shard2" ]
    (List.sort compare (problems r));
  (* the same copy excused by an in-flight handoff whose source is 2:
     bucket 0 moving 2 -> 1, map already points at 1 *)
  let r =
    audit ~handoff:[ (0, 2, 1) ] ~named:[ 0L ]
      ~resident:[ (1, Some []); (2, Some [ 0L ]) ]
      ()
  in
  Alcotest.(check bool) ("handoff source is authority: " ^ Fsck.shard_report_to_string r)
    true (Fsck.is_shard_clean r);
  (* ...and by a queued drop once the migration committed *)
  let r =
    audit ~drops:[ (0, 2) ] ~named:[ 0L ]
      ~resident:[ (1, Some [ 0L ]); (2, Some [ 0L ]) ]
      ()
  in
  Alcotest.(check bool) "queued drop excuses the stale copy" true
    (Fsck.is_shard_clean r)

let test_shard_audit_degraded_not_unclean () =
  (* shard 2 unreachable: its files cannot be audited — degraded shape,
     reported but clean, exactly like a dead unmirrored device *)
  let r = audit ~named:[ 0L; 1L ] ~resident:[ (1, Some [ 0L ]); (2, None) ] () in
  Alcotest.(check bool) ("degraded is clean: " ^ Fsck.shard_report_to_string r) true
    (Fsck.is_shard_clean r);
  Alcotest.(check (list string)) "reported unreachable" [ "shard2" ]
    r.Fsck.sh_unreachable;
  Alcotest.(check int) "only reachable copies counted" 1 r.Fsck.sh_copies_checked

let test_shard_audit_malformed_map () =
  let r =
    audit
      ~owner:[| 1; 9; 1; 2 |] (* bucket 1 owned by a shard that does not exist *)
      ~handoff:[ (2, 1, 1) ] (* self-handoff *)
      ~named:[] ~resident:[ (1, Some []); (2, Some []) ] ()
  in
  Alcotest.(check bool) "unclean" false (Fsck.is_shard_clean r);
  Alcotest.(check bool) "all problems are the map's" true
    (List.for_all (( = ) "placement") (problems r))


(* Insert, update, migration's copy, the vacuum's index maintenance and
   the rebuild all derive keys from each tree's one declaration, so after
   creates, overwrites, a rename, an unlink, an aborted write and an
   archive vacuum every tree holds exactly the entries a rebuild from
   its heap puts there. *)
let test_maintained_trees_equal_rebuilt () =
  let fs, s = populated () in
  Fs.write_file s "/a" (bytes_of "alpha");
  Fs.write_file s "/b" (Bytes.make (Invfs.Chunk.capacity + 10) 'b');
  for i = 1 to 3 do
    Fs.write_file s "/a" (bytes_of (Printf.sprintf "alpha %d" i))
  done;
  Fs.write_file s "/notes" (bytes_of "short");
  Fs.rename s "/a" "/docs/a";
  Fs.unlink s "/b";
  Fs.p_begin s;
  Fs.write_file s "/docs/report" (bytes_of "never committed");
  Fs.write_file s "/c" (bytes_of "never created");
  Fs.p_abort s;
  Simclock.Clock.advance (Relstore.Db.clock (Fs.db fs)) 1.;
  let st = Fs.vacuum_all fs ~mode:`Archive () in
  Alcotest.(check bool) "vacuum archived" true (st.Relstore.Vacuum.archived > 0);
  let rels =
    ref
      [ ("naming", Invfs.Naming.relation (Fs.naming_catalog fs));
        ("fileatt", Invfs.Fileatt.relation (Fs.fileatt_catalog fs)) ]
  in
  Fs.iter_file_handles fs (fun oid inv ->
      rels := (Invfs.Inv_file.relname oid, Invfs.Inv_file.relation inv) :: !rels);
  Alcotest.(check bool) "several file tables" true (List.length !rels >= 7);
  let sorted ix = List.sort compare (entries ix) in
  List.iter
    (fun (label, rel) ->
      let maintained = List.map sorted (Index.Indexed.indexes rel) in
      Index.Indexed.rebuild rel;
      List.iter2
        (fun (ix : Audit.index) before ->
          Alcotest.(check (list (pair string int64)))
            (Printf.sprintf "%s.%s" label ix.name) (sorted ix) before)
        (Index.Indexed.indexes rel) maintained)
    !rels

(* ---- archive-tier (WORM) audit ---- *)

let populated_with_history () =
  (* overwrite a file enough times, then vacuum incrementally, so the
     audit has real archived versions to walk *)
  let fs, s = populated () in
  for i = 1 to 6 do
    Fs.write_file s "/docs/report" (bytes_of (Printf.sprintf "draft %d" i))
  done;
  Simclock.Clock.advance (Relstore.Db.clock (Fs.db fs)) 1.;
  let archived = ref 0 in
  for _ = 1 to 64 do
    match Fs.vacuum_step fs ~pages:4 ~mode:`Archive () with
    | Some (_, st) -> archived := !archived + st.Relstore.Vacuum.s_archived
    | None -> ()
  done;
  Alcotest.(check bool) "history actually migrated to the WORM tier" true (!archived > 0);
  (fs, s)

(* A nonempty archive some relation owns, found through the registry of
   what the file system made. *)
let arch_heap fs =
  let nonempty h =
    let some = ref false in
    Relstore.Heap.scan_raw h (fun _ -> some := true);
    !some
  in
  List.find_map
    (fun rel ->
      let arch = Index.Indexed.archive rel in
      if Lazy.is_val arch && nonempty (Lazy.force arch) then Some (Lazy.force arch) else None)
    (Fs.relations fs)
  |> Option.get

let test_archive_audit_clean () =
  let fs, _ = populated_with_history () in
  let r = Fsck.audit fs in
  Alcotest.(check bool) ("clean: " ^ Fsck.report_to_string r) true (Fsck.is_clean r);
  Alcotest.(check bool) "archived versions were audited" true (r.Fsck.archived_checked > 0);
  (* the verdict string surfaces the archive walk *)
  let rs = Fsck.report_to_string r in
  let has_needle =
    let needle = "archived versions" in
    let nl = String.length needle and l = String.length rs in
    let rec go i = i + nl <= l && (String.sub rs i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("report mentions the archive tier: " ^ rs) true has_needle

let test_archive_audit_detects_live_version () =
  (* a record with no deleter on write-once storage means the vacuum (or
     a bug wearing its clothes) moved a version readers may still need *)
  let fs, _ = populated_with_history () in
  let arch = arch_heap fs in
  let donor =
    let r = ref None in
    Relstore.Heap.scan_raw arch (fun rec_ -> if !r = None then r := Some rec_);
    Option.get !r
  in
  ignore
    (Relstore.Heap.append_raw arch ~oid:donor.Relstore.Heap.oid
       ~xmin:donor.Relstore.Heap.xmin ~xmax:Relstore.Xid.invalid
       donor.Relstore.Heap.payload
      : Relstore.Tid.t);
  let r = Fsck.audit fs in
  Alcotest.(check bool) "audit flags the live archived version" false (Fsck.is_clean r);
  Alcotest.(check bool) "problem names the WORM tier" true
    (List.exists
       (fun p ->
         let d = p.Fsck.detail in
         String.length d >= 12 && String.sub d 0 12 = "live version")
       r.Fsck.problems)

let test_archive_audit_detects_uncommitted_deleter () =
  let fs, _ = populated_with_history () in
  let arch = arch_heap fs in
  let db = Fs.db fs in
  let donor =
    let r = ref None in
    Relstore.Heap.scan_raw arch (fun rec_ -> if !r = None then r := Some rec_);
    Option.get !r
  in
  (* stamp the copy with a deleter that is still in progress *)
  let open_txn = Db.begin_txn db in
  ignore
    (Relstore.Heap.append_raw arch ~oid:donor.Relstore.Heap.oid
       ~xmin:donor.Relstore.Heap.xmin
       ~xmax:(Relstore.Txn.xid open_txn)
       donor.Relstore.Heap.payload
      : Relstore.Tid.t);
  let r = Fsck.audit fs in
  Relstore.Txn.abort open_txn;
  Alcotest.(check bool) "audit flags the undecided deleter" false (Fsck.is_clean r)

(* The state a migration that dropped its file's archive left behind: a
   file's archived history in an archive relation that the file does not
   own, so no [As_of] read reaches it.  The audit must name that
   relation; every version in it has committed stamps, so the WORM walk
   alone finds nothing wrong. *)
let test_unowned_archive_flagged () =
  let fs, s = populated () in
  let db = Fs.db fs in
  let advance () = Simclock.Clock.advance (Db.clock db) 1. in
  advance ();
  let t_report = Db.now db in
  advance ();
  Fs.write_file s "/docs/report" (bytes_of "revised numbers");
  advance ();
  let oid = Fs.lookup_oid s "/docs/report" in
  let inv = Option.get (Fs.file_handle fs ~oid) in
  let heap = Invfs.Inv_file.heap inv in
  let stray = Db.archive db heap in
  let st =
    Db.vacuum db ~relation:(Relstore.Heap.name heap) ~mode:(`Archive stray)
      ~on_remove:(Invfs.Inv_file.on_vacuum inv) ()
  in
  Alcotest.(check bool) "history archived" true (st.Relstore.Vacuum.archived > 0);
  Alcotest.(check bool) "out of reach of As_of reads" false
    (str (Fs.read_whole_file s ~timestamp:t_report "/docs/report") = "quarterly numbers");
  let r = Fsck.audit fs in
  Alcotest.(check bool) "audit not clean" false (Fsck.is_clean r);
  let unowned = Relstore.Heap.name (Lazy.force stray) in
  Alcotest.(check (list string)) "the unowned archive is the problem" [ unowned ]
    (List.sort_uniq compare (List.map (fun p -> p.Fsck.relation) r.Fsck.problems))

let () =
  Alcotest.run "fsck"
    [
      ( "baselines",
        [
          Alcotest.test_case "clean on a healthy tree" `Quick test_clean_baseline;
          Alcotest.test_case "clean after a plain crash" `Quick
            test_clean_after_plain_crash;
        ] );
      ( "damage",
        [
          Alcotest.test_case "corrupted heap page detected" `Quick
            test_corrupted_heap_page_detected;
          Alcotest.test_case "corrupted index detected and rebuilt" `Quick
            test_corrupted_index_detected_and_rebuilt;
          Alcotest.test_case "catalog indexes recover" `Quick test_catalog_index_rebuild;
        ] );
      ( "index audit",
        [
          Alcotest.test_case "directed mutations match the reference" `Quick
            test_audit_directed_mutations;
          Alcotest.test_case "seeded mutations match the reference" `Quick
            test_audit_random_mutations;
          Alcotest.test_case "maintained trees equal a rebuild" `Quick
            test_maintained_trees_equal_rebuilt;
        ] );
      ( "archive tier",
        [
          Alcotest.test_case "clean WORM walk after vacuum" `Quick
            test_archive_audit_clean;
          Alcotest.test_case "live version on WORM flagged" `Quick
            test_archive_audit_detects_live_version;
          Alcotest.test_case "uncommitted deleter on WORM flagged" `Quick
            test_archive_audit_detects_uncommitted_deleter;
          Alcotest.test_case "archive no relation owns flagged" `Quick
            test_unowned_archive_flagged;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "clean placement walk" `Quick test_shard_audit_clean;
          Alcotest.test_case "stray and missing copies flagged" `Quick
            test_shard_audit_stray_and_missing;
          Alcotest.test_case "unreachable shard degrades, not unclean" `Quick
            test_shard_audit_degraded_not_unclean;
          Alcotest.test_case "malformed map flagged" `Quick
            test_shard_audit_malformed_map;
        ] );
    ]
