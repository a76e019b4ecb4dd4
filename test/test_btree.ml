(* B+tree: unit tests plus qcheck properties on structural invariants. *)

let make_tree ?(klen = 8) () =
  let clock = Simclock.Clock.create () in
  let device =
    Pagestore.Device.create ~clock ~name:"d" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  let cache = Pagestore.Bufcache.create ~capacity:64 () in
  Index.Btree.create ~cache ~device ~klen

let check_ok tree =
  match Index.Btree.check_invariants tree with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violation: %s" msg

let key i = Index.Key.of_int i

let test_empty () =
  let t = make_tree () in
  Alcotest.(check int) "count" 0 (Index.Btree.count t);
  Alcotest.(check int) "height" 1 (Index.Btree.height t);
  Alcotest.(check (list int64)) "lookup" [] (Index.Btree.lookup t ~key:(key 1));
  check_ok t

let test_insert_lookup () =
  let t = make_tree () in
  for i = 0 to 99 do
    Index.Btree.insert t ~key:(key i) ~value:(Int64.of_int (i * 10))
  done;
  Alcotest.(check int) "count" 100 (Index.Btree.count t);
  for i = 0 to 99 do
    Alcotest.(check (list int64))
      (Printf.sprintf "lookup %d" i)
      [ Int64.of_int (i * 10) ]
      (Index.Btree.lookup t ~key:(key i))
  done;
  check_ok t

let test_duplicate_keys () =
  let t = make_tree () in
  List.iter
    (fun v -> Index.Btree.insert t ~key:(key 7) ~value:v)
    [ 3L; 1L; 2L ];
  Alcotest.(check (list int64)) "dups ascending" [ 1L; 2L; 3L ]
    (Index.Btree.lookup t ~key:(key 7));
  (* exact duplicate is a no-op *)
  Index.Btree.insert t ~key:(key 7) ~value:2L;
  Alcotest.(check int) "count" 3 (Index.Btree.count t);
  check_ok t

let test_split_many () =
  let t = make_tree () in
  let n = 20_000 in
  for i = 0 to n - 1 do
    Index.Btree.insert t ~key:(key i) ~value:(Int64.of_int i)
  done;
  Alcotest.(check int) "count" n (Index.Btree.count t);
  Alcotest.(check bool) "height grew" true (Index.Btree.height t > 1);
  check_ok t;
  (* spot-check lookups on both edges and middle *)
  List.iter
    (fun i ->
      Alcotest.(check (list int64))
        (Printf.sprintf "lookup %d" i)
        [ Int64.of_int i ]
        (Index.Btree.lookup t ~key:(key i)))
    [ 0; 1; n / 2; n - 2; n - 1 ]

let test_reverse_and_random_order () =
  let t = make_tree () in
  let rng = Simclock.Rng.create 42L in
  let order = Array.init 5000 (fun i -> i) in
  Simclock.Rng.shuffle rng order;
  Array.iter (fun i -> Index.Btree.insert t ~key:(key i) ~value:(Int64.of_int i)) order;
  check_ok t;
  let seen = ref [] in
  Index.Btree.iter t (fun k _ -> seen := Index.Key.to_int64 k :: !seen);
  let sorted = List.rev !seen in
  Alcotest.(check int) "all present" 5000 (List.length sorted);
  let rec ascending = function
    | a :: (b :: _ as rest) -> Int64.compare a b < 0 && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "iter sorted" true (ascending sorted)

let test_scan_range () =
  let t = make_tree () in
  for i = 0 to 999 do
    Index.Btree.insert t ~key:(key i) ~value:(Int64.of_int i)
  done;
  let acc = ref [] in
  Index.Btree.scan_range t ~lo:(key 100) ~hi:(key 110) (fun _ v -> acc := v :: !acc);
  Alcotest.(check (list int64))
    "range 100..110"
    (List.init 11 (fun i -> Int64.of_int (100 + i)))
    (List.rev !acc)

let test_delete () =
  let t = make_tree () in
  for i = 0 to 999 do
    Index.Btree.insert t ~key:(key i) ~value:(Int64.of_int i)
  done;
  Alcotest.(check bool) "delete present" true
    (Index.Btree.delete t ~key:(key 500) ~value:500L);
  Alcotest.(check bool) "delete absent" false
    (Index.Btree.delete t ~key:(key 500) ~value:500L);
  Alcotest.(check (list int64)) "gone" [] (Index.Btree.lookup t ~key:(key 500));
  Alcotest.(check int) "count" 999 (Index.Btree.count t);
  check_ok t

let test_min_max () =
  let t = make_tree () in
  Alcotest.(check bool) "empty min" true (Index.Btree.min_entry t = None);
  List.iter
    (fun i -> Index.Btree.insert t ~key:(key i) ~value:(Int64.of_int i))
    [ 42; 7; 99; 13 ];
  (match Index.Btree.min_entry t with
  | Some (k, _) -> Alcotest.(check int64) "min" 7L (Index.Key.to_int64 k)
  | None -> Alcotest.fail "min missing");
  match Index.Btree.max_entry t with
  | Some (k, _) -> Alcotest.(check int64) "max" 99L (Index.Key.to_int64 k)
  | None -> Alcotest.fail "max missing"

let test_survives_crash () =
  let clock = Simclock.Clock.create () in
  let device =
    Pagestore.Device.create ~clock ~name:"d" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  let cache = Pagestore.Bufcache.create ~capacity:64 () in
  let t = Index.Btree.create ~cache ~device ~klen:12 in
  for i = 0 to 99 do
    Index.Btree.insert t ~key:(Index.Key.of_int i ^ "xyz!") ~value:(Int64.of_int i)
  done;
  Pagestore.Bufcache.flush cache;
  Pagestore.Bufcache.crash cache;
  Index.Btree.crash t;
  Alcotest.(check int) "count survives" 100 (Index.Btree.count t);
  Alcotest.(check (list int64)) "lookup survives" [ 55L ]
    (Index.Btree.lookup t ~key:(Index.Key.of_int 55 ^ "xyz!"))

let test_key_encoding () =
  Alcotest.(check int64) "roundtrip" 123456789L (Index.Key.to_int64 (Index.Key.of_int64 123456789L));
  Alcotest.(check bool) "order preserved" true
    (String.compare (Index.Key.of_int64 5L) (Index.Key.of_int64 6L) < 0);
  Alcotest.(check bool) "big order" true
    (String.compare (Index.Key.of_int64 255L) (Index.Key.of_int64 256L) < 0);
  let k1 = Index.Key.dir_name ~parentid:10L ~name:"passwd" in
  let k2 = Index.Key.dir_name ~parentid:10L ~name:"passwd" in
  let k3 = Index.Key.dir_name ~parentid:11L ~name:"passwd" in
  Alcotest.(check string) "deterministic" k1 k2;
  Alcotest.(check bool) "parent ordered" true (String.compare k1 k3 < 0);
  Alcotest.(check bool) "within prefix bounds" true
    (String.compare (Index.Key.dir_prefix_lo ~parentid:10L) k1 <= 0
    && String.compare k1 (Index.Key.dir_prefix_hi ~parentid:10L) <= 0)

let test_klen_bounds () =
  let clock = Simclock.Clock.create () in
  let device =
    Pagestore.Device.create ~clock ~name:"d" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  let cache = Pagestore.Bufcache.create ~capacity:64 () in
  (* klen 1 and 64 work *)
  let t1 = Index.Btree.create ~cache ~device ~klen:1 in
  Index.Btree.insert t1 ~key:"a" ~value:1L;
  Alcotest.(check (list int64)) "klen 1" [ 1L ] (Index.Btree.lookup t1 ~key:"a");
  let t64 = Index.Btree.create ~cache ~device ~klen:64 in
  let k = String.make 64 'z' in
  Index.Btree.insert t64 ~key:k ~value:2L;
  Alcotest.(check (list int64)) "klen 64" [ 2L ] (Index.Btree.lookup t64 ~key:k);
  (* out of range rejected *)
  List.iter
    (fun klen ->
      Alcotest.(check bool)
        (Printf.sprintf "klen %d rejected" klen)
        true
        (try
           ignore (Index.Btree.create ~cache ~device ~klen);
           false
         with Invalid_argument _ -> true))
    [ 0; 65 ];
  (* wrong-width key rejected *)
  Alcotest.(check bool) "bad key width" true
    (try
       Index.Btree.insert t1 ~key:"ab" ~value:3L;
       false
     with Invalid_argument _ -> true)

let test_empty_range_scan () =
  let t = make_tree () in
  for i = 0 to 9 do
    Index.Btree.insert t ~key:(key (i * 10)) ~value:(Int64.of_int i)
  done;
  let acc = ref [] in
  Index.Btree.scan_range t ~lo:(key 11) ~hi:(key 19) (fun _ v -> acc := v :: !acc);
  Alcotest.(check (list int64)) "nothing in gap" [] !acc;
  (* lo > hi is just empty *)
  Index.Btree.scan_range t ~lo:(key 90) ~hi:(key 10) (fun _ v -> acc := v :: !acc);
  Alcotest.(check (list int64)) "inverted range empty" [] !acc

let test_duplicate_heavy () =
  let t = make_tree () in
  (* 2000 values under one key forces splits among duplicates *)
  for v = 0 to 1999 do
    Index.Btree.insert t ~key:(key 5) ~value:(Int64.of_int v)
  done;
  Alcotest.(check int) "all stored" 2000 (List.length (Index.Btree.lookup t ~key:(key 5)));
  check_ok t;
  (* delete one value from the middle of the duplicates *)
  Alcotest.(check bool) "targeted delete" true
    (Index.Btree.delete t ~key:(key 5) ~value:1000L);
  Alcotest.(check int) "one fewer" 1999 (List.length (Index.Btree.lookup t ~key:(key 5)));
  Alcotest.(check bool) "1000 gone" false
    (List.mem 1000L (Index.Btree.lookup t ~key:(key 5)));
  check_ok t

(* ---- the leaf chain must be the tree walk's leaves ----

   Leaf surgery through the buffer cache.  Node pages carry their magic
   (u16) at byte 0, their level (u16) at byte 2 and, on a leaf, the next
   leaf's block (u32) at byte 6. *)

let make_tree_and_cache () =
  let clock = Simclock.Clock.create () in
  let device =
    Pagestore.Device.create ~clock ~name:"d" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  let cache = Pagestore.Bufcache.create ~capacity:64 () in
  (Index.Btree.create ~cache ~device ~klen:8, cache)

let node_page cache t blkno f =
  Pagestore.Bufcache.with_page cache (Index.Btree.device t) ~segid:(Index.Btree.segid t)
    ~blkno f

let next_of cache t blkno = node_page cache t blkno (fun p -> Pagestore.Page.get_u32 p 6)

let set_next cache t blkno next =
  node_page cache t blkno (fun p -> Pagestore.Page.set_u32 p 6 next)

(* The healthy chain, head first: the one leaf no other leaf points at. *)
let leaf_chain cache t =
  let nblocks =
    Pagestore.Device.nblocks (Index.Btree.device t) (Index.Btree.segid t)
  in
  let leaves =
    List.filter
      (fun b ->
        node_page cache t b (fun p ->
            Pagestore.Page.get_u16 p 0 = 0x424E && Pagestore.Page.get_u16 p 2 = 0))
      (List.init (nblocks - 1) (fun i -> i + 1))
  in
  let nexts = List.map (next_of cache t) leaves in
  let head = List.find (fun b -> not (List.mem b nexts)) leaves in
  let rec follow b acc = if b = 0 then List.rev acc else follow (next_of cache t b) (b :: acc) in
  follow head []

let tree_of_leaves n =
  let t, cache = make_tree_and_cache () in
  for i = 0 to n - 1 do
    Index.Btree.insert t ~key:(key i) ~value:(Int64.of_int i)
  done;
  check_ok t;
  let chain = leaf_chain cache t in
  Alcotest.(check bool) "at least three leaves" true (List.length chain >= 3);
  (t, cache, chain)

let expect_broken what t =
  match Index.Btree.check_invariants t with
  | Ok () -> Alcotest.failf "check_invariants accepted %s" what
  | Error _ -> ()

(* The chain skips leaf B and re-links through a stale copy of it.  Item
   counts and global order still agree, and a lookup (which descends to
   B itself) still finds B's entries — only the leaf sequence tells. *)
let test_chain_detours_through_stale_copy () =
  let n = 1500 in
  let t, cache, chain = tree_of_leaves n in
  let a, b = (List.nth chain 0, List.nth chain 1) in
  let copy = Pagestore.Bufcache.new_block cache (Index.Btree.device t) ~segid:(Index.Btree.segid t) in
  node_page cache t b (fun pb ->
      node_page cache t copy (fun pc ->
          Bytes.blit (Pagestore.Page.raw pb) 0 (Pagestore.Page.raw pc) 0 Pagestore.Page.size));
  set_next cache t a copy;
  let seen = ref [] in
  Index.Btree.iter t (fun k _ -> seen := Index.Key.to_int64 k :: !seen);
  Alcotest.(check (list int64)) "chain still yields every entry in order"
    (List.init n Int64.of_int) (List.rev !seen);
  let in_b = node_page cache t b (fun p -> Index.Key.to_int64 (Pagestore.Page.get_string p 16 8)) in
  Alcotest.(check (list int64)) "lookup still finds B's entries" [ in_b ]
    (Index.Btree.lookup t ~key:(Index.Key.of_int64 in_b));
  expect_broken "a chain through a stale copy of a leaf" t

(* A stale next pointer closes the chain into a cycle: the audit must
   report it, not follow it forever. *)
let test_cyclic_chain_reported () =
  let t, cache, chain = tree_of_leaves 1500 in
  set_next cache t (List.nth chain (List.length chain - 1)) (List.nth chain 1);
  expect_broken "a cyclic leaf chain" t

(* A chain that ends early — the last leaves unreachable by a scan. *)
let test_truncated_chain_reported () =
  let t, cache, chain = tree_of_leaves 1500 in
  set_next cache t (List.nth chain 1) 0;
  expect_broken "a truncated leaf chain" t

(* ---- properties ---- *)

let prop_model_equivalence =
  QCheck.Test.make ~name:"btree matches sorted-assoc model" ~count:60
    QCheck.(list (pair (int_bound 500) (int_bound 3)))
    (fun ops ->
      let t = make_tree () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          let kk = key k and vv = Int64.of_int v in
          Index.Btree.insert t ~key:kk ~value:vv;
          let existing = Option.value ~default:[] (Hashtbl.find_opt model k) in
          if not (List.mem vv existing) then Hashtbl.replace model k (vv :: existing))
        ops;
      (match Index.Btree.check_invariants t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      Hashtbl.fold
        (fun k vs acc ->
          acc
          && List.sort Int64.compare vs = Index.Btree.lookup t ~key:(key k))
        model true)

let prop_delete_then_absent =
  QCheck.Test.make ~name:"insert+delete leaves tree consistent" ~count:40
    QCheck.(pair (list (int_bound 200)) (list (int_bound 200)))
    (fun (ins, del) ->
      let t = make_tree () in
      List.iter (fun k -> Index.Btree.insert t ~key:(key k) ~value:(Int64.of_int k)) ins;
      List.iter
        (fun k -> ignore (Index.Btree.delete t ~key:(key k) ~value:(Int64.of_int k) : bool))
        del;
      (match Index.Btree.check_invariants t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      List.for_all
        (fun k ->
          let expect = List.mem k ins && not (List.mem k del) in
          (Index.Btree.lookup t ~key:(key k) <> []) = expect)
        (ins @ del))

let () =
  Alcotest.run "btree"
    [
      ( "unit",
        [
          Alcotest.test_case "empty tree" `Quick test_empty;
          Alcotest.test_case "insert and lookup" `Quick test_insert_lookup;
          Alcotest.test_case "duplicate keys" `Quick test_duplicate_keys;
          Alcotest.test_case "splits at scale" `Quick test_split_many;
          Alcotest.test_case "random insertion order" `Quick test_reverse_and_random_order;
          Alcotest.test_case "range scan" `Quick test_scan_range;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "min/max entries" `Quick test_min_max;
          Alcotest.test_case "survives a crash" `Quick test_survives_crash;
          Alcotest.test_case "key encodings" `Quick test_key_encoding;
          Alcotest.test_case "klen bounds" `Quick test_klen_bounds;
          Alcotest.test_case "empty range scans" `Quick test_empty_range_scan;
          Alcotest.test_case "duplicate-heavy keys" `Quick test_duplicate_heavy;
        ] );
      ( "leaf chain",
        [
          Alcotest.test_case "detour through a stale copy" `Quick
            test_chain_detours_through_stale_copy;
          Alcotest.test_case "cycle reported" `Quick test_cyclic_chain_reported;
          Alcotest.test_case "truncated chain reported" `Quick
            test_truncated_chain_reported;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_model_equivalence; prop_delete_then_absent ] );
    ]
