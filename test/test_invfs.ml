(* The Inversion file system: chunking, compression, the p_* interface,
   transactions, time travel, crash recovery, queries, migration, fsck. *)

module Fs = Invfs.Fs
module E = Invfs.Errors
module V = Postquel.Value

let make_fs ?(devices = [ ("disk0", Pagestore.Device.Magnetic_disk) ]) () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  List.iter
    (fun (name, kind) ->
      ignore (Pagestore.Switch.add_device switch ~name ~kind () : Pagestore.Device.t))
    devices;
  let db = Relstore.Db.create ~switch ~clock () in
  Fs.make db ()

let fresh () =
  let fs = make_fs () in
  (fs, Fs.new_session fs)

let bytes_of = Bytes.of_string
let str = Bytes.to_string

let advance fs s = Simclock.Clock.advance (Fs.clock fs) s

let expect_error code f =
  match f () with
  | _ -> Alcotest.failf "expected %s" (E.code_to_string code)
  | exception E.Fs_error (c, _) ->
    Alcotest.(check string) "error code" (E.code_to_string code) (E.code_to_string c)

(* ---- chunk encoding ---- *)

let test_chunk_roundtrip () =
  let c = Invfs.Chunk.make_plain ~chunkno:7L (bytes_of "some data") in
  let d = Invfs.Chunk.decode (Invfs.Chunk.encode c) in
  Alcotest.(check int64) "chunkno" 7L d.Invfs.Chunk.chunkno;
  Alcotest.(check bool) "not compressed" false d.Invfs.Chunk.compressed;
  Alcotest.(check string) "data" "some data" (str d.Invfs.Chunk.data)

let test_chunk_capacity () =
  Alcotest.(check int) "slightly smaller than 8K" 8130 Invfs.Chunk.capacity;
  Alcotest.(check bool) "oversized rejected" true
    (try
       ignore
         (Invfs.Chunk.encode
            (Invfs.Chunk.make_plain ~chunkno:0L
               (Bytes.create (Invfs.Chunk.capacity + 1))));
       false
     with Invalid_argument _ -> true)

(* ---- compression ---- *)

let test_compress_roundtrip_texts () =
  let cases =
    [
      "";
      "a";
      "hello world";
      String.concat " " (List.init 500 (fun i -> Printf.sprintf "word%d" (i mod 7)));
      String.make 10000 'x';
    ]
  in
  List.iter
    (fun s ->
      let c = Invfs.Compress.compress (bytes_of s) in
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %d bytes" (String.length s))
        s
        (str (Invfs.Compress.decompress c)))
    cases

let test_compress_shrinks_redundant () =
  let data = bytes_of (String.concat "" (List.init 200 (fun _ -> "abcdefgh"))) in
  Alcotest.(check bool) "ratio < 0.2" true (Invfs.Compress.ratio data < 0.2)

let test_compress_bounded_growth () =
  let rng = Simclock.Rng.create 99L in
  let data = Simclock.Rng.bytes rng 4096 in
  let c = Invfs.Compress.compress data in
  (* at worst one control byte per 128 literal bytes *)
  Alcotest.(check bool) "within worst case" true
    (Bytes.length c <= 4096 + ((4096 + 127) / 128));
  Alcotest.(check bytes) "random data roundtrips" data (Invfs.Compress.decompress c)

let test_compress_corrupt_rejected () =
  Alcotest.(check bool) "bad stream" true
    (try
       ignore (Invfs.Compress.decompress (bytes_of "\x85zz"));
       false
     with Invalid_argument _ -> true)

let prop_compress_roundtrip =
  QCheck.Test.make ~name:"compress/decompress identity" ~count:100
    QCheck.(string_of_size Gen.(int_range 0 5000))
    (fun s ->
      str (Invfs.Compress.decompress (Invfs.Compress.compress (bytes_of s))) = s)

(* ---- basic file I/O ---- *)

let test_create_write_read () =
  let _, s = fresh () in
  let fd = Fs.p_creat s "/hello.txt" in
  let data = bytes_of "Hello, Inversion!" in
  Alcotest.(check int) "write" (Bytes.length data) (Fs.p_write s fd data (Bytes.length data));
  ignore (Fs.p_lseek s fd 0L Fs.Seek_set);
  let buf = Bytes.create 64 in
  let n = Fs.p_read s fd buf 64 in
  Alcotest.(check string) "read back" "Hello, Inversion!" (Bytes.sub_string buf 0 n);
  Fs.p_close s fd

let test_large_multi_chunk_file () =
  let _, s = fresh () in
  let size = (3 * Invfs.Chunk.capacity) + 1234 in
  let data = Bytes.init size (fun i -> Char.chr (i mod 251)) in
  Fs.write_file s "/big.bin" data;
  let back = Fs.read_whole_file s "/big.bin" in
  Alcotest.(check int) "size" size (Bytes.length back);
  Alcotest.(check bytes) "contents" data back

(* A small file costs two device blocks: one heap block and its chunk
   tree's root, which is block 0 of the tree's segment. *)
let test_small_file_two_blocks () =
  let fs, s = fresh () in
  Fs.write_file s "/small" (Bytes.make 600 's');
  let inv = Option.get (Fs.file_handle fs ~oid:(Fs.lookup_oid s "/small")) in
  let blocks_of dev segid = Pagestore.Device.nblocks dev segid in
  let heap = Invfs.Inv_file.heap inv in
  let tree = Invfs.Inv_file.index inv in
  Alcotest.(check int) "heap blocks" 1
    (blocks_of (Relstore.Heap.device heap) (Relstore.Heap.segid heap));
  Alcotest.(check int) "chunk-tree blocks" 1
    (blocks_of (Index.Btree.device tree) (Index.Btree.segid tree));
  Alcotest.(check string) "reads back" (String.make 600 's')
    (str (Fs.read_whole_file s "/small"))

let test_random_offset_rw () =
  let _, s = fresh () in
  let size = 2 * Invfs.Chunk.capacity in
  Fs.write_file s "/f" (Bytes.make size 'a');
  let fd = Fs.p_open s "/f" Fs.Rdwr in
  (* overwrite a straddling region *)
  let off = Invfs.Chunk.capacity - 5 in
  ignore (Fs.p_lseek s fd (Int64.of_int off) Fs.Seek_set);
  ignore (Fs.p_write s fd (bytes_of "XXXXXXXXXX") 10);
  ignore (Fs.p_lseek s fd (Int64.of_int (off - 2)) Fs.Seek_set);
  let buf = Bytes.create 14 in
  let n = Fs.p_read s fd buf 14 in
  Alcotest.(check string) "straddling overwrite" "aaXXXXXXXXXXaa" (Bytes.sub_string buf 0 n);
  Fs.p_close s fd

let test_sparse_file_reads_zeros () =
  let _, s = fresh () in
  let fd = Fs.p_creat s "/sparse" in
  ignore (Fs.p_lseek s fd (Int64.of_int (2 * Invfs.Chunk.capacity)) Fs.Seek_set);
  ignore (Fs.p_write s fd (bytes_of "end") 3);
  ignore (Fs.p_lseek s fd 100L Fs.Seek_set);
  let buf = Bytes.make 8 'z' in
  let n = Fs.p_read s fd buf 8 in
  Alcotest.(check int) "read in hole" 8 n;
  Alcotest.(check string) "zeros" (String.make 8 '\000') (Bytes.to_string buf);
  Fs.p_close s fd

let test_read_past_eof () =
  let _, s = fresh () in
  Fs.write_file s "/f" (bytes_of "12345");
  let fd = Fs.p_open s "/f" Fs.Rdonly in
  ignore (Fs.p_lseek s fd 3L Fs.Seek_set);
  let buf = Bytes.create 10 in
  Alcotest.(check int) "short read" 2 (Fs.p_read s fd buf 10);
  Alcotest.(check int) "eof" 0 (Fs.p_read s fd buf 10);
  Fs.p_close s fd

let test_seek_whence () =
  let _, s = fresh () in
  Fs.write_file s "/f" (bytes_of "0123456789");
  let fd = Fs.p_open s "/f" Fs.Rdonly in
  Alcotest.(check int64) "set" 4L (Fs.p_lseek s fd 4L Fs.Seek_set);
  Alcotest.(check int64) "cur" 6L (Fs.p_lseek s fd 2L Fs.Seek_cur);
  Alcotest.(check int64) "end" 8L (Fs.p_lseek s fd (-2L) Fs.Seek_end);
  expect_error E.EINVAL (fun () -> Fs.p_lseek s fd (-100L) Fs.Seek_set);
  Fs.p_close s fd

let test_bad_fd () =
  let _, s = fresh () in
  let buf = Bytes.create 1 in
  expect_error E.EBADF (fun () -> Fs.p_read s 42 buf 1)

let test_readonly_write_rejected () =
  let _, s = fresh () in
  Fs.write_file s "/f" (bytes_of "x");
  let fd = Fs.p_open s "/f" Fs.Rdonly in
  expect_error E.EROFS (fun () -> Fs.p_write s fd (bytes_of "y") 1);
  Fs.p_close s fd

(* ---- namespace ---- *)

let test_mkdir_and_paths () =
  let _, s = fresh () in
  Fs.mkdir s "/etc";
  Fs.write_file s "/etc/passwd" (bytes_of "root:0:0");
  Alcotest.(check (list string)) "readdir /" [ "etc" ] (Fs.readdir s "/");
  Alcotest.(check (list string)) "readdir /etc" [ "passwd" ] (Fs.readdir s "/etc");
  let oid = Fs.lookup_oid s "/etc/passwd" in
  Alcotest.(check (option string)) "path reconstruction" (Some "/etc/passwd")
    (Fs.path_of_oid s oid);
  let att = Fs.stat s "/etc/passwd" in
  Alcotest.(check int64) "size" 8L att.Invfs.Fileatt.size

let test_table1_naming_structure () =
  (* Table 1 of the paper: naming entries for /etc/passwd *)
  let fs, s = fresh () in
  Fs.mkdir s "/etc";
  Fs.write_file s "/etc/passwd" (bytes_of "data");
  let root = Fs.root_oid fs in
  let etc = Fs.lookup_oid s "/etc" in
  let passwd = Fs.lookup_oid s "/etc/passwd" in
  (* "/" has parent 0; etc's parent is root's oid; passwd's parent is etc *)
  Alcotest.(check bool) "distinct oids" true (root <> etc && etc <> passwd);
  Alcotest.(check (option string)) "etc path" (Some "/etc") (Fs.path_of_oid s etc);
  Alcotest.(check (option string)) "passwd path" (Some "/etc/passwd")
    (Fs.path_of_oid s passwd)

let test_namespace_errors () =
  let _, s = fresh () in
  Fs.mkdir s "/d";
  Fs.write_file s "/d/f" (bytes_of "x");
  expect_error E.EEXIST (fun () -> Fs.mkdir s "/d");
  expect_error E.EEXIST (fun () -> Fs.p_creat s "/d/f");
  expect_error E.ENOENT (fun () -> Fs.p_open s "/nope" Fs.Rdonly);
  expect_error E.ENOENT (fun () -> Fs.mkdir s "/a/b");
  expect_error E.ENOTDIR (fun () -> Fs.p_creat s "/d/f/g");
  expect_error E.EISDIR (fun () -> Fs.p_open s "/d" Fs.Rdonly);
  expect_error E.ENOTEMPTY (fun () -> Fs.rmdir s "/d");
  expect_error E.EISDIR (fun () -> Fs.unlink s "/d");
  expect_error E.EINVAL (fun () -> Fs.mkdir s "relative/path");
  expect_error E.EINVAL (fun () -> Fs.mkdir s "/a/../b")

let test_unlink_and_rmdir () =
  let _, s = fresh () in
  Fs.mkdir s "/d";
  Fs.write_file s "/d/f" (bytes_of "x");
  Fs.unlink s "/d/f";
  Alcotest.(check bool) "file gone" false (Fs.exists s "/d/f");
  Fs.rmdir s "/d";
  Alcotest.(check bool) "dir gone" false (Fs.exists s "/d");
  Alcotest.(check (list string)) "root empty" [] (Fs.readdir s "/")

let test_rename () =
  let _, s = fresh () in
  Fs.mkdir s "/a";
  Fs.mkdir s "/b";
  Fs.write_file s "/a/f" (bytes_of "payload");
  Fs.rename s "/a/f" "/b/g";
  Alcotest.(check bool) "src gone" false (Fs.exists s "/a/f");
  Alcotest.(check string) "content follows" "payload" (str (Fs.read_whole_file s "/b/g"));
  expect_error E.ENOENT (fun () -> Fs.rename s "/a/f" "/b/h");
  Fs.write_file s "/a/f2" (bytes_of "x");
  expect_error E.EEXIST (fun () -> Fs.rename s "/a/f2" "/b/g")

let test_rename_directory_moves_subtree () =
  let _, s = fresh () in
  Fs.mkdir s "/old";
  Fs.mkdir s "/old/sub";
  Fs.write_file s "/old/sub/f" (bytes_of "deep");
  Fs.rename s "/old" "/new";
  Alcotest.(check bool) "old gone" false (Fs.exists s "/old");
  Alcotest.(check string) "subtree follows" "deep"
    (str (Fs.read_whole_file s "/new/sub/f"));
  Alcotest.(check (option string)) "paths rebuilt" (Some "/new/sub/f")
    (Fs.path_of_oid s (Fs.lookup_oid s "/new/sub/f"))

let test_deep_paths () =
  let _, s = fresh () in
  let depth = 12 in
  let rec build prefix d =
    if d = 0 then prefix
    else begin
      let next = prefix ^ "/d" ^ string_of_int d in
      Fs.mkdir s next;
      build next (d - 1)
    end
  in
  let dir = build "" depth in
  Fs.write_file s (dir ^ "/leaf") (bytes_of "bottom");
  Alcotest.(check string) "deep read" "bottom" (str (Fs.read_whole_file s (dir ^ "/leaf")));
  Alcotest.(check (option string)) "deep path_of_oid" (Some (dir ^ "/leaf"))
    (Fs.path_of_oid s (Fs.lookup_oid s (dir ^ "/leaf")))

let test_big_directory_sorted () =
  let _, s = fresh () in
  Fs.mkdir s "/dir";
  for i = 99 downto 0 do
    Fs.write_file s (Printf.sprintf "/dir/f%02d" i) (bytes_of "x")
  done;
  let names = Fs.readdir s "/dir" in
  Alcotest.(check int) "100 entries" 100 (List.length names);
  Alcotest.(check (list string)) "sorted"
    (List.init 100 (fun i -> Printf.sprintf "f%02d" i))
    names

let test_device_placement () =
  let fs =
    make_fs
      ~devices:
        [ ("disk0", Pagestore.Device.Magnetic_disk); ("nvram0", Pagestore.Device.Nvram) ]
      ()
  in
  let s = Fs.new_session fs in
  let fd = Fs.p_creat s ~device:"nvram0" "/hot" in
  ignore (Fs.p_write s fd (bytes_of "fast") 4 : int);
  Fs.p_close s fd;
  Alcotest.(check string) "placed on nvram" "nvram0" (Fs.stat s "/hot").Invfs.Fileatt.device;
  Alcotest.(check string) "readable" "fast" (str (Fs.read_whole_file s "/hot"));
  expect_error E.EINVAL (fun () -> Fs.p_creat s ~device:"missing" "/x")

let test_file_size_limit () =
  let _, s = fresh () in
  let fd = Fs.p_creat s "/huge" in
  ignore (Fs.p_lseek s fd 17_599_999_999_999L Fs.Seek_set : int64);
  expect_error E.EINVAL (fun () -> Fs.p_write s fd (bytes_of "xx") 2);
  Fs.p_close s fd

let test_stat_root () =
  let _, s = fresh () in
  let att = Fs.stat s "/" in
  Alcotest.(check string) "root is a directory" "directory" att.Invfs.Fileatt.ftype

(* Every auto-committed write adds a version of the file's attribute
   row.  A current lookup must find the live one without walking that
   chain: its buffer-cache traffic stays flat as the history grows. *)
let test_fileatt_get_cost_flat () =
  let fs, s = fresh () in
  let db = Fs.db fs in
  let cache = Relstore.Db.cache db in
  let fd = Fs.p_creat s "/hot" in
  let oid = (Fs.stat s "/hot").Invfs.Fileatt.file in
  let grow n = for _ = 1 to n do ignore (Fs.p_write s fd (bytes_of "x") 1 : int) done in
  let gets_per_get () =
    let txn = Relstore.Db.begin_txn db in
    let g0 = (Pagestore.Bufcache.stats cache).Pagestore.Bufcache.s_gets in
    let att = Invfs.Fileatt.get (Fs.fileatt_catalog fs) (Relstore.Txn.snapshot txn) ~file:oid in
    let gets = (Pagestore.Bufcache.stats cache).Pagestore.Bufcache.s_gets - g0 in
    Relstore.Txn.abort txn;
    Alcotest.(check bool) "live row found" true (att <> None);
    gets
  in
  grow 4;
  let few = gets_per_get () in
  grow 200;
  let many = gets_per_get () in
  Alcotest.(check bool)
    (Printf.sprintf "gets flat in history length (%d after 4 writes, %d after 204)" few many)
    true
    (many <= few + 1)

(* An [As_of] lookup walks the whole naming catalog, but it must copy
   out only the entry it returns: the key test runs on each record in
   its page.  Minor words are counted exactly, so the bound is a
   deterministic gate.  Copying every record before testing it costs
   about 47 words a record. *)
let test_asof_lookup_copies_one_record () =
  let fs, s = fresh () in
  for d = 0 to 31 do
    Fs.mkdir s (Printf.sprintf "/d%02d" d)
  done;
  for i = 0 to 1999 do
    Fs.p_close s (Fs.p_creat s (Printf.sprintf "/d%02d/f%04d" (i mod 32) i))
  done;
  let naming = Fs.naming_catalog fs in
  let records = ref 0 in
  Relstore.Heap.scan_raw (Invfs.Naming.heap naming) (fun _ -> incr records);
  let parentid = Fs.lookup_oid s "/d07" in
  let snap = Relstore.Snapshot.As_of (Relstore.Db.now (Fs.db fs)) in
  let lookup () = Invfs.Naming.lookup naming snap ~parentid ~name:"f1767" in
  Alcotest.(check bool) "entry found" true (lookup () <> None);
  let rounds = 5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (lookup () : Invfs.Naming.entry option)
  done;
  let per_record =
    (Gc.minor_words () -. w0) /. float_of_int (rounds * !records)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per record scanned (%d records), at most 12" per_record
       !records)
    true (per_record <= 12.)

let test_sparse_far_offset () =
  (* 64-bit addressing: write beyond 4 GB (the FFS limit the paper
     contrasts with) and read it back *)
  let _, s = fresh () in
  let fd = Fs.p_creat s "/wide" in
  let off = 5_000_000_000L in
  ignore (Fs.p_lseek s fd off Fs.Seek_set : int64);
  ignore (Fs.p_write s fd (bytes_of "past 4GB") 8 : int);
  Alcotest.(check int64) "size" (Int64.add off 8L) (Fs.stat s "/wide").Invfs.Fileatt.size;
  ignore (Fs.p_lseek s fd off Fs.Seek_set : int64);
  let buf = Bytes.create 8 in
  ignore (Fs.p_read s fd buf 8 : int);
  Alcotest.(check string) "readable" "past 4GB" (Bytes.to_string buf);
  Fs.p_close s fd

(* ---- transactions ---- *)

let test_txn_atomic_multifile () =
  let _, s = fresh () in
  (* the paper's motivating scenario: check in several source files
     atomically *)
  Fs.write_file s "/main.c" (bytes_of "old main");
  Fs.write_file s "/util.c" (bytes_of "old util");
  Fs.p_begin s;
  Fs.write_file s "/main.c" (bytes_of "new main");
  Fs.write_file s "/util.c" (bytes_of "new util");
  Fs.p_abort s;
  Alcotest.(check string) "main rolled back" "old main" (str (Fs.read_whole_file s "/main.c"));
  Alcotest.(check string) "util rolled back" "old util" (str (Fs.read_whole_file s "/util.c"));
  Fs.with_transaction s (fun () ->
      Fs.write_file s "/main.c" (bytes_of "new main");
      Fs.write_file s "/util.c" (bytes_of "new util"));
  Alcotest.(check string) "main committed" "new main" (str (Fs.read_whole_file s "/main.c"))

let test_txn_no_nesting () =
  let _, s = fresh () in
  Fs.p_begin s;
  expect_error E.ETXN (fun () -> Fs.p_begin s);
  Fs.p_commit s;
  expect_error E.ETXN (fun () -> Fs.p_commit s);
  expect_error E.ETXN (fun () -> Fs.p_abort s)

let test_txn_namespace_rollback () =
  let _, s = fresh () in
  Fs.p_begin s;
  Fs.mkdir s "/d";
  Fs.write_file s "/d/f" (bytes_of "x");
  Alcotest.(check bool) "visible inside txn" true (Fs.exists s "/d/f");
  Fs.p_abort s;
  Alcotest.(check bool) "dir rolled back" false (Fs.exists s "/d")

let test_write_coalescing () =
  let fs, s = fresh () in
  let heap_blocks_of path =
    match Fs.file_handle fs ~oid:(Fs.lookup_oid s path) with
    | Some inv -> Relstore.Heap.nblocks (Invfs.Inv_file.heap inv)
    | None -> -1
  in
  (* many tiny sequential writes inside one transaction coalesce *)
  Fs.p_begin s;
  let fd = Fs.p_creat s "/coalesced" in
  for _ = 1 to 1000 do
    ignore (Fs.p_write s fd (bytes_of "12345678") 8)
  done;
  Fs.p_close s fd;
  Fs.p_commit s;
  let coalesced_blocks = heap_blocks_of "/coalesced" in
  (* same volume, auto-commit: every write is its own chunk version *)
  let fd = Fs.p_creat s "/atomic" in
  for _ = 1 to 1000 do
    ignore (Fs.p_write s fd (bytes_of "12345678") 8)
  done;
  Fs.p_close s fd;
  let solo_blocks = heap_blocks_of "/atomic" in
  Alcotest.(check bool)
    (Printf.sprintf "coalesced %d blocks << uncoalesced %d" coalesced_blocks solo_blocks)
    true
    (coalesced_blocks * 4 < solo_blocks);
  (* contents identical *)
  Alcotest.(check bytes) "same contents" (Fs.read_whole_file s "/coalesced")
    (Fs.read_whole_file s "/atomic")

(* ---- time travel ---- *)

let test_time_travel_file_contents () =
  let fs, s = fresh () in
  Fs.write_file s "/f" (bytes_of "version 1");
  advance fs 10.;
  let t1 = Relstore.Db.now (Fs.db fs) in
  advance fs 10.;
  Fs.write_file s "/f" (bytes_of "version 2 is longer");
  Alcotest.(check string) "current" "version 2 is longer" (str (Fs.read_whole_file s "/f"));
  Alcotest.(check string) "as of t1" "version 1"
    (str (Fs.read_whole_file s ~timestamp:t1 "/f"));
  (* historical open is read-only *)
  expect_error E.EROFS (fun () -> Fs.p_open s ~timestamp:t1 "/f" Fs.Rdwr);
  let fd = Fs.p_open s ~timestamp:t1 "/f" Fs.Rdonly in
  expect_error E.EROFS (fun () -> Fs.p_write s fd (bytes_of "x") 1);
  Fs.p_close s fd

let test_time_travel_undelete () =
  let fs, s = fresh () in
  Fs.write_file s "/precious" (bytes_of "do not lose");
  advance fs 5.;
  let before = Relstore.Db.now (Fs.db fs) in
  advance fs 5.;
  Fs.unlink s "/precious";
  Alcotest.(check bool) "gone now" false (Fs.exists s "/precious");
  Alcotest.(check bool) "visible in past" true (Fs.exists s ~timestamp:before "/precious");
  (* undelete: read old contents, write them back *)
  let saved = Fs.read_whole_file s ~timestamp:before "/precious" in
  Fs.write_file s "/precious" saved;
  Alcotest.(check string) "restored" "do not lose" (str (Fs.read_whole_file s "/precious"))

let test_time_travel_directory_listing () =
  let fs, s = fresh () in
  Fs.write_file s "/a" (bytes_of "1");
  advance fs 1.;
  let t1 = Relstore.Db.now (Fs.db fs) in
  advance fs 1.;
  Fs.write_file s "/b" (bytes_of "2");
  Fs.unlink s "/a";
  Alcotest.(check (list string)) "now" [ "b" ] (Fs.readdir s "/");
  Alcotest.(check (list string)) "then" [ "a" ] (Fs.readdir s ~timestamp:t1 "/")

let test_time_travel_metadata () =
  let fs, s = fresh () in
  Fs.write_file s "/f" (bytes_of "xx");
  Fs.set_owner s "/f" "alice";
  advance fs 3.;
  let t1 = Relstore.Db.now (Fs.db fs) in
  advance fs 3.;
  Fs.set_owner s "/f" "bob";
  Alcotest.(check string) "owner now" "bob" (Fs.stat s "/f").Invfs.Fileatt.owner;
  Alcotest.(check string) "owner then" "alice"
    (Fs.stat s ~timestamp:t1 "/f").Invfs.Fileatt.owner

(* ---- crash recovery ---- *)

let test_crash_rolls_back_uncommitted () =
  let fs, s = fresh () in
  Fs.write_file s "/stable" (bytes_of "committed data");
  Fs.p_begin s;
  Fs.write_file s "/stable" (bytes_of "doomed overwrite");
  Fs.write_file s "/doomed-new" (bytes_of "never committed");
  Fs.crash fs;
  (* instant recovery: a new session works immediately, no fsck *)
  let s2 = Fs.new_session fs in
  Alcotest.(check string) "committed survives" "committed data"
    (str (Fs.read_whole_file s2 "/stable"));
  Alcotest.(check bool) "uncommitted create gone" false (Fs.exists s2 "/doomed-new");
  let report = Invfs.Fsck.audit fs in
  Alcotest.(check bool)
    (Invfs.Fsck.report_to_string report)
    true (Invfs.Fsck.is_clean report)

let test_crash_preserves_history () =
  let fs, s = fresh () in
  Fs.write_file s "/f" (bytes_of "v1");
  advance fs 2.;
  let t1 = Relstore.Db.now (Fs.db fs) in
  advance fs 2.;
  Fs.write_file s "/f" (bytes_of "v2");
  Fs.crash fs;
  let s2 = Fs.new_session fs in
  Alcotest.(check string) "current after crash" "v2" (str (Fs.read_whole_file s2 "/f"));
  Alcotest.(check string) "past after crash" "v1"
    (str (Fs.read_whole_file s2 ~timestamp:t1 "/f"))

(* ---- typed files and queries ---- *)

let setup_queryable () =
  let fs, s = fresh () in
  Fs.define_type fs "tm";
  Fs.define_type fs "movie";
  Fs.register_function fs ~name:"keywords" ~arity:1 (fun ctx args ->
      match args with
      | [ V.Int oid ] ->
        let text = str (Fs.read_file_at ctx.Fs.qfs ctx.Fs.snapshot ~oid) in
        V.List
          (String.split_on_char ' ' text
          |> List.filter (fun w -> w <> "")
          |> List.map (fun w -> V.Str w))
      | _ -> V.Null);
  Fs.mkdir s ~owner:"mao" "/users";
  Fs.mkdir s ~owner:"mao" "/users/mao";
  let mk path owner ftype contents =
    let fd = Fs.p_creat s ~owner ~ftype path in
    ignore (Fs.p_write s fd (bytes_of contents) (String.length contents));
    Fs.p_close s fd
  in
  mk "/users/mao/paper.txt" "mao" "unknown" "the RISC revolution paper";
  mk "/users/mao/clip" "mao" "movie" "MOVIEDATA";
  mk "/users/mao/song" "mao" "unknown" "la la la";
  mk "/other" "wei" "unknown" "nothing here";
  (fs, s)

let test_query_keywords () =
  let _, s = setup_queryable () in
  let rows = Fs.query s {|retrieve (filename) where "RISC" in keywords(file)|} in
  Alcotest.(check int) "one match" 1 (List.length rows);
  (match rows with
  | [ [ V.Str name ] ] -> Alcotest.(check string) "name" "paper.txt" name
  | _ -> Alcotest.fail "unexpected row shape")

let test_query_owner_and_dir () =
  let _, s = setup_queryable () in
  let rows =
    Fs.query s
      {|retrieve (filename) where owner(file) = "mao" and filetype(file) = "movie" and dir(file) = "/users/mao"|}
  in
  (match rows with
  | [ [ V.Str "clip" ] ] -> ()
  | _ -> Alcotest.failf "got %d rows" (List.length rows));
  (* owner mismatch excludes /other *)
  let rows2 = Fs.query s {|retrieve (filename) where owner(file) = "wei"|} in
  match rows2 with
  | [ [ V.Str "other" ] ] -> ()
  | _ -> Alcotest.fail "owner query"

let test_query_size_arith () =
  let _, s = setup_queryable () in
  let rows = Fs.query s {|retrieve (filename, size(file)) where size(file) > 10|} in
  Alcotest.(check bool) "some rows" true (List.length rows >= 1);
  List.iter
    (fun row ->
      match row with
      | [ V.Str _; V.Int n ] ->
        Alcotest.(check bool) "predicate holds" true (Int64.compare n 10L > 0)
      | _ -> Alcotest.fail "row shape")
    rows

let test_query_define_type_statement () =
  let fs, s = fresh () in
  Alcotest.(check bool) "no rows" true (Fs.query s "define type avhrr" = []);
  Alcotest.(check bool) "type defined" true
    (Postquel.Registry.type_exists (Fs.registry fs) "avhrr")

let test_typed_function_dispatch () =
  let fs, s = setup_queryable () in
  (* snow applies only to tm files; movie files give Null *)
  Fs.register_function fs ~name:"snow" ~file_type:"tm" ~arity:1 (fun _ _ -> V.Int 1000L);
  let rows = Fs.query s {|retrieve (filename) where snow(file) > 0|} in
  Alcotest.(check int) "no tm files yet" 0 (List.length rows);
  Fs.write_file s "/img.tm" (bytes_of "IMAGE");
  Fs.set_type s "/img.tm" "tm";
  let rows2 = Fs.query s {|retrieve (filename) where snow(file) > 0|} in
  match rows2 with
  | [ [ V.Str "img.tm" ] ] -> ()
  | _ -> Alcotest.failf "typed dispatch failed (%d rows)" (List.length rows2)

let test_set_type_requires_definition () =
  let _, s = fresh () in
  Fs.write_file s "/f" (bytes_of "x");
  expect_error E.EINVAL (fun () -> Fs.set_type s "/f" "undeclared")

let test_query_time_travel () =
  let fs, s = fresh () in
  Fs.write_file s "/small" (bytes_of "x");
  advance fs 1.;
  let t1 = Relstore.Db.now (Fs.db fs) in
  advance fs 1.;
  Fs.write_file s "/small" (Bytes.make 5000 'y');
  let rows_now = Fs.query s {|retrieve (filename) where size(file) > 100|} in
  let rows_then = Fs.query s ~timestamp:t1 {|retrieve (filename) where size(file) > 100|} in
  Alcotest.(check int) "matches now" 1 (List.length rows_now);
  Alcotest.(check int) "no match then" 0 (List.length rows_then)

(* ---- compression ---- *)

let test_compressed_file_roundtrip () =
  let _, s = fresh () in
  let text =
    String.concat "\n" (List.init 2000 (fun i -> Printf.sprintf "log line %d: all quiet" i))
  in
  let fd = Fs.p_creat s ~compressed:true "/log" in
  ignore (Fs.p_write s fd (bytes_of text) (String.length text));
  Fs.p_close s fd;
  Alcotest.(check string) "contents" text (str (Fs.read_whole_file s "/log"));
  (* random access into a compressed file *)
  let fd = Fs.p_open s "/log" Fs.Rdonly in
  ignore (Fs.p_lseek s fd 9000L Fs.Seek_set);
  let buf = Bytes.create 20 in
  let n = Fs.p_read s fd buf 20 in
  Alcotest.(check string) "random access" (String.sub text 9000 20) (Bytes.sub_string buf 0 n);
  Fs.p_close s fd

let test_compression_saves_storage () =
  let fs, s = fresh () in
  let text = String.concat "" (List.init 4000 (fun _ -> "abcdefgh")) in
  Fs.write_file s "/plain" (bytes_of text);
  let fd = Fs.p_creat s ~compressed:true "/packed" in
  ignore (Fs.p_write s fd (bytes_of text) (String.length text));
  Fs.p_close s fd;
  let snap = Relstore.Snapshot.As_of (Relstore.Db.now (Fs.db fs)) in
  let stored path =
    match Fs.file_handle fs ~oid:(Fs.lookup_oid s path) with
    | Some inv -> Invfs.Inv_file.stored_bytes inv snap
    | None -> -1
  in
  Alcotest.(check bool)
    (Printf.sprintf "packed %d < plain %d / 4" (stored "/packed") (stored "/plain"))
    true
    (stored "/packed" * 4 < stored "/plain")

(* ---- migration ---- *)

let test_migrate_file_between_devices () =
  let fs =
    make_fs
      ~devices:
        [
          ("disk0", Pagestore.Device.Magnetic_disk);
          ("jukebox", Pagestore.Device.Worm_jukebox);
        ]
      ()
  in
  let s = Fs.new_session fs in
  let data = Bytes.init 20000 (fun i -> Char.chr (i mod 256)) in
  Fs.write_file s "/dataset" data;
  advance fs 1.;
  let t1 = Relstore.Db.now (Fs.db fs) in
  advance fs 1.;
  Fs.write_file s "/dataset" (bytes_of "v2");
  Fs.migrate_file fs ~oid:(Fs.lookup_oid s "/dataset") ~device:"jukebox";
  Alcotest.(check string) "device updated" "jukebox" (Fs.stat s "/dataset").Invfs.Fileatt.device;
  Alcotest.(check string) "contents survive" "v2" (str (Fs.read_whole_file s "/dataset"));
  Alcotest.(check bytes) "history survives migration" data
    (Fs.read_whole_file s ~timestamp:t1 "/dataset")

(* An archived version stays readable [As_of] after the file moves: the
   migrated heap keeps the archive the vacuum attached to the old one. *)
let test_migrate_keeps_archived_history () =
  let fs =
    make_fs
      ~devices:
        [
          ("disk0", Pagestore.Device.Magnetic_disk);
          ("disk1", Pagestore.Device.Magnetic_disk);
          ("jukebox", Pagestore.Device.Worm_jukebox);
        ]
      ()
  in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" (bytes_of "ancient");
  advance fs 1.;
  let t1 = Relstore.Db.now (Fs.db fs) in
  advance fs 1.;
  Fs.write_file s "/f" (bytes_of "modern");
  advance fs 1.;
  let oid = Fs.lookup_oid s "/f" in
  let stats = Fs.vacuum_file fs ~oid ~mode:`Archive () in
  Alcotest.(check bool) "archived something" true (stats.Relstore.Vacuum.archived >= 1);
  Fs.migrate_file fs ~oid ~device:"disk1";
  Alcotest.(check string) "moved" "disk1" (Fs.stat s "/f").Invfs.Fileatt.device;
  Alcotest.(check string) "current" "modern" (str (Fs.read_whole_file s "/f"));
  Alcotest.(check string) "archived history" "ancient"
    (str (Fs.read_whole_file s ~timestamp:t1 "/f"));
  Alcotest.(check bool) "fsck clean" true (Invfs.Fsck.is_clean (Invfs.Fsck.audit fs));
  Fs.crash fs;
  Alcotest.(check string) "archived history after a crash" "ancient"
    (str (Fs.read_whole_file (Fs.new_session fs) ~timestamp:t1 "/f"))

(* A round trip between devices keeps one archive: archive-vacuum,
   migrate disk0 -> disk1, write and archive-vacuum again, migrate back,
   crash.  Every remembered instant reads the bytes written then, the
   file owns the same single archive relation throughout, and the audit
   is clean. *)
let test_migrate_round_trip_keeps_one_archive () =
  let fs =
    make_fs
      ~devices:
        [
          ("disk0", Pagestore.Device.Magnetic_disk);
          ("disk1", Pagestore.Device.Magnetic_disk);
          ("jukebox", Pagestore.Device.Worm_jukebox);
        ]
      ()
  in
  let s = Fs.new_session fs in
  let db = Fs.db fs in
  let remembered = ref [] in
  let write v =
    Fs.write_file s "/f" (bytes_of v);
    advance fs 1.;
    remembered := (Relstore.Db.now db, v) :: !remembered;
    advance fs 1.
  in
  write "first";
  write "second";
  let oid = Fs.lookup_oid s "/f" in
  let archive () =
    Index.Indexed.archive (Invfs.Inv_file.relation (Option.get (Fs.file_handle fs ~oid)))
  in
  let vacuum () =
    let st = Fs.vacuum_file fs ~oid ~mode:`Archive () in
    Alcotest.(check bool) "archived something" true (st.Relstore.Vacuum.archived >= 1)
  in
  vacuum ();
  let arch = Lazy.force (archive ()) in
  Fs.migrate_file fs ~oid ~device:"disk1";
  write "third";
  write "fourth";
  vacuum ();
  Fs.migrate_file fs ~oid ~device:"disk0";
  ignore (Fs.crash_and_recover fs : Fs.recovery);
  let s = Fs.new_session fs in
  Alcotest.(check string) "back home" "disk0" (Fs.stat s "/f").Invfs.Fileatt.device;
  List.iter
    (fun (ts, v) ->
      Alcotest.(check string) (Printf.sprintf "as of %Ld" ts) v
        (str (Fs.read_whole_file s ~timestamp:ts "/f")))
    !remembered;
  Alcotest.(check bool) "the same archive throughout" true (Lazy.force (archive ()) == arch);
  let made =
    List.map (fun rel -> Relstore.Heap.name (Index.Indexed.heap rel)) (Fs.relations fs)
  in
  Alcotest.(check (list string)) "one archive relation, the file's"
    [ Relstore.Heap.name arch ]
    (List.filter (fun name -> not (List.mem name made)) (Relstore.Db.relations db));
  let r = Invfs.Fsck.audit fs in
  Alcotest.(check bool) (Invfs.Fsck.report_to_string r) true (Invfs.Fsck.is_clean r)

(* An fd opened before [migrate_file] reads and writes the moved file. *)
let migrated_fd mode =
  let fs =
    make_fs
      ~devices:
        [ ("disk0", Pagestore.Device.Magnetic_disk); ("disk1", Pagestore.Device.Magnetic_disk) ]
      ()
  in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" (bytes_of "before");
  let fd = Fs.p_open s "/f" mode in
  Fs.migrate_file fs ~oid:(Fs.lookup_oid s "/f") ~device:"disk1";
  (s, fd)

let test_migrate_fd_read () =
  let s, fd = migrated_fd Fs.Rdonly in
  let buf = Bytes.create 6 in
  Alcotest.(check int) "read count" 6 (Fs.p_read s fd buf 6);
  Alcotest.(check string) "read bytes" "before" (str buf);
  Fs.p_close s fd

let test_migrate_fd_write () =
  let s, fd = migrated_fd Fs.Rdwr in
  Alcotest.(check int) "write count" 5 (Fs.p_write s fd (bytes_of "AFTER") 5);
  Fs.p_close s fd;
  Alcotest.(check string) "written" "AFTERe" (str (Fs.read_whole_file s "/f"))

let test_migration_rules_engine () =
  let fs =
    make_fs
      ~devices:
        [
          ("disk0", Pagestore.Device.Magnetic_disk);
          ("jukebox", Pagestore.Device.Worm_jukebox);
        ]
      ()
  in
  let s = Fs.new_session fs in
  Fs.write_file s "/big" (Bytes.make 50000 'b');
  Fs.write_file s "/small" (bytes_of "tiny");
  let rules =
    [
      Invfs.Migrate.rule ~name:"big-to-tertiary" ~predicate:"size(file) > 10000"
        ~target_device:"jukebox";
    ]
  in
  let report = Invfs.Migrate.run fs rules in
  Alcotest.(check int) "examined" 2 report.Invfs.Migrate.examined;
  (match report.Invfs.Migrate.moved with
  | [ m ] ->
    Alcotest.(check string) "moved path" "/big" m.Invfs.Migrate.path;
    Alcotest.(check string) "to jukebox" "jukebox" m.Invfs.Migrate.to_device
  | _ -> Alcotest.fail "expected exactly one move");
  Alcotest.(check string) "small stays" "disk0" (Fs.stat s "/small").Invfs.Fileatt.device;
  (* second sweep is a no-op *)
  let again = Invfs.Migrate.run fs rules in
  Alcotest.(check int) "idempotent" 0 (List.length again.Invfs.Migrate.moved)

(* ---- vacuum at the FS level ---- *)

let test_vacuum_file_reclaims_history () =
  let fs, s = fresh () in
  Fs.write_file s "/f" (Bytes.make 9000 'a');
  for _ = 1 to 5 do
    Fs.write_file s "/f" (Bytes.make 9000 'b')
  done;
  advance fs 1.;
  let oid = Fs.lookup_oid s "/f" in
  let stats = Fs.vacuum_file fs ~oid ~mode:`Discard () in
  Alcotest.(check bool)
    (Printf.sprintf "discarded %d old versions" stats.Relstore.Vacuum.discarded)
    true
    (stats.Relstore.Vacuum.discarded >= 5);
  Alcotest.(check string) "current intact" (String.make 9000 'b')
    (str (Fs.read_whole_file s "/f"));
  let report = Invfs.Fsck.audit fs in
  Alcotest.(check bool) "clean after vacuum" true (Invfs.Fsck.is_clean report)

let test_vacuum_archive_time_travel () =
  let fs =
    make_fs
      ~devices:
        [
          ("disk0", Pagestore.Device.Magnetic_disk);
          ("jukebox", Pagestore.Device.Worm_jukebox);
        ]
      ()
  in
  let s = Fs.new_session fs in
  Fs.write_file s "/f" (bytes_of "ancient");
  advance fs 1.;
  let t1 = Relstore.Db.now (Fs.db fs) in
  advance fs 1.;
  Fs.write_file s "/f" (bytes_of "modern");
  advance fs 1.;
  let oid = Fs.lookup_oid s "/f" in
  let stats = Fs.vacuum_file fs ~oid ~mode:`Archive () in
  Alcotest.(check bool) "archived something" true (stats.Relstore.Vacuum.archived >= 1);
  Alcotest.(check string) "history readable from archive" "ancient"
    (str (Fs.read_whole_file s ~timestamp:t1 "/f"))


(* ---- O(1) snapshots and copy-on-write clones ---- *)

let test_snapshot_o1 () =
  let fs, s = fresh () in
  Fs.write_file s "/f" (Bytes.make 9000 'a');
  let oid = Fs.lookup_oid s "/f" in
  let heap = Invfs.Inv_file.heap (Option.get (Fs.file_handle fs ~oid)) in
  let blocks_before = Relstore.Heap.nblocks heap in
  let h1 = Fs.snapshot fs in
  Alcotest.(check int) "snapshot copies nothing" blocks_before
    (Relstore.Heap.nblocks heap);
  Fs.write_file s "/f" (Bytes.make 9000 'b');
  let h2 = Fs.snapshot fs in
  Alcotest.(check bool) "horizons are monotonic" true (h2 > h1);
  Alcotest.(check string) "first snapshot reads the first state"
    (String.make 9000 'a')
    (str (Fs.read_whole_file s ~timestamp:h1 "/f"));
  Alcotest.(check string) "second snapshot reads the second state"
    (String.make 9000 'b')
    (str (Fs.read_whole_file s ~timestamp:h2 "/f"))

let test_pin_snapshot_blocks_discard_vacuum () =
  let fs, s = fresh () in
  Fs.write_file s "/f" (bytes_of "old");
  let h = Fs.snapshot fs in
  let lease = Relstore.Db.acquire_lease (Fs.db fs) ~horizon:h in
  Fs.write_file s "/f" (bytes_of "new");
  advance fs 1.;
  let oid = Fs.lookup_oid s "/f" in
  let st = Fs.vacuum_file fs ~oid ~mode:`Discard () in
  Alcotest.(check int) "pinned history survives the discard vacuum" 0
    st.Relstore.Vacuum.discarded;
  Alcotest.(check string) "still readable" "old"
    (str (Fs.read_whole_file s ~timestamp:h "/f"));
  Relstore.Db.release_lease (Fs.db fs) lease;
  let st = Fs.vacuum_file fs ~oid ~mode:`Discard () in
  Alcotest.(check bool) "unpinned history is reclaimed" true
    (st.Relstore.Vacuum.discarded >= 1)

let test_clone_shares_then_diverges () =
  let fs, s = fresh () in
  let big = Bytes.make (Invfs.Chunk.capacity * 2) 'a' in
  Fs.write_file s "/base" big;
  ignore (Fs.clone s ~src:"/base" ~dst:"/copy" : int64);
  (* O(1): the clone's own relation holds no chunks until a write *)
  let coid = Fs.lookup_oid s "/copy" in
  let cheap = Invfs.Inv_file.heap (Option.get (Fs.file_handle fs ~oid:coid)) in
  Alcotest.(check int) "no chunks copied at clone time" 0
    (Relstore.Heap.nblocks cheap);
  Alcotest.(check string) "clone reads through to the base" (str big)
    (str (Fs.read_whole_file s "/copy"));
  (* writes to the clone leave the base alone... *)
  let fd = Fs.p_open s "/copy" Fs.Rdwr in
  ignore (Fs.p_write s fd (bytes_of "XX") 2 : int);
  Fs.p_close s fd;
  Alcotest.(check string) "clone diverged" "XX"
    (String.sub (str (Fs.read_whole_file s "/copy")) 0 2);
  Alcotest.(check string) "base untouched" (str big)
    (str (Fs.read_whole_file s "/base"));
  (* ...and writes to the base after the clone point stay invisible to
     the clone (it reads the base as of its creation horizon) *)
  Fs.write_file s "/base" (bytes_of "rewritten");
  let c = str (Fs.read_whole_file s "/copy") in
  Alcotest.(check int) "clone still full-length" (Bytes.length big) (String.length c);
  Alcotest.(check string) "clone tail still the old base bytes" "aaaa"
    (String.sub c (String.length c - 4) 4)

let test_clone_errors () =
  let _, s = fresh () in
  Fs.write_file s "/f" (bytes_of "x");
  Fs.mkdir s "/d";
  expect_error E.ENOENT (fun () -> Fs.clone s ~src:"/missing" ~dst:"/c");
  expect_error E.EEXIST (fun () -> Fs.clone s ~src:"/f" ~dst:"/f");
  expect_error E.EISDIR (fun () -> Fs.clone s ~src:"/d" ~dst:"/c");
  Fs.p_begin s;
  expect_error E.ETXN (fun () -> Fs.clone s ~src:"/f" ~dst:"/c");
  Fs.p_abort s

let test_clone_truncate_severs_but_history_stays () =
  (* shrinking a clone below its base length materializes the surviving
     bytes and severs the mapping — but a snapshot taken before the
     severance must still read the full read-through view *)
  let fs, s = fresh () in
  Fs.write_file s "/base" (bytes_of "0123456789");
  ignore (Fs.clone s ~src:"/base" ~dst:"/copy" : int64);
  let h_shared = Fs.snapshot fs in
  let fd = Fs.p_open s "/copy" Fs.Rdwr in
  Fs.ftruncate s fd 4L;
  Fs.p_close s fd;
  Alcotest.(check string) "severed clone keeps the surviving prefix" "0123"
    (str (Fs.read_whole_file s "/copy"));
  Alcotest.(check string) "pre-severance snapshot reads the full clone"
    "0123456789"
    (str (Fs.read_whole_file s ~timestamp:h_shared "/copy"));
  (* growing it again pads with zeros, never resurrects base bytes *)
  let fd = Fs.p_open s "/copy" Fs.Rdwr in
  Fs.ftruncate s fd 6L;
  Fs.p_close s fd;
  let back = str (Fs.read_whole_file s "/copy") in
  Alcotest.(check string) "regrown tail is zeros" "0123\000\000" back;
  Alcotest.(check string) "base never moved" "0123456789"
    (str (Fs.read_whole_file s "/base"))

let test_clone_survives_crash () =
  let fs, s = fresh () in
  Fs.write_file s "/base" (bytes_of "shared bytes");
  ignore (Fs.clone s ~src:"/base" ~dst:"/copy" : int64);
  ignore (Fs.crash_and_recover fs : Fs.recovery);
  let s = Fs.new_session fs in
  Alcotest.(check string) "clone mapping is durable" "shared bytes"
    (str (Fs.read_whole_file s "/copy"));
  (* the re-registered lease still guards the base history *)
  Fs.write_file s "/base" (bytes_of "changed");
  advance fs 1.;
  let oid = Fs.lookup_oid s "/base" in
  ignore (Fs.vacuum_file fs ~oid ~mode:`Discard () : Relstore.Vacuum.stats);
  Alcotest.(check string) "clone still reads its base horizon" "shared bytes"
    (str (Fs.read_whole_file s "/copy"))

(* ---- fsck ---- *)

let test_fsck_clean_system () =
  let fs, s = fresh () in
  Fs.mkdir s "/d";
  Fs.write_file s "/d/f" (Bytes.make 10000 'q');
  let report = Invfs.Fsck.audit fs in
  Alcotest.(check bool) (Invfs.Fsck.report_to_string report) true (Invfs.Fsck.is_clean report);
  Alcotest.(check bool) "counted files" true (report.Invfs.Fsck.files_checked >= 3)

let test_vacuum_all_sweeps_everything () =
  let fs, s = fresh () in
  (* history on live files, plus an unlinked file whose storage only a
     full sweep reclaims *)
  Fs.write_file s "/keep" (bytes_of "v1");
  Fs.write_file s "/keep" (bytes_of "v2");
  Fs.write_file s "/doomed" (Bytes.make 9000 'd');
  Fs.unlink s "/doomed";
  advance fs 1.;
  let stats = Fs.vacuum_all fs ~mode:`Discard () in
  Alcotest.(check bool)
    (Printf.sprintf "discarded %d" stats.Relstore.Vacuum.discarded)
    true
    (stats.Relstore.Vacuum.discarded >= 3);
  (* live data untouched; system still consistent *)
  Alcotest.(check string) "live file intact" "v2" (str (Fs.read_whole_file s "/keep"));
  let report = Invfs.Fsck.audit fs in
  Alcotest.(check bool) (Invfs.Fsck.report_to_string report) true (Invfs.Fsck.is_clean report);
  (* the sweep covers the clone map too: a severed clone's map row moves
     to the jukebox, and the pre-severance view survives a crash *)
  let fs =
    make_fs
      ~devices:
        [
          ("disk0", Pagestore.Device.Magnetic_disk);
          ("jukebox", Pagestore.Device.Worm_jukebox);
        ]
      ()
  in
  let s = Fs.new_session fs in
  Fs.write_file s "/base" (bytes_of "0123456789");
  ignore (Fs.clone s ~src:"/base" ~dst:"/copy" : int64);
  let h_shared = Fs.snapshot fs in
  let fd = Fs.p_open s "/copy" Fs.Rdwr in
  Fs.ftruncate s fd 4L;
  Fs.p_close s fd;
  advance fs 1.;
  ignore (Fs.vacuum_all fs ~mode:`Archive () : Relstore.Vacuum.stats);
  Alcotest.(check bool) "the clone map's dead row archived" true
    (List.exists
       (fun rel ->
         let arch = Index.Indexed.archive rel in
         String.equal (Relstore.Heap.name (Index.Indexed.heap rel)) "clonemap"
         && Lazy.is_val arch
         && Relstore.Heap.nblocks (Lazy.force arch) > 0)
       (Fs.relations fs));
  let r = Invfs.Recovery.crash_and_recover fs in
  Alcotest.(check bool) (Invfs.Recovery.report_to_string r) true (Invfs.Recovery.is_clean r);
  let s = Fs.new_session fs in
  Alcotest.(check string) "pre-severance view survives vacuum and crash" "0123456789"
    (str (Fs.read_whole_file s ~timestamp:h_shared "/copy"));
  Alcotest.(check string) "severed clone intact" "0123" (str (Fs.read_whole_file s "/copy"))

let test_ftruncate () =
  let _, s = fresh () in
  let size = (2 * Invfs.Chunk.capacity) + 100 in
  Fs.write_file s "/f" (Bytes.make size 'x');
  let fd = Fs.p_open s "/f" Fs.Rdwr in
  Fs.ftruncate s fd 10L;
  Alcotest.(check int64) "shrunk" 10L (Fs.stat s "/f").Invfs.Fileatt.size;
  (* grow again: the cut region must read as zeros, not stale bytes *)
  Fs.ftruncate s fd 20L;
  ignore (Fs.p_lseek s fd 0L Fs.Seek_set);
  let buf = Bytes.create 20 in
  let n = Fs.p_read s fd buf 20 in
  Alcotest.(check int) "20 bytes" 20 n;
  Alcotest.(check string) "prefix kept, rest zero"
    (String.make 10 'x' ^ String.make 10 '\000')
    (Bytes.to_string buf);
  Fs.p_close s fd

(* ---- crash-consistency property: committed prefix survives ---- *)

let prop_crash_preserves_committed_prefix =
  QCheck.Test.make ~name:"crash keeps exactly the committed transactions" ~count:20
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 1 10) (pair (int_bound 2) (string_of_size (Gen.return 40)))))
    (fun (commit_every, writes) ->
      let fs, s = fresh () in
      let model = Hashtbl.create 8 in
      let staged = ref [] in
      let i = ref 0 in
      Fs.p_begin s;
      List.iter
        (fun (slot, content) ->
          let path = Printf.sprintf "/f%d" slot in
          Fs.write_file s path (bytes_of content);
          staged := (path, content) :: !staged;
          incr i;
          if !i mod commit_every = 0 then begin
            Fs.p_commit s;
            List.iter (fun (p, c) -> Hashtbl.replace model p c) (List.rev !staged);
            staged := [];
            Fs.p_begin s
          end)
        writes;
      (* crash with the tail transaction uncommitted *)
      Fs.crash fs;
      let s2 = Fs.new_session fs in
      let ok = ref true in
      Hashtbl.iter
        (fun path expect -> if str (Fs.read_whole_file s2 path) <> expect then ok := false)
        model;
      (* files only ever touched by the doomed tail must not exist *)
      List.iter
        (fun (path, _) ->
          if (not (Hashtbl.mem model path)) && Fs.exists s2 path then ok := false)
        !staged;
      !ok && Invfs.Fsck.is_clean (Invfs.Fsck.audit fs))

(* ---- whole-FS property ---- *)

let prop_fs_matches_model =
  QCheck.Test.make ~name:"fs contents match an in-memory model" ~count:25
    QCheck.(
      list_of_size
        Gen.(int_range 1 15)
        (pair (int_bound 3) (string_of_size Gen.(int_range 0 300))))
    (fun ops ->
      let _, s = fresh () in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (slot, content) ->
          let path = Printf.sprintf "/file%d" slot in
          Fs.write_file s path (bytes_of content);
          Hashtbl.replace model path content)
        ops;
      Hashtbl.fold
        (fun path expect acc -> acc && str (Fs.read_whole_file s path) = expect)
        model true)

(* ---- whole-file operations ---- *)

let test_write_file_errors () =
  let _, s = fresh () in
  Fs.mkdir s "/d";
  Fs.write_file s "/d/f" (bytes_of "x");
  expect_error E.EISDIR (fun () -> Fs.write_file s "/d" (bytes_of "y"));
  expect_error E.EISDIR (fun () -> Fs.write_file s "/" (bytes_of "y"));
  expect_error E.ENOENT (fun () -> Fs.write_file s "/nope/f" (bytes_of "y"));
  expect_error E.ENOTDIR (fun () -> Fs.write_file s "/d/f/g" (bytes_of "y"));
  expect_error E.EISDIR (fun () -> Fs.read_whole_file s "/d");
  Alcotest.(check string) "failed writes left the file alone" "x"
    (str (Fs.read_whole_file s "/d/f"))

let test_write_file_overwrite_shrinks () =
  let _, s = fresh () in
  Fs.write_file s "/f" (Bytes.make (3 * Fs.chunk_capacity) 'a');
  Fs.write_file s "/f" (bytes_of "short");
  Alcotest.(check string) "contents" "short" (str (Fs.read_whole_file s "/f"));
  Alcotest.(check int64) "size" 5L (Fs.stat s "/f").Invfs.Fileatt.size

let test_read_whole_file_sees_own_txn () =
  let _, s = fresh () in
  Fs.write_file s "/old" (bytes_of "committed");
  Fs.with_transaction s (fun () ->
      Fs.write_file s "/new" (bytes_of "fresh");
      Fs.write_file s "/old" (bytes_of "rewritten");
      Alcotest.(check string) "own create" "fresh" (str (Fs.read_whole_file s "/new"));
      Alcotest.(check string) "own overwrite" "rewritten"
        (str (Fs.read_whole_file s "/old")));
  Alcotest.(check string) "committed" "rewritten" (str (Fs.read_whole_file s "/old"))

(* Files created inside a transaction keep their attribute row in the
   session until commit or abort; every later use of it must agree with
   what the catalog holds. *)
let test_created_in_txn () =
  let _, s = fresh () in
  Fs.with_transaction s (fun () ->
      let fd = Fs.p_creat s "/kept" in
      ignore (Fs.p_write s fd (bytes_of "abc") 3 : int);
      Fs.p_close s fd;
      Fs.set_owner s "/kept" "alice";
      Alcotest.(check int64) "size in txn" 3L (Fs.stat s "/kept").Invfs.Fileatt.size;
      Fs.write_file s "/gone" (bytes_of "x");
      Fs.unlink s "/gone");
  let att = Fs.stat s "/kept" in
  Alcotest.(check int64) "size" 3L att.Invfs.Fileatt.size;
  Alcotest.(check string) "owner" "alice" att.Invfs.Fileatt.owner;
  Alcotest.(check bool) "unlinked in txn" false (Fs.exists s "/gone");
  Fs.with_transaction s (fun () -> Fs.write_file s "/kept" (bytes_of "abcdef"));
  let att = Fs.stat s "/kept" in
  Alcotest.(check int64) "rewritten size" 6L att.Invfs.Fileatt.size;
  Alcotest.(check string) "owner kept" "alice" att.Invfs.Fileatt.owner;
  Fs.p_begin s;
  Fs.write_file s "/aborted" (bytes_of "y");
  Fs.p_abort s;
  Alcotest.(check bool) "aborted create" false (Fs.exists s "/aborted");
  Fs.write_file s "/aborted" (bytes_of "z");
  Alcotest.(check string) "recreated" "z" (str (Fs.read_whole_file s "/aborted"))

let cpu fs = Simclock.Clock.charged (Fs.clock fs) "dbms.cpu"

(* A whole-file read is one transaction that reads the attribute row
   once: no more CPU than one p_read of the same file on an open fd. *)
let test_read_whole_file_one_txn () =
  let fs, s = fresh () in
  let clock = Fs.clock fs in
  let data = Bytes.make (2 * Fs.chunk_capacity) 'r' in
  Fs.write_file s "/f" data;
  Fs.sync fs;
  let commits = Simclock.Clock.ticks clock "txn.commit" in
  let c0 = cpu fs in
  Alcotest.(check int) "contents" (Bytes.length data)
    (Bytes.length (Fs.read_whole_file s "/f"));
  let whole = cpu fs -. c0 in
  Alcotest.(check int) "one commit" 1 (Simclock.Clock.ticks clock "txn.commit" - commits);
  let fd = Fs.p_open s "/f" Fs.Rdonly in
  let buf = Bytes.create (Bytes.length data) in
  let c0 = cpu fs in
  ignore (Fs.p_read s fd buf (Bytes.length buf) : int);
  let one_read = cpu fs -. c0 in
  Fs.p_close s fd;
  Alcotest.(check bool)
    (Printf.sprintf "read_whole_file cpu %.4f s <= p_read %.4f s" whole one_read)
    true
    (whole <= one_read +. 1e-9)

(* write_file resolves its path once: a new file costs no more CPU than
   the same create, write, truncate and commit issued by hand. *)
let test_write_file_one_resolution () =
  let fs, s = fresh () in
  Fs.mkdir s "/d";
  let data = Bytes.make 100 'w' in
  let c0 = cpu fs in
  Fs.write_file s "/d/a" data;
  let whole = cpu fs -. c0 in
  let c0 = cpu fs in
  Fs.p_begin s;
  let fd = Fs.p_creat s "/d/b" in
  ignore (Fs.p_write s fd data (Bytes.length data) : int);
  Fs.ftruncate s fd (Int64.of_int (Bytes.length data));
  Fs.p_close s fd;
  Fs.p_commit s;
  let by_hand = cpu fs -. c0 in
  Alcotest.(check bool)
    (Printf.sprintf "write_file cpu %.4f s <= by hand %.4f s" whole by_hand)
    true
    (whole <= by_hand +. 1e-9)

let () =
  Alcotest.run "invfs"
    [
      ( "chunk",
        [
          Alcotest.test_case "roundtrip" `Quick test_chunk_roundtrip;
          Alcotest.test_case "capacity" `Quick test_chunk_capacity;
        ] );
      ( "compress",
        [
          Alcotest.test_case "text roundtrips" `Quick test_compress_roundtrip_texts;
          Alcotest.test_case "shrinks redundancy" `Quick test_compress_shrinks_redundant;
          Alcotest.test_case "bounded growth" `Quick test_compress_bounded_growth;
          Alcotest.test_case "corrupt rejected" `Quick test_compress_corrupt_rejected;
        ] );
      ( "file i/o",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "multi-chunk file" `Quick test_large_multi_chunk_file;
          Alcotest.test_case "small file is two blocks" `Quick test_small_file_two_blocks;
          Alcotest.test_case "random offsets" `Quick test_random_offset_rw;
          Alcotest.test_case "sparse files" `Quick test_sparse_file_reads_zeros;
          Alcotest.test_case "read past EOF" `Quick test_read_past_eof;
          Alcotest.test_case "seek whence" `Quick test_seek_whence;
          Alcotest.test_case "ftruncate" `Quick test_ftruncate;
          Alcotest.test_case "bad fd" `Quick test_bad_fd;
          Alcotest.test_case "read-only enforced" `Quick test_readonly_write_rejected;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "mkdir and paths" `Quick test_mkdir_and_paths;
          Alcotest.test_case "Table 1 structure" `Quick test_table1_naming_structure;
          Alcotest.test_case "error codes" `Quick test_namespace_errors;
          Alcotest.test_case "unlink/rmdir" `Quick test_unlink_and_rmdir;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename directory subtree" `Quick
            test_rename_directory_moves_subtree;
          Alcotest.test_case "deep paths" `Quick test_deep_paths;
          Alcotest.test_case "big directory sorted" `Quick test_big_directory_sorted;
          Alcotest.test_case "device placement" `Quick test_device_placement;
          Alcotest.test_case "17.6TB limit" `Quick test_file_size_limit;
          Alcotest.test_case "stat root" `Quick test_stat_root;
          Alcotest.test_case "attribute lookup cost flat in history" `Quick
            test_fileatt_get_cost_flat;
          Alcotest.test_case "As_of lookup copies one record" `Quick
            test_asof_lookup_copies_one_record;
          Alcotest.test_case "offsets past 4GB" `Quick test_sparse_far_offset;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "atomic multi-file checkin" `Quick test_txn_atomic_multifile;
          Alcotest.test_case "no nesting" `Quick test_txn_no_nesting;
          Alcotest.test_case "namespace rollback" `Quick test_txn_namespace_rollback;
          Alcotest.test_case "write coalescing" `Quick test_write_coalescing;
        ] );
      ( "time travel",
        [
          Alcotest.test_case "file contents" `Quick test_time_travel_file_contents;
          Alcotest.test_case "undelete" `Quick test_time_travel_undelete;
          Alcotest.test_case "directory listing" `Quick test_time_travel_directory_listing;
          Alcotest.test_case "metadata history" `Quick test_time_travel_metadata;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "uncommitted rolled back" `Quick test_crash_rolls_back_uncommitted;
          Alcotest.test_case "history preserved" `Quick test_crash_preserves_history;
        ] );
      ( "queries",
        [
          Alcotest.test_case "keywords (paper query)" `Quick test_query_keywords;
          Alcotest.test_case "owner and dir (paper query)" `Quick test_query_owner_and_dir;
          Alcotest.test_case "size arithmetic" `Quick test_query_size_arith;
          Alcotest.test_case "define type statement" `Quick test_query_define_type_statement;
          Alcotest.test_case "typed dispatch" `Quick test_typed_function_dispatch;
          Alcotest.test_case "set_type validation" `Quick test_set_type_requires_definition;
          Alcotest.test_case "query time travel" `Quick test_query_time_travel;
        ] );
      ( "compression",
        [
          Alcotest.test_case "compressed file roundtrip" `Quick test_compressed_file_roundtrip;
          Alcotest.test_case "storage savings" `Quick test_compression_saves_storage;
        ] );
      ( "migration",
        [
          Alcotest.test_case "between devices" `Quick test_migrate_file_between_devices;
          Alcotest.test_case "rules engine" `Quick test_migration_rules_engine;
          Alcotest.test_case "archived history survives" `Quick
            test_migrate_keeps_archived_history;
          Alcotest.test_case "round trip keeps one archive" `Quick
            test_migrate_round_trip_keeps_one_archive;
          Alcotest.test_case "open fd reads after migration" `Quick test_migrate_fd_read;
          Alcotest.test_case "open fd writes after migration" `Quick test_migrate_fd_write;
        ] );
      ( "vacuum",
        [
          Alcotest.test_case "discard reclaims" `Quick test_vacuum_file_reclaims_history;
          Alcotest.test_case "archive keeps time travel" `Quick test_vacuum_archive_time_travel;
          Alcotest.test_case "vacuum_all sweeps" `Quick test_vacuum_all_sweeps_everything;
        ] );
      ( "snapshots and clones",
        [
          Alcotest.test_case "O(1) snapshot" `Quick test_snapshot_o1;
          Alcotest.test_case "pinned snapshot blocks discard vacuum" `Quick
            test_pin_snapshot_blocks_discard_vacuum;
          Alcotest.test_case "clone shares then diverges" `Quick
            test_clone_shares_then_diverges;
          Alcotest.test_case "clone error cases" `Quick test_clone_errors;
          Alcotest.test_case "truncate severs, history stays" `Quick
            test_clone_truncate_severs_but_history_stays;
          Alcotest.test_case "clone survives crash" `Quick test_clone_survives_crash;
        ] );
      ("fsck", [ Alcotest.test_case "clean audit" `Quick test_fsck_clean_system ]);
      ( "whole-file ops",
        [
          Alcotest.test_case "write_file error codes" `Quick test_write_file_errors;
          Alcotest.test_case "overwrite shrinks" `Quick test_write_file_overwrite_shrinks;
          Alcotest.test_case "read sees own transaction" `Quick
            test_read_whole_file_sees_own_txn;
          Alcotest.test_case "created in a transaction" `Quick test_created_in_txn;
          Alcotest.test_case "read is one transaction" `Quick test_read_whole_file_one_txn;
          Alcotest.test_case "write resolves once" `Quick test_write_file_one_resolution;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_compress_roundtrip;
            prop_fs_matches_model;
            prop_crash_preserves_committed_prefix;
          ] );
    ]
