(* The ULTRIX NFS baseline: FFS model, PRESTOserve, NFS client/server. *)

module D = Pagestore.Device
module Ffs = Nfsbaseline.Ffs
module Presto = Nfsbaseline.Presto
module Nfs = Nfsbaseline.Nfs

let fresh_ffs () =
  let clock = Simclock.Clock.create () in
  let device = D.create ~clock ~name:"rz58" ~kind:D.Magnetic_disk () in
  (clock, Ffs.create ~device)

(* ---- FFS ---- *)

let test_ffs_create_write_read () =
  let _, ffs = fresh_ffs () in
  let ino = Ffs.create_file ffs "f" ~mode:Ffs.Sync in
  let data = Bytes.of_string "hello ffs" in
  Ffs.write ffs ~ino ~off:0L ~data ~mode:Ffs.Sync;
  Alcotest.(check int64) "size" 9L (Ffs.size ffs ino);
  let buf = Bytes.create 16 in
  let n = Ffs.read ffs ~ino ~off:0L ~buf ~len:16 in
  Alcotest.(check string) "roundtrip" "hello ffs" (Bytes.sub_string buf 0 n)

let test_ffs_lookup () =
  let _, ffs = fresh_ffs () in
  let ino = Ffs.create_file ffs "x" ~mode:Ffs.Sync in
  Alcotest.(check (option int)) "found" (Some ino) (Ffs.lookup ffs "x");
  Alcotest.(check (option int)) "missing" None (Ffs.lookup ffs "y");
  Alcotest.(check bool) "duplicate rejected" true
    (try
       ignore (Ffs.create_file ffs "x" ~mode:Ffs.Sync);
       false
     with Invalid_argument _ -> true)

let test_ffs_multi_block_and_offsets () =
  let _, ffs = fresh_ffs () in
  let ino = Ffs.create_file ffs "big" ~mode:Ffs.Sync in
  let size = (3 * Ffs.block_size) + 500 in
  let data = Bytes.init size (fun i -> Char.chr (i mod 251)) in
  Ffs.write ffs ~ino ~off:0L ~data ~mode:Ffs.Sync;
  let buf = Bytes.create size in
  let n = Ffs.read ffs ~ino ~off:0L ~buf ~len:size in
  Alcotest.(check int) "full read" size n;
  Alcotest.(check bytes) "contents" data buf;
  (* partial overwrite straddling a block boundary *)
  Ffs.write ffs ~ino
    ~off:(Int64.of_int (Ffs.block_size - 3))
    ~data:(Bytes.of_string "ABCDEF") ~mode:Ffs.Sync;
  let buf2 = Bytes.create 6 in
  ignore (Ffs.read ffs ~ino ~off:(Int64.of_int (Ffs.block_size - 3)) ~buf:buf2 ~len:6);
  Alcotest.(check string) "straddle" "ABCDEF" (Bytes.to_string buf2)

let test_ffs_sparse_holes () =
  let _, ffs = fresh_ffs () in
  let ino = Ffs.create_file ffs "sparse" ~mode:Ffs.Sync in
  Ffs.write ffs ~ino
    ~off:(Int64.of_int (20 * Ffs.block_size))
    ~data:(Bytes.of_string "end") ~mode:Ffs.Sync;
  let buf = Bytes.make 10 'x' in
  let n = Ffs.read ffs ~ino ~off:(Int64.of_int Ffs.block_size) ~buf ~len:10 in
  Alcotest.(check int) "hole readable" 10 n;
  Alcotest.(check string) "zeros" (String.make 10 '\000') (Bytes.to_string buf)

let test_ffs_read_past_eof () =
  let _, ffs = fresh_ffs () in
  let ino = Ffs.create_file ffs "f" ~mode:Ffs.Sync in
  Ffs.write ffs ~ino ~off:0L ~data:(Bytes.of_string "12345") ~mode:Ffs.Sync;
  let buf = Bytes.create 10 in
  Alcotest.(check int) "short read" 2 (Ffs.read ffs ~ino ~off:3L ~buf ~len:10);
  Alcotest.(check int) "eof" 0 (Ffs.read ffs ~ino ~off:10L ~buf ~len:10)

let test_ffs_sync_writes_cost_more_than_async () =
  let cost mode =
    let clock, ffs = fresh_ffs () in
    let ino = Ffs.create_file ffs "f" ~mode in
    let data = Bytes.create Ffs.block_size in
    Simclock.Clock.reset clock;
    for i = 0 to 63 do
      Ffs.write ffs ~ino ~off:(Int64.of_int (i * Ffs.block_size)) ~data ~mode
    done;
    Simclock.Clock.now clock
  in
  Alcotest.(check bool) "sync slower" true (cost Ffs.Sync > 2. *. cost Ffs.Async)

let test_ffs_cache_makes_rereads_free () =
  let clock, ffs = fresh_ffs () in
  let ino = Ffs.create_file ffs "f" ~mode:Ffs.Sync in
  Ffs.write ffs ~ino ~off:0L ~data:(Bytes.create Ffs.block_size) ~mode:Ffs.Sync;
  let buf = Bytes.create Ffs.block_size in
  ignore (Ffs.read ffs ~ino ~off:0L ~buf ~len:Ffs.block_size);
  Simclock.Clock.reset clock;
  ignore (Ffs.read ffs ~ino ~off:0L ~buf ~len:Ffs.block_size);
  Alcotest.(check (float 1e-9)) "warm read free" 0. (Simclock.Clock.now clock);
  Ffs.drop_caches ffs;
  ignore (Ffs.read ffs ~ino ~off:0L ~buf ~len:Ffs.block_size);
  Alcotest.(check bool) "cold read costs" true (Simclock.Clock.now clock > 0.)

let test_ffs_indirect_blocks_cost_extra () =
  (* a cold read beyond the 12 direct blocks must consult a pointer
     block: one extra I/O versus a direct-block read *)
  let clock, ffs = fresh_ffs () in
  let ino = Ffs.create_file ffs "big" ~mode:Ffs.Sync in
  let data = Bytes.create Ffs.block_size in
  for i = 0 to 19 do
    Ffs.write ffs ~ino ~off:(Int64.of_int (i * Ffs.block_size)) ~data ~mode:Ffs.Sync
  done;
  let buf = Bytes.create 64 in
  Ffs.drop_caches ffs;
  Simclock.Clock.reset clock;
  ignore (Ffs.read ffs ~ino ~off:0L ~buf ~len:64);
  let direct = Simclock.Clock.now clock in
  Ffs.drop_caches ffs;
  Simclock.Clock.reset clock;
  ignore (Ffs.read ffs ~ino ~off:(Int64.of_int (15 * Ffs.block_size)) ~buf ~len:64);
  let indirect = Simclock.Clock.now clock in
  Alcotest.(check bool)
    (Printf.sprintf "indirect %.4fs > direct %.4fs" indirect direct)
    true (indirect > direct)

(* ---- PRESTOserve ---- *)

let test_presto_absorbs_until_full () =
  let clock = Simclock.Clock.create () in
  let p = Presto.create ~clock ~capacity_bytes:(4 * 8192) () in
  let drained = ref 0 in
  for i = 0 to 3 do
    Presto.write p ~key:(string_of_int i) ~bytes:8192 ~flush:(fun () -> incr drained)
  done;
  Alcotest.(check int) "all absorbed" 0 !drained;
  Presto.write p ~key:"4" ~bytes:8192 ~flush:(fun () -> incr drained);
  Alcotest.(check int) "oldest drained" 1 !drained;
  Alcotest.(check int) "drain counter" 1 (Presto.drains p)

let test_presto_rewrite_takes_no_space () =
  let clock = Simclock.Clock.create () in
  let p = Presto.create ~clock ~capacity_bytes:(4 * 8192) () in
  let drained = ref 0 in
  for _ = 1 to 100 do
    Presto.write p ~key:"same" ~bytes:8192 ~flush:(fun () -> incr drained)
  done;
  Alcotest.(check int) "no drains for rewrites" 0 !drained;
  Alcotest.(check int) "used = one entry" 8192 (Presto.used p);
  Alcotest.(check int) "absorbed all" 100 (Presto.absorbed p)

let test_presto_fifo_order () =
  let clock = Simclock.Clock.create () in
  let p = Presto.create ~clock ~capacity_bytes:(2 * 100) () in
  let order = ref [] in
  let w k = Presto.write p ~key:k ~bytes:100 ~flush:(fun () -> order := k :: !order) in
  w "a";
  w "b";
  w "c";
  (* evicts a *)
  w "d";
  (* evicts b *)
  Alcotest.(check (list string)) "fifo drains" [ "a"; "b" ] (List.rev !order)

let test_presto_drain_all () =
  let clock = Simclock.Clock.create () in
  let p = Presto.create ~clock () in
  let drained = ref 0 in
  for i = 0 to 9 do
    Presto.write p ~key:(string_of_int i) ~bytes:100 ~flush:(fun () -> incr drained)
  done;
  Presto.drain_all p;
  Alcotest.(check int) "all drained" 10 !drained;
  Alcotest.(check int) "empty" 0 (Presto.used p)

(* ---- NFS ---- *)

let fresh_nfs ?(presto = true) () =
  let clock = Simclock.Clock.create () in
  let device = D.create ~clock ~name:"rz58" ~kind:D.Magnetic_disk () in
  let ffs = Ffs.create ~device in
  let presto_board = if presto then Some (Presto.create ~clock ()) else None in
  let server = Nfs.make_server ~ffs ?presto:presto_board () in
  let net = Netsim.create ~clock Netsim.udp_rpc_1993 in
  (clock, server, Nfs.connect ~server ~net)

let test_nfs_create_write_read () =
  let _, _, client = fresh_nfs () in
  let fh = Nfs.create client "remote.dat" in
  let data = Bytes.init 20000 (fun i -> Char.chr (i mod 256)) in
  Nfs.write client fh ~off:0L ~data;
  Alcotest.(check int64) "getattr size" 20000L (Nfs.getattr client fh);
  let buf = Bytes.create 20000 in
  let n = Nfs.read client fh ~off:0L ~buf ~len:20000 in
  Alcotest.(check int) "read all" 20000 n;
  Alcotest.(check bytes) "contents" data buf

let test_nfs_lookup () =
  let _, _, client = fresh_nfs () in
  let fh = Nfs.create client "f" in
  Alcotest.(check (option int)) "lookup" (Some fh) (Nfs.lookup client "f");
  Alcotest.(check (option int)) "missing" None (Nfs.lookup client "g")

let test_nfs_splits_large_transfers () =
  let _, _, client = fresh_nfs () in
  let fh = Nfs.create client "f" in
  let before = Nfs.rpc_count client in
  Nfs.write client fh ~off:0L ~data:(Bytes.create (64 * 1024));
  let rpcs = Nfs.rpc_count client - before in
  Alcotest.(check int) "8 RPCs for 64KB" 8 rpcs

let test_nfs_every_op_charges_network () =
  let clock, _, client = fresh_nfs () in
  let fh = Nfs.create client "f" in
  let t0 = Simclock.Clock.now clock in
  Nfs.write client fh ~off:0L ~data:(Bytes.create 100);
  let t1 = Simclock.Clock.now clock in
  let buf = Bytes.create 100 in
  ignore (Nfs.read client fh ~off:0L ~buf ~len:100);
  let t2 = Simclock.Clock.now clock in
  Alcotest.(check bool) "write charged" true (t1 > t0);
  Alcotest.(check bool) "read charged" true (t2 > t1)

let test_nfs_presto_speeds_writes () =
  let run presto =
    let clock, _, client = fresh_nfs ~presto () in
    let fh = Nfs.create client "f" in
    Simclock.Clock.reset clock;
    Nfs.write client fh ~off:0L ~data:(Bytes.create (256 * 1024));
    Simclock.Clock.now clock
  in
  Alcotest.(check bool) "nvram faster" true (run true < run false)

let test_nfs_stateless_no_open_state () =
  (* a file handle obtained before a cache drop keeps working: the
     server holds no per-client state *)
  let _, server, client = fresh_nfs () in
  let fh = Nfs.create client "f" in
  Nfs.write client fh ~off:0L ~data:(Bytes.of_string "persist");
  Nfs.drop_caches server;
  let buf = Bytes.create 7 in
  let n = Nfs.read client fh ~off:0L ~buf ~len:7 in
  Alcotest.(check string) "handle survives" "persist" (Bytes.sub_string buf 0 n)

let () =
  Alcotest.run "nfsbaseline"
    [
      ( "ffs",
        [
          Alcotest.test_case "create/write/read" `Quick test_ffs_create_write_read;
          Alcotest.test_case "lookup" `Quick test_ffs_lookup;
          Alcotest.test_case "multi-block + straddle" `Quick test_ffs_multi_block_and_offsets;
          Alcotest.test_case "sparse holes" `Quick test_ffs_sparse_holes;
          Alcotest.test_case "read past EOF" `Quick test_ffs_read_past_eof;
          Alcotest.test_case "sync dearer than async" `Quick
            test_ffs_sync_writes_cost_more_than_async;
          Alcotest.test_case "buffer cache" `Quick test_ffs_cache_makes_rereads_free;
          Alcotest.test_case "indirect block cost" `Quick test_ffs_indirect_blocks_cost_extra;
        ] );
      ( "presto",
        [
          Alcotest.test_case "absorbs until full" `Quick test_presto_absorbs_until_full;
          Alcotest.test_case "rewrite takes no space" `Quick test_presto_rewrite_takes_no_space;
          Alcotest.test_case "FIFO drain order" `Quick test_presto_fifo_order;
          Alcotest.test_case "drain_all" `Quick test_presto_drain_all;
        ] );
      ( "nfs",
        [
          Alcotest.test_case "create/write/read" `Quick test_nfs_create_write_read;
          Alcotest.test_case "lookup" `Quick test_nfs_lookup;
          Alcotest.test_case "8KB transfer limit" `Quick test_nfs_splits_large_transfers;
          Alcotest.test_case "ops charge network" `Quick test_nfs_every_op_charges_network;
          Alcotest.test_case "PRESTOserve speeds writes" `Quick test_nfs_presto_speeds_writes;
          Alcotest.test_case "stateless handles" `Quick test_nfs_stateless_no_open_state;
        ] );
    ]
