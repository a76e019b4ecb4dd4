(* The [bulk] workload: client/server, one session — the paper's Table-3
   data path on an 8 MB file (about 3.4x the 300-page pool, and 2x the
   4 MB OS cache this workload runs with, so it fits in neither cache).

   The run creates the file with auto-committed page-sized writes (Figure
   3), flushes caches, reads the whole file sequentially a page at a time,
   then does random page reads, random page writes in client transactions
   of 16, and single-byte reads and writes.  Nearly all the work is wire
   framing, pipelining and CRC, Inv_file chunking, the chunk Btree,
   read-ahead and eviction, and device transfer; naming and locks do
   almost nothing.  Random page reads outnumber the first blocks of the
   sequential read-ahead bursts (which all cost the same) sixteen to one,
   so the read p95 lands among disk reads whose seeks depend on the
   inputs. *)

open Bench
module Rng = Simclock.Rng
module Client = Remote.Client

type cfg = { pages : int; rand_reads : int; txns : int; txn_len : int; byte_ops : int }

let full = { pages = 1032; rand_reads = 2048; txns = 16; txn_len = 16; byte_ops = 128 }
let tiny = { pages = 40; rand_reads = 16; txns = 2; txn_len = 4; byte_ops = 8 }
let page = Fs.chunk_capacity
let os_cache_blocks = 512
let path = "/bulk.dat"

let build ~seed =
  let clock, db, fs = build_db ~os_cache_blocks () in
  (* lease reaping off: the connection is fault-free and never idle *)
  let server = Remote.Server.create ~fs ~lease_s:0. () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let link = Netsim.Link.create net in
  let c = Client.connect ~server ~link ~rng:(Rng.create seed) () in
  ({ clock; db; fs; net = Some net; server = Some server }, c)

(* Building this system costs a few milliseconds, so set-up is timed as
   the median of several builds (the last one is kept). *)
let setup_builds = 5

let run (cfg : cfg) ~seed ~tracer:tr =
  let times = ref [] and built = ref None in
  for _ = 1 to setup_builds do
    let w0 = wall () in
    built := Some (build ~seed);
    times := (wall () -. w0) :: !times
  done;
  let sys, c = Option.get !built in
  let setup_s = median !times in
  let rng = Rng.create (Int64.add seed 1L) in
  let ck = checker () in
  let size = cfg.pages * page in
  let expect = Bytes.make size '\000' in
  let samples = ref [] and ops = ref 0 and user = ref 0 and written = ref 0 in
  let timed kind cls f =
    let s, v = time_op tr sys ~op:!ops ~kind ~cls f in
    incr ops;
    samples := s :: !samples;
    v
  in
  let read_at fd ~off ~len =
    let buf = Bytes.create len in
    let n =
      timed (if len = 1 then "byte_read" else "page_read") Read (fun () ->
          ignore (Client.c_lseek c fd (Int64.of_int off) Fs.Seek_set : int64);
          Client.c_read c fd buf len)
    in
    check_bytes ck (Printf.sprintf "read %d@%d" len off) ~expect:(Bytes.sub expect off len)
      (Bytes.sub buf 0 n);
    user := !user + n
  in
  let write_at fd ~kind ~off data =
    let len = Bytes.length data in
    timed kind Write (fun () ->
        ignore (Client.c_lseek c fd (Int64.of_int off) Fs.Seek_set : int64);
        ignore (Client.c_write c fd data len : int));
    user := !user + len;
    written := !written + len
  in
  let a = snapshot sys in
  let fd = timed "creat" Write (fun () -> Client.c_creat c path) in
  for i = 0 to cfg.pages - 1 do
    let data = Rng.bytes rng page in
    write_at fd ~kind:"create_write" ~off:(i * page) data;
    Bytes.blit data 0 expect (i * page) page
  done;
  (* Cold caches for the read phase: settle the commit pipeline, write
     back and drop both the pool and the OS cache. *)
  Relstore.Db.force_group sys.db;
  Pagestore.Bufcache.flush (Relstore.Db.cache sys.db);
  Pagestore.Bufcache.crash (Relstore.Db.cache sys.db);
  for i = 0 to cfg.pages - 1 do
    read_at fd ~off:(i * page) ~len:page
  done;
  for _ = 1 to cfg.rand_reads do
    read_at fd ~off:(Rng.int rng cfg.pages * page) ~len:page
  done;
  for _ = 1 to cfg.txns do
    timed "begin" Write (fun () -> Client.c_begin c);
    let pending = ref [] in
    for _ = 1 to cfg.txn_len do
      let off = Rng.int rng cfg.pages * page in
      let data = Rng.bytes rng page in
      write_at fd ~kind:"txn_write" ~off data;
      pending := (off, data) :: !pending
    done;
    timed "commit" Write (fun () -> Client.c_commit c);
    List.iter
      (fun (off, data) -> Bytes.blit data 0 expect off (Bytes.length data))
      (List.rev !pending)
  done;
  for _ = 1 to cfg.byte_ops do
    read_at fd ~off:(Rng.int rng size) ~len:1;
    let off = Rng.int rng size in
    let data = Rng.bytes rng 1 in
    write_at fd ~kind:"byte_write" ~off data;
    Bytes.set expect off (Bytes.get data 0)
  done;
  Client.c_close c fd;
  let phase = diff a (snapshot sys) in
  let samples = List.rev !samples in
  let files = Hashtbl.create 1 in
  Hashtbl.replace files path expect;
  let space_amp = space_amp sys ~expect:files in
  let recovery_s, recovery_sim_s = crash_and_verify ck sys ~expect:files in
  let sim_s = List.fold_left (fun acc s -> acc +. s.sim_ms) 0. samples /. 1e3 in
  ( {
      setup_s;
      samples;
      lat = samples;
      phase;
      sim_ops_s = float_of_int !ops /. sim_s;
      slo_goodput_ops_s = slo_goodput samples ~span_s:sim_s;
      user_bytes = !user;
      user_written = !written;
      space_amp;
      recovery_s;
      recovery_sim_s;
      failed = 0;
      target = { t_sys = sys; t_paths = [| path |]; t_chunk_path = path };
    },
    ck )
