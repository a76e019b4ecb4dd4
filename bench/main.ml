(* The benchmark harness: regenerates every table and figure in the
   paper's evaluation (Table 3 subsumes Figures 3-6) and runs the
   ablation studies DESIGN.md calls out.  The implementation's own
   wall-clock costs are perfbench's (perfbench/README.md).

   Usage:
     bench/main.exe [all|tab3|fig3|fig4|fig5|fig6|ablate|json|sequoia|shard|load] [--mb N]

   [--mb N] sizes the benchmark file (default 25, the paper's size; the
   create time is scaled for smaller files so reports stay comparable). *)

module W = Benchlib.Workload
module S = Benchlib.Systems
module R = Benchlib.Report

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Paper workload on the three configurations                          *)
(* ------------------------------------------------------------------ *)

(* The headline systems: index inserts descend the B-tree inside each
   operation, and commits always run in groups (Status_log.group_size
   behind one force, Status_log.max_age_s age bound). *)
let run_three ~mb =
  progress "running Inversion client/server (%d MB)..." mb;
  let s_cs = S.inversion_client_server () in
  let inv_cs = W.run ~file_mb:mb s_cs in
  progress "running ULTRIX NFS + PRESTOserve (%d MB)..." mb;
  let s_nfs = S.ultrix_nfs () in
  let nfs = W.run ~file_mb:mb s_nfs in
  progress "running Inversion single-process (%d MB)..." mb;
  let s_sp = S.inversion_single_process () in
  let inv_sp = W.run ~file_mb:mb s_sp in
  let netstats =
    List.map (fun (s : S.t) -> (s.S.sys_name, s.S.net_stats ())) [ s_cs; s_nfs; s_sp ]
  in
  ((inv_cs, nfs, inv_sp), netstats)

let print_figures ((inv_cs, nfs, inv_sp), _netstats) which =
  let fig f =
    print_string (R.figure f ~inv_cs ~nfs ~inv_sp ());
    print_newline ()
  in
  List.iter fig which

let print_tab3 ((inv_cs, nfs, inv_sp), netstats) =
  print_string (R.table3 ~inv_cs ~nfs ~inv_sp);
  print_newline ();
  print_string (R.shape_check ~inv_cs ~nfs ~inv_sp);
  print_newline ();
  print_string (R.net_summary netstats);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablate_presto ~mb =
  print_endline "Ablation: PRESTOserve (the knob the paper couldn't turn)";
  let with_p = W.run ~file_mb:mb (S.ultrix_nfs ~presto:true ()) in
  let without = W.run ~file_mb:mb (S.ultrix_nfs ~presto:false ()) in
  let row op =
    Printf.printf "  %-36s with NVRAM %7.2fs   without %7.2fs   (x%.1f)\n"
      (W.op_label op) (W.find with_p op) (W.find without op)
      (W.find without op /. W.find with_p op)
  in
  List.iter row [ W.Create_file; W.Write_1mb_seq; W.Write_1mb_rand; W.Write_byte ];
  print_newline ()

(* Figure 3's slowdown comes from every auto-committed write forcing the
   status log and flushing index pages alongside data.  Batch the whole
   create into one client transaction and the penalty vanishes. *)
let ablate_create_txn ~mb =
  print_endline "Ablation: create inside one client transaction (vs per-write commits)";
  let sys = S.inversion_single_process () in
  let mbytes = mb * 1024 * 1024 in
  let timed f =
    let t0 = Simclock.Clock.now sys.S.clock in
    f ();
    (Simclock.Clock.now sys.S.clock -. t0) *. (25. /. float_of_int mb)
  in
  let stream path batched =
    timed (fun () ->
        if batched then sys.S.begin_batch ();
        let f = sys.S.create path in
        let off = ref 0 in
        while !off < mbytes do
          let len = min sys.S.io_unit (mbytes - !off) in
          sys.S.write f ~off:(Int64.of_int !off) (Bytes.create len);
          off := !off + len
        done;
        if batched then sys.S.end_batch ())
  in
  let auto = stream "/auto.dat" false in
  let batched = stream "/batched.dat" true in
  Printf.printf "  auto-commit per write (the paper's create): %8.2fs\n" auto;
  Printf.printf "  one transaction around the whole create:    %8.2fs\n" batched;
  print_newline ()

(* Cache sizes matter on the re-read path: a 5 MB file does not fit in
   the 300-page DBMS pool, so the second pass is served by the OS cache
   only when that is big enough. *)
let ablate_cache_size ~mb =
  ignore mb;
  print_endline
    "Ablation: cache sizes (DBMS buffers x OS file-system cache pages), 5MB re-read";
  let one (dbms, os) =
    let clock = Simclock.Clock.create () in
    let db = Relstore.Db.create ~clock ~cache_capacity:dbms ~os_cache_blocks:os () in
    let fs = Invfs.Fs.make db () in
    let s = Invfs.Fs.new_session fs in
    let size = 5 * 1024 * 1024 in
    Invfs.Fs.write_file s "/f" (Bytes.create size);
    let read_pass () =
      let t0 = Simclock.Clock.now clock in
      ignore (Invfs.Fs.read_whole_file s "/f" : bytes);
      Simclock.Clock.now clock -. t0
    in
    let cold = read_pass () in
    let warm = read_pass () in
    Printf.printf "  dbms %4d / os %6d pages: first read %6.2fs  re-read %6.2fs\n" dbms
      os cold warm
  in
  List.iter one [ (64, 128); (300, 128); (300, 1024); (300, 16384) ];
  print_newline ()

let ablate_cpu ~mb =
  print_endline "Ablation: data-manager CPU cost (1.0 = 1993 DECsystem 5900, 0.0 = free)";
  let one scale =
    let r = W.run ~file_mb:mb (S.inversion_single_process ~cpu_scale:scale ()) in
    Printf.printf "  scale %.2f: create %7.2fs  seq read %6.2fs  seq write %6.2fs\n" scale
      (W.find r W.Create_file) (W.find r W.Read_1mb_seq) (W.find r W.Write_1mb_seq)
  in
  List.iter one [ 1.0; 0.25; 0.0 ];
  print_newline ()

let ablate_coalescing () =
  print_endline
    "Ablation: write coalescing (1000 x 512-byte sequential writes of one file)";
  let build in_txn =
    let clock = Simclock.Clock.create () in
    let db = Relstore.Db.create ~clock () in
    let fs = Invfs.Fs.make db () in
    let s = Invfs.Fs.new_session fs in
    let t0 = Simclock.Clock.now clock in
    if in_txn then Invfs.Fs.p_begin s;
    let fd = Invfs.Fs.p_creat s "/f" in
    let data = Bytes.make 512 'x' in
    for _ = 1 to 1000 do
      ignore (Invfs.Fs.p_write s fd data 512 : int)
    done;
    Invfs.Fs.p_close s fd;
    if in_txn then Invfs.Fs.p_commit s;
    Simclock.Clock.now clock -. t0
  in
  Printf.printf "  inside one transaction (coalesced):     %8.3fs\n" (build true);
  Printf.printf "  auto-commit per write (one chunk each): %8.3fs\n" (build false);
  print_newline ()

let ablate_compression () =
  print_endline "Ablation: per-chunk compression (storage vs random-access latency)";
  let build compressed =
    let clock = Simclock.Clock.create () in
    let db = Relstore.Db.create ~clock () in
    let fs = Invfs.Fs.make db () in
    let s = Invfs.Fs.new_session fs in
    let text =
      String.concat "\n"
        (List.init 8000 (fun i -> Printf.sprintf "observation %06d: nominal" i))
    in
    let fd = Invfs.Fs.p_creat s ~compressed "/data" in
    ignore (Invfs.Fs.p_write s fd (Bytes.of_string text) (String.length text) : int);
    Invfs.Fs.p_close s fd;
    let snap = Relstore.Snapshot.As_of (Relstore.Db.now db) in
    let stored =
      match Invfs.Fs.file_handle fs ~oid:(Invfs.Fs.lookup_oid s "/data") with
      | Some inv -> Invfs.Inv_file.stored_bytes inv snap
      | None -> -1
    in
    (* random access latency, cold cache *)
    let cache = Relstore.Db.cache db in
    Pagestore.Bufcache.flush cache;
    Pagestore.Bufcache.crash cache;
    let fd = Invfs.Fs.p_open s "/data" Invfs.Fs.Rdonly in
    let buf = Bytes.create 64 in
    let t0 = Simclock.Clock.now clock in
    ignore (Invfs.Fs.p_lseek s fd 100_000L Invfs.Fs.Seek_set : int64);
    ignore (Invfs.Fs.p_read s fd buf 64 : int);
    let latency = Simclock.Clock.now clock -. t0 in
    Invfs.Fs.p_close s fd;
    (String.length text, stored, latency)
  in
  let raw, stored_plain, lat_plain = build false in
  let _, stored_comp, lat_comp = build true in
  Printf.printf "  plain:      %7d bytes stored (of %d), random 64B read %.4fs\n"
    stored_plain raw lat_plain;
  Printf.printf "  compressed: %7d bytes stored (%.0f%% saved), random 64B read %.4fs\n"
    stored_comp
    (100. *. (1. -. (float_of_int stored_comp /. float_of_int stored_plain)))
    lat_comp;
  print_newline ()

let ablations ~mb =
  ablate_presto ~mb;
  ablate_create_txn ~mb;
  ablate_cache_size ~mb;
  ablate_cpu ~mb;
  ablate_coalescing ();
  ablate_compression ()

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark trajectory (bench json)                  *)
(* ------------------------------------------------------------------ *)

module Bc = Pagestore.Bufcache
module Dv = Pagestore.Device

let op_key = function
  | W.Create_file -> "create_25mb_file"
  | W.Read_byte -> "read_byte"
  | W.Write_byte -> "write_byte"
  | W.Read_1mb_single -> "read_1mb_single"
  | W.Read_1mb_seq -> "read_1mb_seq"
  | W.Read_1mb_rand -> "read_1mb_rand"
  | W.Write_1mb_single -> "write_1mb_single"
  | W.Write_1mb_seq -> "write_1mb_seq"
  | W.Write_1mb_rand -> "write_1mb_rand"

(* The trajectory document is an Obs.Json value. *)
open Obs.Json

let json_of_stats (s : Bc.stats) =
  J_obj
    [
      ("gets", J_int s.Bc.s_gets);
      ("hits", J_int s.Bc.s_hits);
      ("misses", J_int s.Bc.s_misses);
      ("os_hits", J_int s.Bc.s_os_hits);
      ("writebacks", J_int s.Bc.s_writebacks);
      ("evictions", J_int s.Bc.s_evictions);
      ("readaheads", J_int s.Bc.s_readaheads);
      ("readahead_hits", J_int s.Bc.s_readahead_hits);
    ]

(* Sequential-read ablation: one cold pass over an [mb] MB file with
   read-ahead on vs off (window 0), then a re-read on the warm caches.
   Also the scan-resistance probe: a small hot set is promoted, the big
   scan runs, and the hot set is re-read — under strict LRU the scan
   would have flushed it (pool misses); under midpoint insertion it
   survives (pool hits). *)
let readahead_ablation ~mb =
  let run_one window =
    let clock = Simclock.Clock.create () in
    let db = Relstore.Db.create ~clock ?readahead_window:window () in
    let fs = Invfs.Fs.make db () in
    let s = Invfs.Fs.new_session fs in
    let cache = Relstore.Db.cache db in
    let size = mb * 1024 * 1024 in
    let hot_size = 96 * Invfs.Chunk.capacity in
    Invfs.Fs.write_file s "/hot.dat" (Bytes.create hot_size);
    Invfs.Fs.write_file s "/seq.dat" (Bytes.create size);
    Pagestore.Bufcache.flush cache;
    Pagestore.Bufcache.crash cache;
    let timed f =
      let t0 = Simclock.Clock.now clock in
      f ();
      Simclock.Clock.now clock -. t0
    in
    let read path = ignore (Invfs.Fs.read_whole_file s path : bytes) in
    let cold = timed (fun () -> read "/seq.dat") in
    let warm_stats0 = Bc.stats cache in
    let warm = timed (fun () -> read "/seq.dat") in
    let warm_stats1 = Bc.stats cache in
    let warm_hits = warm_stats1.Bc.s_hits - warm_stats0.Bc.s_hits in
    let warm_os = warm_stats1.Bc.s_os_hits - warm_stats0.Bc.s_os_hits in
    let warm_misses = warm_stats1.Bc.s_misses - warm_stats0.Bc.s_misses in
    let warm_hit_rate =
      float_of_int (warm_hits + warm_os)
      /. float_of_int (max 1 (warm_hits + warm_os + warm_misses))
    in
    (* scan resistance: promote the hot set, scan, re-read the hot set *)
    read "/hot.dat";
    read "/hot.dat";
    read "/seq.dat";
    let hot_stats0 = Bc.stats cache in
    read "/hot.dat";
    let hot_stats1 = Bc.stats cache in
    let hot_hits = hot_stats1.Bc.s_hits - hot_stats0.Bc.s_hits in
    let hot_misses = hot_stats1.Bc.s_misses - hot_stats0.Bc.s_misses in
    let hot_pool_rate =
      float_of_int hot_hits /. float_of_int (max 1 (hot_hits + hot_misses))
    in
    (cold, warm, warm_hit_rate, hot_pool_rate, Bc.stats cache)
  in
  let cold_ra, warm_ra, warm_rate, hot_rate, stats = run_one None in
  let cold_off, _, _, _, _ = run_one (Some 0) in
  ( J_obj
      [
        ("seq_read_mb", J_int mb);
        ("cold_read_s_readahead", J_num cold_ra);
        ("cold_read_s_no_readahead", J_num cold_off);
        ("cold_speedup", J_num (cold_off /. cold_ra));
        ("reread_s", J_num warm_ra);
        ("reread_cache_hit_rate", J_num warm_rate);
        ("hot_set_pool_hit_rate_after_scan", J_num hot_rate);
        ("cache", json_of_stats stats);
      ],
    cold_ra,
    cold_off,
    warm_rate,
    hot_rate )

(* Eviction microbench: real wall-clock cost of a miss + eviction on a
   full pool, at the Berkeley 300-page size vs a 4096-page pool.  Random
   access over 2x the pool keeps every other access a miss; read-ahead is
   off so each miss is exactly one install + one eviction.  The old
   full-scan LRU made this linear in pool size (~13x from 300 to 4096);
   the intrusive-list design must stay flat. *)
(* The unified observability registry, as JSON.  Histogram quantiles are
   reported in seconds (the registry's native unit for observations). *)
let json_of_metrics () =
  J_obj
    (List.map
       (fun (name, entry) ->
         match entry with
         | Obs.Metrics.Counter v -> (name, J_int v)
         | Obs.Metrics.Probe v -> (name, J_int v)
         | Obs.Metrics.Histogram { count; sum; p50; p95; p99 } ->
           ( name,
             J_obj
               [
                 ("count", J_int count); ("sum_s", J_num sum); ("p50_s", J_num p50);
                 ("p95_s", J_num p95); ("p99_s", J_num p99);
               ] ))
       (Obs.Metrics.snapshot ()))

let eviction_microbench () =
  (* One block universe for both pool sizes: per-miss memory traffic
     (device copy + checksum over the same 64 MB arena) is then identical,
     so the ratio isolates the replacement bookkeeping itself. *)
  let nblocks = 2 * 4096 in
  let per_miss cap =
    let clock = Simclock.Clock.create () in
    let dev = Dv.create ~clock ~name:"nv" ~kind:Dv.Nvram () in
    let cache = Bc.create ~capacity:cap ~readahead_window:0 () in
    let seg = Dv.create_segment dev in
    for _ = 1 to nblocks do
      ignore (Dv.allocate_block dev seg : int)
    done;
    let rng = Simclock.Rng.create 2026L in
    let touch () =
      let blkno = Simclock.Rng.int rng nblocks in
      Bc.with_page cache dev ~segid:seg ~blkno (fun _ -> ())
    in
    (* warm the pool to capacity so every miss evicts *)
    for _ = 1 to 2 * cap do
      touch ()
    done;
    let m0 = Bc.misses cache in
    (* adaptive: grow the batch until the timed region is comfortably
       above timer noise *)
    let rec measure batch =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to batch do
        touch ()
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < 0.05 then measure (batch * 4) else dt
    in
    let dt = measure 20_000 in
    let misses = Bc.misses cache - m0 in
    dt /. float_of_int (max 1 misses) *. 1e6
  in
  (* Tracing off for the wall-clock region: the microbench measures the
     replacement bookkeeping, not event emission. *)
  let enabled = Obs.enabled_subsystems () in
  Obs.disable_all ();
  let small = per_miss 300 in
  let large = per_miss 4096 in
  List.iter Obs.enable enabled;
  let ratio = large /. small in
  ( J_obj
      [
        ("pool_300_us_per_miss", J_num small);
        ("pool_4096_us_per_miss", J_num large);
        ("ratio_4096_over_300", J_num ratio);
      ],
    ratio )

module Lt = Benchlib.Loadtest

let json_of_load (o : Lt.outcome) =
  let level (l : Lt.level) =
    J_obj
      [
        ("factor", J_num l.Lt.l_factor);
        ("offered_ops_s", J_num l.Lt.l_offered_ops_s);
        ("offered_realized_ops_s", J_num l.Lt.l_offered_realized_ops_s);
        ("achieved_ops_s", J_num l.Lt.l_achieved_ops_s);
        ("ops", J_int l.Lt.l_ops);
        ("applied", J_int l.Lt.l_applied);
        ("lock_skips", J_int l.Lt.l_lock_skips);
        ("p50_s", J_num l.Lt.l_p50_s);
        ("p95_s", J_num l.Lt.l_p95_s);
        ("p99_s", J_num l.Lt.l_p99_s);
        ("mean_s", J_num l.Lt.l_mean_s);
        ("max_wait_queue", J_int l.Lt.l_max_wait_queue);
        ("peak_link_depth", J_int l.Lt.l_peak_link_depth);
        ( "tenant_p99_s",
          J_arr (Array.to_list (Array.map (fun p -> J_num p) l.Lt.l_tenant_p99_s)) );
        ("shed_deadline", J_int l.Lt.l_shed_deadline);
        ("shed_overload", J_int l.Lt.l_shed_overload);
        ("admitted", J_int l.Lt.l_admitted);
        ("admitted_p99_s", J_num l.Lt.l_admitted_p99_s);
        ("slo_goodput_ops_s", J_num l.Lt.l_slo_goodput_ops_s);
      ]
  in
  J_obj
    [
      ("seed", J_int (Int64.to_int o.Lt.seed));
      ("capacity_ops_s", J_num o.Lt.capacity_ops_s);
      ("slo_p99_s", J_num o.Lt.slo_p99_s);
      ("knee_offered_ops_s", J_num o.Lt.knee_offered_ops_s);
      ("knee_reason", J_str o.Lt.knee_reason);
      ("levels", J_arr (List.map level o.Lt.levels));
      ("ops_total", J_int o.Lt.ops_total);
      ("applied_total", J_int o.Lt.applied_total);
      ("lock_skips", J_int o.Lt.lock_skips);
      ("commits", J_int o.Lt.commits);
      ("aborts", J_int o.Lt.aborts);
      ("time_travel_checks", J_int o.Lt.time_travel_checks);
      ("full_verifies", J_int o.Lt.full_verifies);
      ("mismatches", J_int (List.length o.Lt.mismatches));
      ("shed_deadline", J_int o.Lt.shed_deadline);
      ("shed_overload", J_int o.Lt.shed_overload);
    ]

(* ------------------------------------------------------------------ *)
(* Sharded fleet: scale-out throughput and failover blackout           *)
(* ------------------------------------------------------------------ *)

module Sh = Benchlib.Shardtest

let shard_bench () =
  let points = List.map (fun n -> Sh.scaleout ~seed:11L ~nshards:n) [ 1; 2; 4 ] in
  let bo = Sh.failover_blackout ~seed:12L in
  let point_obj (p : Sh.scale_point) =
    J_obj
      [
        ("shards", J_int p.Sh.sp_shards);
        ("ops", J_int p.Sh.sp_ops);
        ("wall_s", J_num p.Sh.sp_wall_s);
        ("bottleneck_busy_s", J_num p.Sh.sp_bottleneck_s);
        ("throughput_ops_s", J_num p.Sh.sp_throughput);
        ("modeled", J_bool true);
      ]
  in
  let obj =
    J_obj
      [
        ("scaleout", J_arr (List.map point_obj points));
        ( "failover",
          J_obj
            [
              ("blackout_s", J_num bo.Sh.bo_blackout_s);
              ("detect_horizon_s", J_num bo.Sh.bo_detect_s);
              ("fence_events", J_int bo.Sh.bo_fence_events);
              ("stale_rejects", J_int bo.Sh.bo_stale_rejects);
              ("migrations", J_int bo.Sh.bo_migrations);
              ("consistent", J_int (if bo.Sh.bo_consistent then 1 else 0));
            ] );
      ]
  in
  (obj, points, bo)

let print_shard () =
  progress "sharded fleet: scale-out (N=1/2/4) and failover blackout...";
  let _, points, bo = shard_bench () in
  print_string "Sharded fleet (coordinator + N chunk shards)\n";
  List.iter
    (fun (p : Sh.scale_point) ->
      Printf.printf
        "  N=%d: %d writes, bottleneck busy %6.2fs -> %7.2f ops/s (wall %6.2fs)\n"
        p.Sh.sp_shards p.Sh.sp_ops p.Sh.sp_bottleneck_s p.Sh.sp_throughput p.Sh.sp_wall_s)
    points;
  Printf.printf
    "  failover: blackout %.2fs (detect horizon %.2fs), %d fence(s), %d stale \
     rejects, %d migrations, consistent=%b\n"
    bo.Sh.bo_blackout_s bo.Sh.bo_detect_s bo.Sh.bo_fence_events bo.Sh.bo_stale_rejects
    bo.Sh.bo_migrations bo.Sh.bo_consistent

(* ------------------------------------------------------------------ *)
(* Incremental vacuum vs the full pass (the "vacuum" object)          *)
(* ------------------------------------------------------------------ *)

(* Two identical seeded foreground runs over a history-heavy working
   set — one undisturbed, one with a budgeted archive-vacuum increment
   interleaved after every op — plus the full pass on the same history
   (one step over each whole heap: the stretch any foreground op
   arriving mid-pass would wait out, kept under the BENCH key
   [stop_the_world_s] that [--compare] and older snapshots read) and the
   cost of faulting history back through the WORM archive tier on an
   [As_of] read. *)
let vacuum_bench () =
  let module Fs = Invfs.Fs in
  let mk () =
    let clock = Simclock.Clock.create () in
    let switch = Pagestore.Switch.create ~clock in
    ignore
      (Pagestore.Switch.add_device switch ~name:"disk0"
         ~kind:Pagestore.Device.Magnetic_disk ()
        : Pagestore.Device.t);
    ignore
      (Pagestore.Switch.add_device switch ~name:"jukebox"
         ~kind:Pagestore.Device.Worm_jukebox ()
        : Pagestore.Device.t);
    let db = Relstore.Db.create ~switch ~clock () in
    (Fs.make db (), clock)
  in
  let nfiles = 8 and history_rounds = 3 and fg_ops = 150 in
  let path i = Printf.sprintf "/f%d" i in
  let payload = Bytes.make (Invfs.Chunk.capacity + 100) 'h' in
  let populate fs s =
    for i = 0 to nfiles - 1 do
      Fs.write_file s (path i) payload
    done;
    let t_old = Fs.snapshot fs in
    for _ = 1 to history_rounds do
      for i = 0 to nfiles - 1 do
        Fs.write_file s (path i) payload
      done
    done;
    Simclock.Clock.advance (Fs.clock fs) 1.;
    t_old
  in
  let percentile p l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(min (Array.length a - 1) (int_of_float ((p *. float_of_int (Array.length a - 1)) +. 0.5)))
  in
  let run ~vacuum =
    let fs, clock = mk () in
    let s = Fs.new_session fs in
    let t_old = populate fs s in
    let rng = Simclock.Rng.create 7L in
    let lats = ref [] in
    let archived = ref 0 and steps = ref 0 and step_max = ref 0. in
    for _ = 1 to fg_ops do
      let i = Simclock.Rng.int rng nfiles in
      let t0 = Simclock.Clock.now clock in
      (if Simclock.Rng.bool rng then ignore (Fs.read_whole_file s (path i) : bytes)
       else Fs.write_file s (path i) payload);
      lats := (Simclock.Clock.now clock -. t0) :: !lats;
      if vacuum then begin
        let v0 = Simclock.Clock.now clock in
        (match Fs.vacuum_step fs ~pages:4 ~mode:`Archive () with
        | Some (_, st) -> archived := !archived + st.Relstore.Vacuum.s_archived
        | None -> ());
        incr steps;
        step_max := Float.max !step_max (Simclock.Clock.now clock -. v0)
      end
    done;
    (percentile 0.99 !lats, !archived, !steps, !step_max, fs, t_old)
  in
  progress "bench json: vacuum differential (incremental vs full pass)...";
  let p99_base, _, _, _, _, _ = run ~vacuum:false in
  let p99_vac, archived, steps, step_max, fs, t_old = run ~vacuum:true in
  let stw_s =
    let fs2, clock2 = mk () in
    let s2 = Fs.new_session fs2 in
    ignore (populate fs2 s2 : int64);
    let t0 = Simclock.Clock.now clock2 in
    ignore (Fs.vacuum_all fs2 ~mode:`Archive () : Relstore.Vacuum.stats);
    Simclock.Clock.now clock2 -. t0
  in
  (* drop the cache, then fault a pre-history version back from the
     archive tier and compare with a current read on the same cold cache *)
  ignore (Fs.crash_and_recover fs : Fs.recovery);
  let s = Fs.new_session fs in
  let clock = Fs.clock fs in
  let t0 = Simclock.Clock.now clock in
  let hist = Fs.read_whole_file s ~timestamp:t_old (path 0) in
  let archive_read_s = Simclock.Clock.now clock -. t0 in
  let t0 = Simclock.Clock.now clock in
  ignore (Fs.read_whole_file s (path 0) : bytes);
  let current_read_s = Simclock.Clock.now clock -. t0 in
  let readthrough_ok = Bytes.equal hist payload in
  let degradation_pct =
    if p99_base > 1e-12 then ((p99_vac /. p99_base) -. 1.) *. 100. else 0.
  in
  let obj =
    J_obj
      [
        ("foreground_p99_s", J_num p99_base);
        ("foreground_p99_vacuum_s", J_num p99_vac);
        ("degradation_pct", J_num degradation_pct);
        ("vacuum_steps", J_int steps);
        ("step_max_s", J_num step_max);
        ("versions_archived", J_int archived);
        ("stop_the_world_s", J_num stw_s);
        ("archive_read_through_s", J_num archive_read_s);
        ("current_read_s", J_num current_read_s);
      ]
  in
  (obj, p99_base, p99_vac, step_max, stw_s, archived, readthrough_ok)

(* ------------------------------------------------------------------ *)
(* --compare: regression gate against a previous bench json            *)
(* ------------------------------------------------------------------ *)

(* The headlines the regression gate watches: simulated seconds per
   Table-3 op on the client/server system — the number every PR is
   ultimately trying to move down — plus the vacuum differential's
   foreground p99 (lower is better), and the load sweep's capacity and
   the protected overload run's SLO goodput at 4x (higher is better).
   Returns [(name, value, direction)]. *)
let headline_metrics doc =
  let t3 =
    match Obs.Json.path doc [ "table3_seconds"; "inversion_client_server" ] with
    | Some (J_obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun f -> (k, f, `Lower)) (Obs.Json.number v))
        fields
    | _ -> []
  in
  let number doc keys = Option.bind (Obs.Json.path doc keys) Obs.Json.number in
  let one name keys dir = Option.map (fun f -> (name, f, dir)) (number doc keys) in
  let goodput_4x =
    match Obs.Json.path doc [ "overload"; "protected"; "levels" ] with
    | Some (J_arr levels) ->
      List.find_map
        (fun l ->
          if number l [ "factor" ] = Some 4.0 then
            Option.map
              (fun f -> ("overload.protected.slo_goodput_4x_ops_s", f, `Higher))
              (number l [ "slo_goodput_ops_s" ])
          else None)
        levels
    | _ -> None
  in
  t3
  @ List.filter_map Fun.id
      [
        one "vacuum.foreground_p99_vacuum_s" [ "vacuum"; "foreground_p99_vacuum_s" ] `Lower;
        one "load.capacity_ops_s" [ "load"; "capacity_ops_s" ] `Higher;
        goodput_4x;
      ]

let compare_headline ~prev_path ~current =
  let prev_doc =
    Obs.Json.parse (In_channel.with_open_bin prev_path In_channel.input_all)
  in
  let prev = headline_metrics prev_doc in
  let cur = List.map (fun (name, v, _) -> (name, v)) (headline_metrics current) in
  if prev = [] then [ Printf.sprintf "%s has no table3_seconds headline" prev_path ]
  else
    List.filter_map
      (fun (name, before, dir) ->
        match List.assoc_opt name cur with
        | None -> Some (Printf.sprintf "%s: missing from current run (was %.3f)" name before)
        | Some now ->
          (* >10% worse on any headline is a regression; better or within
             noise passes *)
          let worse =
            before > 1e-9
            && match dir with `Lower -> now > before *. 1.10 | `Higher -> now < before *. 0.90
          in
          if worse then
            Some
              (Printf.sprintf "%s: %.3f -> %.3f (%+.1f%%, gate is 10%%)" name before now
                 ((now /. before -. 1.) *. 100.))
          else None)
      prev

let bench_json ~mb ~out ~smoke ~compare_prev =
  let date =
    let tm = Unix.localtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday
  in
  let out =
    match out with Some p -> p | None -> Printf.sprintf "BENCH_%s.json" date
  in
  progress "bench json: Table 3 workload (%d MB)..." mb;
  (* Full instrumentation for the run: every layer's counters and
     histograms land in the "metrics" object below. *)
  Obs.enable_all ();
  let (inv_cs, nfs, inv_sp), netstats = run_three ~mb in
  let sys_obj results =
    J_obj (List.map (fun op -> (op_key op, J_num (W.find results op))) W.all_ops)
  in
  let net_obj =
    J_obj
      (List.filter_map
         (fun (name, stats) ->
           match stats with
           | [] -> None
           | stats ->
             Some (name, J_obj (List.map (fun (k, v) -> (k, J_int v)) stats)))
         netstats)
  in
  progress "bench json: read-ahead ablation...";
  let ra_obj, cold_ra, cold_off, _warm_rate, hot_rate = readahead_ablation ~mb in
  progress "bench json: eviction microbench (wall-clock)...";
  let ev_obj, ev_ratio = eviction_microbench () in
  progress "bench json: open-loop load sweep...";
  (* A mid-size sweep: big enough that queueing is visible past the
     knee, small enough to keep `bench json` per-PR-friendly. *)
  let load_cfg = { Lt.default_config with Lt.clients = 64; ops_per_level = 300 } in
  let load = Lt.run ~config:load_cfg ~seed:1L () in
  progress "bench json: overload differential (deadlines on vs seed)...";
  (* The overload story, as one curve pair: identical traffic at 1x, 2x
     and 4x calibrated capacity, once with per-op deadlines propagated
     (the protected server sheds work whose caller gave up) and once
     deadline-free (the seed degrades by queueing alone).  Protection
     must hold SLO-goodput near capacity and admitted p99 under the SLO
     where the seed curve loses both. *)
  let ov_deadline_s = 0.8 and ov_factors = [ 1.0; 2.0; 4.0 ] in
  let ov_base =
    {
      Lt.default_config with
      Lt.clients = 32;
      ops_per_level = 200;
      calibration_ops = 60;
      load_factors = ov_factors;
    }
  in
  let ov_protected =
    Lt.run ~config:{ ov_base with Lt.deadline_s = Some ov_deadline_s } ~seed:2L ()
  in
  let ov_seed = Lt.run ~config:ov_base ~seed:2L () in
  progress "bench json: sharded fleet scale-out + failover blackout...";
  let shard_obj, shard_points, shard_bo = shard_bench () in
  let vac_obj, vac_p99_base, vac_p99, vac_step_max, vac_stw_s, vac_archived, vac_rt_ok =
    vacuum_bench ()
  in
  let doc =
    J_obj
      [
        ("schema", J_str "inversion-bench/1");
        ( "schema_doc",
          J_str
            "table3_seconds: simulated seconds per paper Table-3 op, per system; \
             readahead_ablation: cold/warm sequential read with the read-ahead \
             window at its default vs 0, plus cache counter snapshot and the \
             scan-resistance probe (pool hit rate of a promoted hot set re-read \
             after a full big-file scan); eviction_microbench: real wall-clock \
             microseconds per miss+eviction on a full pool (O(1) replacement \
             must keep the 4096/300 ratio near 1); network: real messages and \
             bytes on each system's simulated wire plus client \
             retry/timeout/reconnect counters; load: open-loop saturation \
             curve: Poisson arrivals at factor x calibrated capacity, Zipf \
             popularity, per-tenant sessions through the RPC layer; each \
             level reports offered vs achieved ops/s and p50/p95/p99 latency \
             (seconds, queueing included), with the detected throughput/SLO \
             knee and a differential-oracle mismatch count (must be 0); \
             overload: the same sweep at 1x/2x/4x capacity run twice: \
             'protected' propagates per-op deadlines (overloaded levels shed \
             cleanly, holding slo_goodput_ops_s near capacity and \
             admitted_p99_s under the SLO), 'unprotected' is the seed \
             behaviour (unbounded queueing, both numbers collapse); \
             shard: the sharded fleet: scale-out write throughput modeled \
             from the bottleneck member's busy share at N=1/2/4 chunk shards \
             (one simulated clock serializes machines, so throughput = ops / \
             busiest member's simulated seconds; N=4 must beat 2x N=1; every \
             scaleout point is marked modeled: true, derived from busy shares \
             rather than observed), plus \
             a heartbeat-partition failover drill reporting the longest \
             single-op stall (blackout_s), the detection horizon, \
             fence/stale-reject/migration counts and post-failover \
             consistency; \
             vacuum: the incremental-vacuum differential: foreground p99 on \
             an identical seeded workload with and without a budgeted \
             archive-vacuum increment after every op (degradation must stay \
             under 20%), the longest single increment vs the full pass \
             (stop_the_world_s: one step over each whole heap, with no \
             quiescence; the stretch an op arriving mid-pass would wait \
             out), versions migrated to the WORM tier, and the \
             cold-cache cost of an As_of read faulting history back through \
             the archive vs a current read; \
             knobs: the commit-pipeline settings the Inversion systems ran \
             with (group_commit = status writes batched behind one force and \
             flush_wait_us = age bound on a pending batch in simulated \
             microseconds, both fixed constants of the only commit path)" );
        ("generated", J_str date);
        ("file_mb", J_int mb);
        ( "knobs",
          J_obj
            [
              ("group_commit", J_int Relstore.Status_log.group_size);
              ( "flush_wait_us",
                J_int (int_of_float (Relstore.Status_log.max_age_s *. 1e6)) );
            ] );
        ( "table3_seconds",
          J_obj
            [
              ("inversion_client_server", sys_obj inv_cs);
              ("ultrix_nfs_presto", sys_obj nfs);
              ("inversion_single_process", sys_obj inv_sp);
            ] );
        ("network", net_obj);
        ("readahead_ablation", ra_obj);
        ("eviction_microbench", ev_obj);
        ("load", json_of_load load);
        ( "overload",
          J_obj
            [
              ("deadline_s", J_num ov_deadline_s);
              ("factors", J_arr (List.map (fun f -> J_num f) ov_factors));
              ("protected", json_of_load ov_protected);
              ("unprotected", json_of_load ov_seed);
            ] );
        ("shard", shard_obj);
        ("vacuum", vac_obj);
        ("metrics", json_of_metrics ());
      ]
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string doc);
  close_out oc;
  progress "bench json: wrote %s" out;
  let regression_msgs =
    match compare_prev with
    | None -> []
    | Some prev_path -> compare_headline ~prev_path ~current:doc
  in
  (match compare_prev with
  | Some p when regression_msgs = [] ->
    progress "bench json --compare: no headline regression vs %s" p
  | Some _ ->
    List.iter (fun m -> progress "bench json --compare: REGRESSION %s" m) regression_msgs
  | None -> ());
  if smoke then begin
    let fail = ref [] in
    let check name ok detail = if not ok then fail := (name ^ ": " ^ detail) :: !fail in
    (* The file must be JSON that reads back to what was printed: an
       escape or literal the parser misreads fails here, not in a later
       --compare. *)
    (let written = In_channel.with_open_bin out In_channel.input_all in
     match Obs.Json.parse written with
     | v ->
       check "json-roundtrip" (Obs.Json.to_string v = written)
         (Printf.sprintf "%s does not reprint identically once parsed" out)
     | exception Failure msg -> check "json-roundtrip" false (out ^ ": " ^ msg));
    check "eviction-flat" (ev_ratio < 2.0)
      (Printf.sprintf "4096/300 per-miss ratio %.2f (must be < 2.0)" ev_ratio);
    check "readahead-helps" (cold_ra < cold_off)
      (Printf.sprintf "cold read %.3fs with read-ahead vs %.3fs without" cold_ra
         cold_off);
    check "scan-resistance" (hot_rate > 0.5)
      (Printf.sprintf "hot-set pool hit rate after scan %.2f (must be > 0.5)" hot_rate);
    (* Metrics-registry coherence: the "metrics" object must exist with
       real traffic in it, latency histograms must move in lockstep with
       their paired counters, and the cache probes must satisfy
       gets = hits + misses. *)
    let metric name =
      match Obs.Metrics.read name with
      | Some v -> v
      | None ->
        check "metrics-present" false (Printf.sprintf "no %S in the registry" name);
        0
    in
    let lockstep cname hname =
      let c = metric cname and h = Obs.Metrics.hist_count (Obs.Metrics.histogram hname) in
      check "metrics-lockstep" (c = h)
        (Printf.sprintf "%s=%d but %s count=%d" cname c hname h)
    in
    lockstep "device.read" "device.read.latency_us";
    lockstep "device.read_cont" "device.read_cont.latency_us";
    lockstep "device.write" "device.write.latency_us";
    lockstep "txn.commit" "txn.commit.latency_us";
    (* The create gap: the client/server create must sit within the
       seed's 2.63x of NFS. *)
    (let ratio = W.find inv_cs W.Create_file /. W.find nfs W.Create_file in
     check "create-gap-ratio" (ratio <= 2.63)
       (Printf.sprintf "create_25mb_file inversion/nfs ratio %.2fx (seed was 2.63x)"
          ratio));
    (* Group-size accounting closes: every flush observes its batch size
       into txn.commit.group_size, so flushes x mean group size — the
       histogram's sum — must equal the durable-commit counter exactly. *)
    (let h_group = Obs.Metrics.histogram "txn.commit.group_size" in
     let flushes = Obs.Metrics.hist_count h_group in
     let commits_via_hist = Obs.Metrics.hist_sum h_group *. 1e6 in
     let durable = metric "log.commit.durable" in
     check "group-size-coherence"
       (durable > 0 && Float.abs (commits_via_hist -. float_of_int durable) < 0.5)
       (Printf.sprintf
          "%d flushes x mean group size give %.1f durable commits, counter says %d"
          flushes commits_via_hist durable));
    (* The key set must not depend on which modules this file names:
       recovery never runs here, yet its counter is reported (at 0). *)
    ignore (metric "recovery.runs" : int);
    check "metrics-traffic" (metric "device.read" > 0 && metric "txn.commit" > 0)
      "no device reads or no commits recorded in the registry";
    check "cache-coherence"
      (metric "cache.gets" = metric "cache.hits" + metric "cache.misses")
      (Printf.sprintf "cache.gets=%d <> cache.hits=%d + cache.misses=%d"
         (metric "cache.gets") (metric "cache.hits") (metric "cache.misses"));
    check "readahead-subset" (metric "cache.readahead_hits" <= metric "cache.hits")
      (Printf.sprintf "cache.readahead_hits=%d > cache.hits=%d"
         (metric "cache.readahead_hits") (metric "cache.hits"));
    (* The "load" object's invariants: the saturation curve's, and an
       oracle-equivalent run. *)
    List.iter (check "load-curve" false) (Lt.curve_failures load);
    check "load-oracle" (load.Lt.mismatches = [])
      (Printf.sprintf "%d differential mismatches under load"
         (List.length load.Lt.mismatches));
    (* The overload differential: at every saturated level (factor >= 2)
       the protected run holds goodput and tail latency where the seed
       run, on identical traffic, loses both. *)
    check "overload-oracle"
      (ov_protected.Lt.mismatches = [] && ov_seed.Lt.mismatches = [])
      (Printf.sprintf "%d protected / %d unprotected mismatches"
         (List.length ov_protected.Lt.mismatches)
         (List.length ov_seed.Lt.mismatches));
    List.iter2
      (fun (p : Lt.level) (u : Lt.level) ->
        if p.Lt.l_factor >= 2.0 then begin
          let cap = ov_protected.Lt.capacity_ops_s in
          check "overload-goodput"
            (p.Lt.l_slo_goodput_ops_s >= 0.8 *. cap)
            (Printf.sprintf "x%.2f: protected slo goodput %.1f/s < 0.8 x capacity %.1f/s"
               p.Lt.l_factor p.Lt.l_slo_goodput_ops_s cap);
          check "overload-tail"
            (p.Lt.l_admitted_p99_s <= ov_protected.Lt.slo_p99_s)
            (Printf.sprintf "x%.2f: protected admitted p99 %.3fs > SLO %.3fs"
               p.Lt.l_factor p.Lt.l_admitted_p99_s ov_protected.Lt.slo_p99_s);
          check "overload-differential"
            (u.Lt.l_slo_goodput_ops_s < 0.8 *. ov_seed.Lt.capacity_ops_s
            && u.Lt.l_admitted_p99_s > ov_seed.Lt.slo_p99_s)
            (Printf.sprintf
               "x%.2f: seed run met the SLO anyway (goodput %.1f/s, adm p99 %.3fs) — \
                the differential shows nothing"
               u.Lt.l_factor u.Lt.l_slo_goodput_ops_s u.Lt.l_admitted_p99_s)
        end)
      ov_protected.Lt.levels ov_seed.Lt.levels;
    (* The vacuum differential: the incremental vacuum must be cheap to
       stand next to (foreground p99 within 20% of the undisturbed run),
       each increment must be far shorter than the full pass over the
       same history, and the archive tier must actually be in
       play (versions migrated, history faulting back correctly). *)
    check "vacuum-degradation" (vac_p99 <= vac_p99_base *. 1.20)
      (Printf.sprintf
         "foreground p99 %.6fs with the incremental vacuum vs %.6fs without \
          (+%.1f%%, gate is 20%%)"
         vac_p99 vac_p99_base
         (((vac_p99 /. vac_p99_base) -. 1.) *. 100.));
    check "vacuum-bounded-step" (vac_step_max < vac_stw_s)
      (Printf.sprintf
         "longest vacuum increment %.4fs not under the %.4fs full pass"
         vac_step_max vac_stw_s);
    check "vacuum-archived" (vac_archived > 0)
      "the interleaved vacuum never migrated a version to the WORM tier";
    check "vacuum-read-through" vac_rt_ok
      "As_of read through the archive tier returned the wrong bytes";
    (* The sharded fleet: adding shards must actually buy throughput
       (the data plane parallelizes; N=4 beating 2x N=1 proves the
       coordinator is not the bottleneck), and losing a shard must cost
       a bounded, consistency-preserving blackout. *)
    (let tp n =
       match List.find_opt (fun (p : Sh.scale_point) -> p.Sh.sp_shards = n) shard_points with
       | Some p -> p.Sh.sp_throughput
       | None -> 0.
     in
     check "shard-scaleout"
       (tp 1 > 0. && tp 4 > 2.0 *. tp 1)
       (Printf.sprintf "N=1 %.1f ops/s, N=4 %.1f ops/s — need N4 > 2 x N1" (tp 1)
          (tp 4)));
    check "shard-blackout"
      (shard_bo.Sh.bo_blackout_s >= 0.
      && shard_bo.Sh.bo_blackout_s <= (3. *. shard_bo.Sh.bo_detect_s) +. 1.0)
      (Printf.sprintf "failover blackout %.2fs outside [0, 3 x detect %.2fs + 1s]"
         shard_bo.Sh.bo_blackout_s shard_bo.Sh.bo_detect_s);
    check "shard-failover-worked"
      (shard_bo.Sh.bo_fence_events >= 1 && shard_bo.Sh.bo_consistent)
      (Printf.sprintf "fences=%d consistent=%b — the drill must fail over and stay \
                       consistent"
         shard_bo.Sh.bo_fence_events shard_bo.Sh.bo_consistent);
    (* The regression gate: against a previous run's json, any headline
       Table-3 op more than 10% slower fails the smoke. *)
    List.iter (fun msg -> check "headline-regression" false msg) regression_msgs;
    match !fail with
    | [] -> progress "bench json --smoke: all checks passed"
    | fails ->
      List.iter (Printf.eprintf "SMOKE FAIL %s\n") fails;
      exit 1
  end

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let mb =
    let rec find = function
      | "--mb" :: n :: _ -> int_of_string n
      | _ :: rest -> find rest
      | [] -> 25
    in
    find args
  in
  let cmd =
    match args with
    | _ :: c :: _ when String.length c > 0 && c.[0] <> '-' -> c
    | _ -> "all"
  in
  (* --trace-out PATH: run the command with every subsystem traced into a
     large ring, then export Chrome trace_event JSON (load it in
     chrome://tracing or ui.perfetto.dev). *)
  let trace_out =
    let rec go = function
      | "--trace-out" :: p :: _ -> Some p
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  (match trace_out with
  | Some _ ->
    Obs.Trace.set_capacity 262_144;
    Obs.enable_all ()
  | None -> ());
  (match cmd with
  | "all" ->
    let results = run_three ~mb in
    print_figures results [ `Fig3; `Fig4; `Fig5; `Fig6 ];
    print_tab3 results;
    ablations ~mb;
    print_string (Benchlib.Sequoia.report_to_string (Benchlib.Sequoia.run ()));
    print_newline ()
  | "tab3" -> print_tab3 (run_three ~mb)
  | "fig3" -> print_figures (run_three ~mb) [ `Fig3 ]
  | "fig4" -> print_figures (run_three ~mb) [ `Fig4 ]
  | "fig5" -> print_figures (run_three ~mb) [ `Fig5 ]
  | "fig6" -> print_figures (run_three ~mb) [ `Fig6 ]
  | "ablate" -> ablations ~mb
  | "json" ->
    (* Machine-readable benchmark trajectory:
         bench json [--mb N] [--out PATH] [--smoke] [--compare PREV.json]
       Writes BENCH_<date>.json (schema "inversion-bench/1").  --smoke
       additionally asserts that the file parses back to what was
       printed, the cache-performance invariants (flat
       eviction cost, read-ahead wins, scan resistance), the shard
       scale-out and failover bounds, and exits 1 on violation.
       --compare diffs the headlines (Table-3 seconds and the vacuum p99,
       lower is better; load capacity and the protected 4x SLO goodput,
       higher is better) against a previous run's json; with --smoke, any
       headline more than 10% worse fails. *)
    let out =
      let rec go = function
        | "--out" :: p :: _ -> Some p
        | _ :: rest -> go rest
        | [] -> None
      in
      go args
    in
    let compare_prev =
      let rec go = function
        | "--compare" :: p :: _ -> Some p
        | _ :: rest -> go rest
        | [] -> None
      in
      go args
    in
    bench_json ~mb ~out ~smoke:(List.mem "--smoke" args) ~compare_prev
  | "shard" -> print_shard ()
  | "sequoia" ->
    print_string (Benchlib.Sequoia.report_to_string (Benchlib.Sequoia.run ()))
  | "load" ->
    (* Open-loop load sweep:
         bench load [--seed N] [--clients N] [--tenants N] [--ops N]
                    [--factors F1,F2,...] [--theta F] [--slo-ms N]
                    [--deadline-ms N] [--quick] [--trace]
       Calibrates capacity closed-loop, then offers factor x capacity at
       each level and prints the saturation curve (offered vs achieved
       ops/s, p50/p95/p99) plus the detected knee.  The differential
       oracle checks every mutation; exits 1 on mismatch.  --quick runs
       the small configuration the test sweep uses.

       Overload-control knobs: --deadline-ms N propagates an N ms
       deadline (from each op's arrival) with every request — the server
       refuses work whose caller gave up, and degradation shifts from
       unbounded queueing to clean sheds (0 = seed behaviour, no
       deadlines); --factors 1,2,4 then sweeps the saturated range. *)
    let find_arg name default =
      let rec go = function
        | a :: v :: _ when a = name -> int_of_string v
        | _ :: rest -> go rest
        | [] -> default
      in
      go args
    in
    let find_float name default =
      let rec go = function
        | a :: v :: _ when a = name -> float_of_string v
        | _ :: rest -> go rest
        | [] -> default
      in
      go args
    in
    let base = if List.mem "--quick" args then Lt.quick_config else Lt.default_config in
    let factors =
      let rec go = function
        | "--factors" :: v :: _ ->
          String.split_on_char ',' v |> List.map (fun s -> float_of_string (String.trim s))
        | _ :: rest -> go rest
        | [] -> base.Lt.load_factors
      in
      go args
    in
    let seed = Int64.of_int (find_arg "--seed" 1) in
    let deadline_ms = find_float "--deadline-ms" 0. in
    let cfg =
      {
        base with
        Lt.clients = find_arg "--clients" base.Lt.clients;
        tenants = find_arg "--tenants" base.Lt.tenants;
        ops_per_level = find_arg "--ops" base.Lt.ops_per_level;
        load_factors = factors;
        zipf_theta = find_float "--theta" base.Lt.zipf_theta;
        slo_p99_s = find_float "--slo-ms" (base.Lt.slo_p99_s *. 1e3) /. 1e3;
        deadline_s = (if deadline_ms > 0. then Some (deadline_ms /. 1e3) else None);
        trace = List.mem "--trace" args;
      }
    in
    let o = Lt.run ~config:cfg ~seed () in
    print_endline (Lt.outcome_to_string o);
    List.iter (fun m -> Printf.printf "  MISMATCH: %s\n" m) o.Lt.mismatches;
    if o.Lt.mismatches <> [] then exit 1
  | other ->
    Printf.eprintf
      "unknown command %s (expected \
       all|tab3|fig3|fig4|fig5|fig6|ablate|json|sequoia|shard|load)\n"
      other;
    exit 2);
  match trace_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Obs.Trace.to_chrome_json ());
    close_out oc;
    progress "trace: wrote %s (%d events, %d dropped by ring wrap)" path
      (List.length (Obs.Trace.events ()))
      (Obs.Trace.dropped ())
