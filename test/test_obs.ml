(* The observability spine (lib/obs) used as a correctness oracle.

   These tests assert *how* results are produced, not just what they
   are: a just-written page re-reads without touching the device, a
   read-ahead run issues one batched continuation burst, a committed
   transaction's span contains nothing after its commit point, device
   reads nest under heap scans under transaction spans — and, with
   every subsystem disabled, the instrumentation adds no allocation to
   the Bufcache.get hot path. *)

module D = Pagestore.Device
module B = Pagestore.Bufcache

let fresh_disk () =
  let clock = Simclock.Clock.create () in
  let dev = D.create ~clock ~name:"disk0" ~kind:D.Magnetic_disk () in
  (clock, dev)

let events_named name =
  List.filter (fun (e : Obs.event) -> e.Obs.name = name) (Obs.Trace.events ())

let int_arg (e : Obs.event) key =
  match List.assoc_opt key e.Obs.args with
  | Some (Obs.I v) -> v
  | _ -> Alcotest.failf "event %s lacks int arg %s" e.Obs.name key

(* ------------------------------------------------------------------ *)
(* Registry basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_registry_basics () =
  Obs.reset ();
  let c = Obs.Metrics.counter "t.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.counter_value c);
  Alcotest.(check (option int)) "read counter" (Some 5) (Obs.Metrics.read "t.counter");
  Alcotest.(check bool) "same name, same counter" true
    (Obs.Metrics.counter "t.counter" == c);
  let h = Obs.Metrics.histogram "t.hist" in
  List.iter (Obs.Metrics.observe h) [ 0.001; 0.001; 0.001; 0.001; 0.100 ];
  Alcotest.(check int) "hist count" 5 (Obs.Metrics.hist_count h);
  let p50 = Obs.Metrics.percentile h 0.5 in
  Alcotest.(check bool) "p50 near 1ms" (p50 > 0.0005 && p50 < 0.002) true;
  let p99 = Obs.Metrics.percentile h 0.99 in
  Alcotest.(check bool) "p99 near 100ms" (p99 > 0.05 && p99 < 0.2) true;
  let live = ref 7 in
  Obs.Metrics.probe "t.probe" (fun () -> !live);
  Alcotest.(check (option int)) "probe live" (Some 7) (Obs.Metrics.read "t.probe");
  live := 9;
  Alcotest.(check (option int)) "probe tracks" (Some 9) (Obs.Metrics.read "t.probe");
  (* replace-on-register: the newest owner wins *)
  Obs.Metrics.probe "t.probe" (fun () -> 42);
  Alcotest.(check (option int)) "probe replaced" (Some 42) (Obs.Metrics.read "t.probe");
  let names = List.map fst (Obs.Metrics.snapshot ()) in
  Alcotest.(check bool) "snapshot sorted" true (List.sort String.compare names = names);
  Obs.reset ()

let test_hist_reset_and_percentiles () =
  Obs.reset ();
  let h = Obs.Metrics.histogram "t.reset" in
  (* an empty histogram reports cleanly: zero count, zero percentiles *)
  Alcotest.(check int) "empty count" 0 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 0.)) "empty p50" 0. (Obs.Metrics.percentile h 0.5);
  Alcotest.(check (float 0.)) "empty p99" 0. (Obs.Metrics.percentile h 0.99);
  (* a populated histogram keeps its quantiles ordered *)
  List.iteri
    (fun i v -> for _ = 1 to 100 - i do Obs.Metrics.observe h v done)
    [ 0.001; 0.010; 0.100; 1.0 ];
  let p50 = Obs.Metrics.percentile h 0.5 in
  let p95 = Obs.Metrics.percentile h 0.95 in
  let p99 = Obs.Metrics.percentile h 0.99 in
  Alcotest.(check bool) "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "p99 above p50" true (p99 > p50);
  (* phase reset: the same histogram object starts over with no stale
     samples leaking into the next measurement window *)
  Obs.Metrics.hist_reset h;
  Alcotest.(check int) "reset count" 0 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 0.)) "reset p99" 0. (Obs.Metrics.percentile h 0.99);
  Obs.Metrics.observe h 0.004;
  Alcotest.(check int) "usable after reset" 1 (Obs.Metrics.hist_count h);
  let p99 = Obs.Metrics.percentile h 0.99 in
  Alcotest.(check bool) "post-reset p99 reflects only new data" true
    (p99 > 0.002 && p99 < 0.008);
  Obs.reset ()

let test_mask_and_ring () =
  Obs.reset ();
  Obs.Trace.set_capacity 8;
  Alcotest.(check bool) "off by default" false (Obs.on Obs.Cache);
  Obs.event Obs.Cache "t.ignored" ();
  Alcotest.(check int) "disabled emits nothing" 0 (List.length (Obs.Trace.events ()));
  Obs.enable Obs.Cache;
  Alcotest.(check bool) "enabled" true (Obs.on Obs.Cache);
  Alcotest.(check bool) "device still off" false (Obs.on Obs.Device);
  for i = 1 to 20 do
    Obs.event Obs.Cache "t.tick" ~args:[ ("i", Obs.I i) ] ()
  done;
  let evs = Obs.Trace.events () in
  Alcotest.(check int) "ring keeps capacity" 8 (List.length evs);
  Alcotest.(check int) "emitted counts all" 20 (Obs.Trace.emitted ());
  Alcotest.(check int) "dropped the rest" 12 (Obs.Trace.dropped ());
  Alcotest.(check int) "oldest retained is #13" 13 (int_arg (List.hd evs) "i");
  let seqs = List.map (fun (e : Obs.event) -> e.Obs.seq) evs in
  Alcotest.(check bool) "seq strictly increasing" true
    (List.sort compare seqs = seqs && List.length (List.sort_uniq compare seqs) = 8);
  (* subsystem name round-trip *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "subsys name round-trips" true
        (Obs.subsys_of_name (Obs.subsys_name s) = Some s))
    Obs.all_subsystems;
  Obs.reset ();
  Obs.Trace.set_capacity 16384

(* ------------------------------------------------------------------ *)
(* Invariant: a just-written page re-reads with zero device traffic     *)
(* ------------------------------------------------------------------ *)

let test_written_chunk_rereads_without_device () =
  Obs.reset ();
  let clock = Simclock.Clock.create () in
  let db = Relstore.Db.create ~clock () in
  let fs = Invfs.Fs.make db () in
  let s = Invfs.Fs.new_session fs in
  Invfs.Fs.write_file s "/memo.dat" (Bytes.make 5000 'x');
  Obs.enable Obs.Device;
  Obs.Trace.clear ();
  let back = Invfs.Fs.read_whole_file s "/memo.dat" in
  Alcotest.(check int) "content intact" 5000 (Bytes.length back);
  Alcotest.(check int) "no device reads on re-read of fresh data" 0
    (List.length (events_named "device.read"));
  Alcotest.(check int) "no continuation reads either" 0
    (List.length (events_named "device.read_cont"));
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Invariant: read-ahead issues one batched continuation burst per run  *)
(* ------------------------------------------------------------------ *)

let test_readahead_single_burst () =
  Obs.reset ();
  let _clock, dev = fresh_disk () in
  let cache = B.create ~capacity:64 ~os_cache_blocks:0 ~readahead_window:8 () in
  let seg = D.create_segment dev in
  for _ = 1 to 40 do
    ignore (D.allocate_block dev seg : int)
  done;
  Obs.enable Obs.Cache;
  Obs.enable Obs.Device;
  B.hint_sequential cache dev ~segid:seg;
  for blkno = 0 to 39 do
    B.with_page cache dev ~segid:seg ~blkno (fun _ -> ())
  done;
  let bursts = events_named "cache.readahead" in
  let cont_reads = events_named "device.read_cont" in
  Alcotest.(check bool) "read-ahead fired" true (List.length bursts > 0);
  (* Every continuation read belongs to exactly one recorded burst: the
     per-burst block counts sum to the continuation-read total.  A
     regression that issues prefetches one-by-one (or double-counts a
     burst) breaks this bookkeeping. *)
  let batched = List.fold_left (fun acc e -> acc + int_arg e "blocks") 0 bursts in
  Alcotest.(check int) "bursts account for every continuation read"
    (List.length cont_reads) batched;
  List.iter
    (fun e ->
      Alcotest.(check bool) "burst is batched (>= 2 blocks)" true (int_arg e "blocks" >= 2))
    bursts;
  (* and the legacy counter agrees with the trace *)
  Alcotest.(check int) "readaheads counter matches trace" (B.stats cache).B.s_readaheads
    batched;
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Invariant: nothing happens inside a txn span after its commit point  *)
(* ------------------------------------------------------------------ *)

let test_txn_span_ends_at_commit () =
  Obs.reset ();
  let db = Relstore.Db.create () in
  let rel = Relstore.Db.create_relation db ~name:"spans" () in
  Obs.enable_all ();
  Obs.Trace.clear ();
  Relstore.Db.with_txn db (fun txn ->
      for i = 1 to 5 do
        ignore
          (Relstore.Heap.insert rel txn ~oid:(Int64.of_int i) (Bytes.make 32 'r')
            : Relstore.Tid.t)
      done);
  let evs = Obs.Trace.events () in
  let commit_idx =
    match
      List.filteri (fun _ (e : Obs.event) -> e.Obs.name = "txn.commit") evs
    with
    | [ e ] ->
      let rec idx i = function
        | x :: _ when x == e -> i
        | _ :: rest -> idx (i + 1) rest
        | [] -> assert false
      in
      idx 0 evs
    | l -> Alcotest.failf "expected exactly one txn.commit, saw %d" (List.length l)
  in
  let after = List.filteri (fun i _ -> i > commit_idx) evs in
  (match after with
  | [ e ] ->
    Alcotest.(check string) "only the span close follows commit" "txn" e.Obs.name;
    Alcotest.(check bool) "and it is a span end" true (e.Obs.kind = Obs.Span_end)
  | l ->
    Alcotest.failf "expected exactly the txn span end after txn.commit, saw %d events"
      (List.length l));
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Invariant: device reads nest under heap scans under txn spans        *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  Obs.reset ();
  let db = Relstore.Db.create () in
  let rel = Relstore.Db.create_relation db ~name:"nest" () in
  Relstore.Db.with_txn db (fun txn ->
      for i = 1 to 200 do
        ignore
          (Relstore.Heap.insert rel txn ~oid:(Int64.of_int i) (Bytes.make 512 'n')
            : Relstore.Tid.t)
      done);
  (* drop the pool so the scan has to go to the device *)
  Pagestore.Bufcache.flush (Relstore.Db.cache db);
  Pagestore.Bufcache.crash (Relstore.Db.cache db);
  Obs.enable_all ();
  Obs.Trace.clear ();
  let seen = ref 0 in
  Relstore.Db.with_txn db (fun txn ->
      Relstore.Heap.scan rel (Relstore.Txn.snapshot txn) (fun _ -> incr seen));
  Alcotest.(check int) "scan saw the rows" 200 !seen;
  let evs = Obs.Trace.events () in
  let txn_depth = ref (-1) and scan_depth = ref (-1) and read_depth = ref (-1) in
  List.iter
    (fun (e : Obs.event) ->
      match (e.Obs.name, e.Obs.kind) with
      | "txn", Obs.Span_begin when !txn_depth < 0 -> txn_depth := e.Obs.depth
      | "heap.scan", Obs.Span_begin when !scan_depth < 0 -> scan_depth := e.Obs.depth
      | "device.read", Obs.Point when !read_depth < 0 -> read_depth := e.Obs.depth
      | _ -> ())
    evs;
  Alcotest.(check bool) "txn span opened" true (!txn_depth >= 0);
  Alcotest.(check bool) "heap.scan nested in txn" true (!scan_depth > !txn_depth);
  Alcotest.(check bool) "device.read nested in heap.scan" true (!read_depth > !scan_depth);
  (* the Chrome export of this nested trace is well-formed enough to load *)
  let json = Obs.Trace.to_chrome_json () in
  Alcotest.(check bool) "chrome json has complete spans" true
    (let contains sub s =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains "\"traceEvents\"" json
     && contains "\"ph\":\"X\"" (String.concat "" (String.split_on_char ' ' json))
     && contains "heap.scan" json);
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Zero allocation on the disabled hot path                             *)
(* ------------------------------------------------------------------ *)

let words_per_get cache dev seg ~iters =
  (* warm: page resident, seg-state table populated *)
  B.with_page cache dev ~segid:seg ~blkno:0 (fun _ -> ());
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (B.get cache dev ~segid:seg ~blkno:0 : Pagestore.Page.t);
    B.unpin cache dev ~segid:seg ~blkno:0
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let test_disabled_tracing_allocates_nothing () =
  Obs.reset ();
  let _clock, dev = fresh_disk () in
  let cache = B.create ~capacity:8 ~readahead_window:0 () in
  let seg = D.create_segment dev in
  ignore (D.allocate_block dev seg : int);
  let disabled = words_per_get cache dev seg ~iters:10_000 in
  (* The hit path's own footprint (a find_opt option, the relink) is a
     handful of words; event construction would add tens more.  The
     bound is deliberately tight enough that building even one event
     record or args list per get would blow it. *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled get+unpin allocates <= 16 words (got %.1f)" disabled)
    true (disabled <= 16.0);
  Obs.enable Obs.Cache;
  Obs.Trace.set_capacity 64;
  let enabled = words_per_get cache dev seg ~iters:10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "tracing on allocates strictly more (%.1f vs %.1f)" enabled disabled)
    true (enabled > disabled +. 8.0);
  Obs.reset ();
  Obs.Trace.set_capacity 16384

(* ------------------------------------------------------------------ *)
(* The unified registry agrees with every legacy accessor               *)
(* ------------------------------------------------------------------ *)

let test_probes_match_legacy_counters () =
  Obs.reset ();
  let _clock, dev = fresh_disk () in
  let cache = B.create ~capacity:16 ~readahead_window:4 () in
  let seg = D.create_segment dev in
  for _ = 1 to 32 do
    ignore (D.allocate_block dev seg : int)
  done;
  B.hint_sequential cache dev ~segid:seg;
  for blkno = 0 to 31 do
    B.with_page cache dev ~segid:seg ~blkno (fun _ -> ())
  done;
  for blkno = 28 to 31 do
    B.with_page cache dev ~segid:seg ~blkno (fun _ -> ())
  done;
  let probe name =
    match Obs.Metrics.read name with
    | Some v -> v
    | None -> Alcotest.failf "probe %s not registered" name
  in
  let st = B.stats cache in
  Alcotest.(check int) "cache.gets" st.B.s_gets (probe "cache.gets");
  Alcotest.(check int) "cache.hits" st.B.s_hits (probe "cache.hits");
  Alcotest.(check int) "cache.misses" (B.misses cache) (probe "cache.misses");
  Alcotest.(check int) "cache.os_hits" st.B.s_os_hits (probe "cache.os_hits");
  Alcotest.(check int) "cache.evictions" st.B.s_evictions (probe "cache.evictions");
  Alcotest.(check int) "cache.writebacks" (B.writebacks cache) (probe "cache.writebacks");
  Alcotest.(check int) "cache.readaheads" st.B.s_readaheads (probe "cache.readaheads");
  Alcotest.(check int) "cache.readahead_hits" st.B.s_readahead_hits
    (probe "cache.readahead_hits");
  Alcotest.(check int) "cache.resident" (B.resident cache) (probe "cache.resident");
  (* the double-counting fix: gets = hits + misses, readahead_hits is a
     subset of hits, never a third outcome *)
  Alcotest.(check int) "gets = hits + misses" st.B.s_gets
    (st.B.s_hits + st.B.s_misses);
  Alcotest.(check bool) "readahead_hits <= hits" true
    (st.B.s_readahead_hits <= st.B.s_hits);
  Alcotest.(check bool) "readahead_hits <= readaheads" true
    (st.B.s_readahead_hits <= st.B.s_readaheads);
  Alcotest.(check bool) "readahead produced hits here" true (st.B.s_readahead_hits > 0);
  Obs.reset ()

let test_stats_coherence_under_workload () =
  Obs.reset ();
  let db = Relstore.Db.create () in
  let fs = Invfs.Fs.make db () in
  let s = Invfs.Fs.new_session fs in
  Invfs.Fs.write_file s "/a" (Bytes.make 20_000 'a');
  Invfs.Fs.write_file s "/b" (Bytes.make 120_000 'b');
  ignore (Invfs.Fs.read_whole_file s "/a" : bytes);
  Invfs.Fs.crash fs;
  let s = Invfs.Fs.new_session fs in
  ignore (Invfs.Fs.read_whole_file s "/b" : bytes);
  let cache = Relstore.Db.cache db in
  let st = B.stats cache in
  Alcotest.(check int) "s_gets = s_hits + s_misses" st.B.s_gets
    (st.B.s_hits + st.B.s_misses);
  Alcotest.(check bool) "readahead_hits subset" true
    (st.B.s_readahead_hits <= st.B.s_hits);
  Alcotest.(check int) "registry probe agrees with snapshot"
    (Option.get (Obs.Metrics.read "cache.gets")) st.B.s_gets;
  Obs.reset ()

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)

module J = Obs.Json

let test_json_roundtrip () =
  let v =
    J.J_obj
      [
        ("modeled", J.J_bool true);
        ("consistent", J.J_bool false);
        ("none", J.J_null);
        ("ctl", J.J_str "bell\007tab\tquote\"");
        ("dash", J.J_str "before \xe2\x80\x94 after");
        ("nums", J.J_arr [ J.J_int 42; J.J_num 0.25 ]);
      ]
  in
  Alcotest.(check string) "control byte" "\\u0007" (J.escape "\007");
  Alcotest.(check string) "UTF-8 passes through" "\xe2\x80\x94" (J.escape "\xe2\x80\x94");
  Alcotest.(check bool) "round trip" true (J.parse (J.to_string v) = v);
  Alcotest.(check bool) "an escaped em dash reads as UTF-8" true
    (J.parse {|"\u2014"|} = J.J_str "\xe2\x80\x94");
  Alcotest.(check bool) "a surrogate pair reads as one code point" true
    (J.parse {|"\ud83d\ude00"|} = J.J_str "\xf0\x9f\x98\x80")

let test_json_reads_chrome_trace () =
  Obs.reset ();
  Obs.enable_all ();
  Obs.span Obs.Heap "scan\001 \xe2\x80\x94 all"
    ~args:[ ("rel", Obs.S "t\tab"); ("n", Obs.I 3) ]
    (fun () -> ());
  let doc = J.parse (Obs.Trace.to_chrome_json ()) in
  Obs.reset ();
  match J.path doc [ "traceEvents" ] with
  | Some (J.J_arr [ ev ]) ->
    Alcotest.(check bool) "name" true
      (J.member "name" ev = Some (J.J_str "scan\001 \xe2\x80\x94 all"));
    Alcotest.(check bool) "string arg" true
      (J.path ev [ "args"; "rel" ] = Some (J.J_str "t\tab"))
  | _ -> Alcotest.fail "expected one traceEvents entry"

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counters, histograms, probes" `Quick test_registry_basics;
          Alcotest.test_case "hist_reset and percentile ordering" `Quick
            test_hist_reset_and_percentiles;
          Alcotest.test_case "mask gating and ring wrap" `Quick test_mask_and_ring;
        ] );
      ( "trace-invariants",
        [
          Alcotest.test_case "fresh data re-reads without device traffic" `Quick
            test_written_chunk_rereads_without_device;
          Alcotest.test_case "read-ahead: one batched burst per run" `Quick
            test_readahead_single_burst;
          Alcotest.test_case "txn span ends at its commit point" `Quick
            test_txn_span_ends_at_commit;
          Alcotest.test_case "device reads nest in scans nest in txns" `Quick
            test_span_nesting;
        ] );
      ( "cost",
        [
          Alcotest.test_case "disabled tracing allocates nothing on get" `Quick
            test_disabled_tracing_allocates_nothing;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "reads the chrome trace" `Quick test_json_reads_chrome_trace;
        ] );
      ( "unification",
        [
          Alcotest.test_case "probes match legacy accessors" `Quick
            test_probes_match_legacy_counters;
          Alcotest.test_case "stats stay coherent under a workload" `Quick
            test_stats_coherence_under_workload;
        ] );
    ]
