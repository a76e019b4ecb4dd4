(* The repository benchmark.

     main.exe --workload namespace|bulk|shared-load --seed N --seconds S
              --trace 0|1 [--out DIR]
     main.exe --selftest BENCHMARK.json

   An untraced run (--trace 0) repeats the workload on fresh systems until
   S wall seconds have passed.  Repetition i runs on inputs drawn from
   (seed, i), and the first few repetitions are always run, so every
   simulated-clock metric is a pure function of the seed.  Set-up and
   recovery wall times are medians over every repetition.  A traced run
   (--trace 1) runs repetition 0 once untraced and once with every Obs
   subsystem on and one span per op, checks each op's ledger, times the
   layer probes, and writes the spans and the Obs Chrome trace to DIR.
   The last line of standard output is the JSON result. *)

open Bench

type workload = {
  name : string;
  sim_reps : int;  (** repetitions the simulated metrics pool *)
  run : tiny:bool -> seed:int64 -> tracer:tracer -> rep * checker;
}

let workloads =
  [
    {
      name = "namespace";
      sim_reps = 3;
      run = (fun ~tiny -> Namespace.run (if tiny then Namespace.tiny else Namespace.full));
    };
    {
      name = "bulk";
      sim_reps = 3;
      run = (fun ~tiny -> Bulk.run (if tiny then Bulk.tiny else Bulk.full));
    };
    {
      name = "shared-load";
      sim_reps = 6;
      run = (fun ~tiny -> Shared_load.run (if tiny then Shared_load.tiny else Shared_load.full));
    };
  ]

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }
let subseed seed i = Int64.add (Int64.mul seed 7919L) (Int64.of_int i)
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let mean f l = sum f l /. float_of_int (max 1 (List.length l))
let of_cls c f samples = List.filter_map (fun s -> if s.cls = c then Some (f s) else None) samples
let ratio a b = if b = 0. then 0. else a /. b
let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

(* ---------- end-to-end metrics (untraced) ---------- *)

let end_to_end ~sim_reps ~heap_peak reps =
  let sim = take sim_reps reps in
  let lat = List.concat_map (fun r -> r.lat) sim in
  let sim_samples = List.concat_map (fun r -> r.samples) sim in
  let sim_ms s = s.sim_ms in
  [
    m "setup_s" "s" (median (List.map (fun r -> r.setup_s) reps));
    m "sim_ops_s" "1/s" (mean (fun r -> r.sim_ops_s) sim);
    m "sim_read_mean_ms" "ms" (mean Fun.id (of_cls Read sim_ms lat));
    m "sim_read_p95_ms" "ms" (percentile (of_cls Read sim_ms lat) 0.95);
    m "sim_write_mean_ms" "ms" (mean Fun.id (of_cls Write sim_ms lat));
    m "sim_write_p95_ms" "ms" (percentile (of_cls Write sim_ms lat) 0.95);
    m "sim_slo_goodput_ops_s" "1/s" (mean (fun r -> r.slo_goodput_ops_s) sim);
    m "attempts_per_op" "ratio" (mean (fun s -> float_of_int s.attempts) sim_samples);
    m "space_amp" "ratio" (mean (fun r -> r.space_amp) sim);
    m "heap_peak_mb" "MB" heap_peak;
    m "recovery_s" "s" (median (List.map (fun r -> r.recovery_s) reps));
    m "recovery_sim_s" "s" (mean (fun r -> r.recovery_sim_s) sim);
  ]

(* ---------- per-layer metrics (traced run) ---------- *)

let per_layer (r : rep) ~probes ~overhead ~open_ledgers =
  let d = r.phase in
  let n = float_of_int (List.length r.samples) in
  let c name = float_of_int (count d name) in
  let per_op name = c name /. n in
  let ms pred = account_ms d pred /. n in
  let sim_ms s = s.sim_ms and wall_us s = s.wall_us in
  [
    m "remote.msgs_per_op" "count" (per_op "net.messages");
    m "remote.wire_bytes_per_user_byte" "ratio" (ratio (c "net.bytes") (float_of_int r.user_bytes));
    m "remote.net_sim_ms_per_op" "ms" (ms (fun k -> k = "net" || k = "net.pipeline"));
    m "remote.queue_wait_p99_ms" "ms" (percentile (List.map (fun s -> s.queue_ms) r.lat) 0.99);
    m "remote.parks_per_op" "count" (per_op "server.parks");
    m "remote.sheds_per_op" "count" (per_op "server.sheds");
    m "relstore.heap_scans_per_op" "count" (per_op "heap.scans");
    m "relstore.commits_per_op" "count" (per_op "txn.commits");
    m "relstore.forces_per_commit" "ratio" (ratio (c "log.forces") (c "txn.commits"));
    m "relstore.commit_sim_ms_per_op" "ms" (ms (String.equal "xlog.commit"));
    m "relstore.cpu_sim_ms_per_op" "ms" (ms (String.equal "dbms.cpu"));
    m "relstore.lock_waits_per_op" "count" (per_op "lock.waits");
    m "relstore.deadlocks" "count" (c "lock.deadlocks");
    m "relstore.vacuum_steps" "count" (c "server.vacuum_steps");
    m "relstore.versions_archived" "count" (c "vacuum.archived");
    m "pagestore.pool_hit_ratio" "ratio" (ratio (c "cache.hits") (c "cache.gets"));
    m "pagestore.os_hit_ratio" "ratio" (ratio (c "cache.os_hits") (c "cache.misses"));
    m "pagestore.readahead_accuracy" "ratio" (ratio (c "cache.readahead_hits") (c "cache.readaheads"));
    m "pagestore.disk_sim_ms_per_op" "ms" (ms (has_prefix "disk."));
    m "pagestore.oscache_sim_ms_per_op" "ms" (ms (has_prefix "oscache."));
    m "pagestore.evictions_per_op" "count" (per_op "cache.evictions");
    m "pagestore.device_reads_per_op" "count" (per_op "device.reads");
    m "pagestore.device_writes_per_op" "count" (per_op "device.writes");
    m "pagestore.write_amp" "ratio"
      (ratio (c "cache.writebacks" *. float_of_int Pagestore.Page.size) (float_of_int r.user_written));
    m "runtime.minor_words_per_op" "count" (per_op "gc.minor_words");
    m "runtime.major_collections" "count" (c "gc.major_collections");
    m "runtime.wall_ops_s" "1/s" (n /. d.d_wall_s);
    m "runtime.wall_read_p50_us" "us" (median (of_cls Read wall_us r.samples));
    m "runtime.wall_write_p50_us" "us" (median (of_cls Write wall_us r.samples));
    m "runtime.wall_p99_us" "us" (percentile (List.map wall_us r.samples) 0.99);
    m "sim.read_p50_ms" "ms" (percentile (of_cls Read sim_ms r.lat) 0.5);
    m "sim.write_p50_ms" "ms" (percentile (of_cls Write sim_ms r.lat) 0.5);
    m "sim.read_p99_ms" "ms" (percentile (of_cls Read sim_ms r.lat) 0.99);
    m "sim.write_p99_ms" "ms" (percentile (of_cls Write sim_ms r.lat) 0.99);
    m "sim.unattributed_ms_per_op" "ms" (ms (String.equal "unattributed"));
    m "sim.ledger_open_ops" "count" (float_of_int open_ledgers);
    m "obs.trace_overhead_frac" "ratio" overhead;
  ]
  @ List.map (fun (name, v, u) -> m name u v) probes

(* ---------- the traced run's span file ---------- *)

let write_spans ~path ~workload ~t0 spans =
  let oc = open_out path in
  List.iter
    (fun sp ->
      let d = sp.sp_delta in
      let kv f l = String.concat "," (List.map f l) in
      let nonzero =
        List.filter
          (fun (_, v) -> v <> 0)
          (Array.to_list (Array.mapi (fun i (k, _) -> (k, d.d_counts.(i))) counters))
      in
      Printf.fprintf oc
        "{\"workload\":%S,\"op\":%d,\"class\":%S,\"kind\":%S,\"attempt\":%d,\"wall_start_us\":%.1f,\"wall_end_us\":%.1f,\"sim_start_us\":%Ld,\"sim_end_us\":%Ld,\"accounts_us\":{%s},\"counters\":{%s}}\n"
        workload sp.sp_op (cls_name sp.sp_cls) sp.sp_kind sp.sp_attempt
        ((sp.sp_wall0 -. t0) *. 1e6)
        ((sp.sp_wall0 +. d.d_wall_s -. t0) *. 1e6)
        sp.sp_sim0_us
        (Int64.add sp.sp_sim0_us d.d_sim_us)
        (kv (fun (k, v) -> Printf.sprintf "%S:%Ld" k v) d.d_accounts)
        (kv (fun (k, v) -> Printf.sprintf "%S:%d" k v) nonzero))
    (List.rev spans);
  close_out oc

(* ---------- one run ---------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  errors : string list;
}

let finite ms = List.for_all (fun x -> Float.is_finite x.value) ms

let run_rep wl ~tiny ~seed ~tracer =
  Gc.compact ();
  wl.run ~tiny ~seed ~tracer

let measure wl ~tiny ~seed ~seconds ~trace ~out =
  Obs.disable_all ();
  let t0 = wall () in
  if not trace then begin
    let reps = ref [] and errors = ref [] and heap_peak = ref 0. in
    let i = ref 0 in
    while !i < wl.sim_reps || wall () -. t0 < seconds do
      let r, ck = run_rep wl ~tiny ~seed:(subseed seed !i) ~tracer:(tracer ()) in
      if !i = 0 then heap_peak := heap_mb ();
      reps := r :: !reps;
      errors := !errors @ List.rev ck.errors;
      incr i
    done;
    let reps = List.rev !reps in
    let metrics = end_to_end ~sim_reps:wl.sim_reps ~heap_peak:!heap_peak reps in
    let failed = List.fold_left (fun acc (r : rep) -> acc + r.failed) 0 reps in
    {
      correct = !errors = [] && failed = 0 && finite metrics;
      attempted = List.fold_left (fun acc (r : rep) -> acc + List.length r.samples) 0 reps;
      failed;
      metrics;
      errors = !errors;
    }
  end
  else begin
    let seed0 = subseed seed 0 in
    let plain, ck0 = run_rep wl ~tiny ~seed:seed0 ~tracer:(tracer ()) in
    let tr = tracer () in
    tr.on <- true;
    Obs.Trace.clear ();
    Obs.enable_all ();
    let traced_rep, ck1 = run_rep wl ~tiny ~seed:seed0 ~tracer:tr in
    Obs.disable_all ();
    let ops_s r = float_of_int (List.length r.samples) /. r.phase.d_wall_s in
    let overhead = 1. -. (ops_s traced_rep /. ops_s plain) in
    let open_ledgers = List.length (List.filter (fun sp -> not (ledger_closes sp)) tr.spans) in
    let probes = Probes.run traced_rep.target in
    (match out with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let base = Filename.concat dir (Printf.sprintf "%s-seed%Ld" wl.name seed) in
      write_spans ~path:(base ^ ".spans.jsonl") ~workload:wl.name ~t0 tr.spans;
      Out_channel.with_open_bin (base ^ ".chrome.json") (fun oc ->
          output_string oc (Obs.Trace.to_chrome_json ())));
    let metrics = per_layer plain ~probes ~overhead ~open_ledgers in
    let errors =
      List.rev ck0.errors @ List.rev ck1.errors
      @
      if open_ledgers = 0 then []
      else [ Printf.sprintf "%d ops' clock accounts do not add up to their elapsed time" open_ledgers ]
    in
    let failed = plain.failed + traced_rep.failed in
    {
      correct = errors = [] && failed = 0 && finite metrics;
      attempted = List.length plain.samples + List.length traced_rep.samples;
      failed;
      metrics;
      errors;
    }
  end

let json_of_result r =
  let metric x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name
      (if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "0")
      x.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* ---------- self-test ---------- *)

(* Enough JSON to read BENCHMARK.json. *)
type json = Num of float | Str of string | Arr of json list | Obj of (string * json) list | Lit

let parse_json s =
  let i = ref 0 and len = String.length s in
  let rec ws () =
    if !i < len && String.contains " \t\r\n" s.[!i] then begin
      incr i;
      ws ()
    end
  in
  let expect c =
    ws ();
    if !i >= len || s.[!i] <> c then failwith (Printf.sprintf "json: expected %c at %d" c !i);
    incr i
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while s.[!i] <> '"' do
      if s.[!i] = '\\' then incr i;
      Buffer.add_char b s.[!i];
      incr i
    done;
    incr i;
    Buffer.contents b
  in
  let seq close item =
    incr i;
    ws ();
    if s.[!i] = close then (incr i; [])
    else begin
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if s.[!i] = ',' then (incr i; more acc) else (expect close; List.rev acc)
      in
      more []
    end
  in
  let rec value () =
    ws ();
    match s.[!i] with
    | '{' ->
      Obj
        (seq '}' (fun () ->
             let k = str () in
             expect ':';
             (k, value ())))
    | '[' -> Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' | 'n' -> i := !i + 4; Lit
    | 'f' -> i := !i + 5; Lit
    | _ ->
      let j = !i in
      while !i < len && String.contains "0123456789+-.eE" s.[!i] do
        incr i
      done;
      Num (float_of_string (String.sub s j (!i - j)))
  in
  value ()

let spec_metrics json key =
  let bad () = failwith ("BENCHMARK.json: bad or missing " ^ key) in
  match json with
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some (Arr items) ->
      List.map
        (function
          | Obj f -> (
            match (List.assoc_opt "name" f, List.assoc_opt "unit" f) with
            | Some (Str n), Some (Str u) -> (n, u)
            | _ -> bad ())
          | _ -> bad ())
        items
    | _ -> bad ())
  | _ -> bad ()

let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Counts and simulated-clock metrics must repeat exactly for one seed;
   wall-clock, memory, runtime and trace-overhead metrics need not. *)
let deterministic name =
  not
    (List.mem name [ "setup_s"; "heap_peak_mb"; "recovery_s" ]
    || contains "wall" name || has_prefix "runtime." name || has_prefix "obs." name)

let selftest spec_path =
  let spec = parse_json (In_channel.with_open_bin spec_path In_channel.input_all) in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun wl ->
      List.iter
        (fun (trace, key) ->
          let names = spec_metrics spec key in
          let go () = measure wl ~tiny:true ~seed:7L ~seconds:0. ~trace ~out:None in
          let a = go () and b = go () in
          if not a.correct then
            problem "%s trace=%b: incorrect: %s" wl.name trace (String.concat "; " a.errors);
          List.iter
            (fun (name, unit_) ->
              match List.find_opt (fun x -> x.m_name = name) a.metrics with
              | None -> problem "%s: metric %s not printed" wl.name name
              | Some x ->
                if x.unit_ <> unit_ then
                  problem "%s: %s has unit %s, BENCHMARK.json says %s" wl.name name x.unit_ unit_;
                if not (Float.is_finite x.value) then problem "%s: %s is not finite" wl.name name;
                let y = List.find (fun y -> y.m_name = name) b.metrics in
                if deterministic name && x.value <> y.value then
                  problem "%s: %s differs between same-seed runs (%.17g vs %.17g)" wl.name name
                    x.value y.value)
            names;
          Printf.printf "%s trace=%b: %d metrics checked\n%!" wl.name trace (List.length names))
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  match !problems with
  | [] -> print_endline "selftest ok"
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 10. and trace = ref 0 in
  let out = ref "perfbench/out" and spec = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " namespace | bulk | shared-load");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), " input seed");
      ("--seconds", Arg.Set_float seconds, " wall seconds to measure for");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--out", Arg.Set_string out, " directory for the traced run's spans");
      ("--selftest", Arg.Set_string spec, " BENCHMARK.json: check every metric, twice");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !spec <> "" then selftest !spec
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    | Some wl ->
      let r =
        measure wl ~tiny:false ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:(Some !out)
      in
      List.iter (fun e -> Printf.printf "error: %s\n" e) r.errors;
      List.iter (fun x -> Printf.printf "%-36s %18.6f %s\n" x.m_name x.value x.unit_) r.metrics;
      print_endline (json_of_result r)
