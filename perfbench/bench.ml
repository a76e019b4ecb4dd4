(* Shared machinery for the workloads: wall timing, exact percentiles over
   raw samples, the per-layer ledger read from the layers' public counters,
   per-op spans for the traced run, and the expected-state bookkeeping the
   correctness checks lean on. *)

module Clock = Simclock.Clock
module Fs = Invfs.Fs

let wall () = Unix.gettimeofday ()

(* ---------- exact percentiles ----------

   Computed from every raw sample, never from the log-2 Obs histograms:
   linear interpolation between the two closest ranks of the sorted
   samples (the definition numpy calls "linear"). *)

let sorted_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile xs q =
  let a = sorted_of xs in
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile xs 0.5

(* ---------- op samples ---------- *)

(* "Read" commits nothing (read, stat, readdir, As_of); "write" commits a
   change (create, write, unlink, rename, begin/commit). *)
type cls = Read | Write

type sample = {
  kind : string;
  cls : cls;
  wall_us : float;  (** wall time of the op's execution *)
  sim_ms : float;
      (** simulated latency: elapsed time for closed loops, completion
          minus scheduled arrival for open loops *)
  queue_ms : float;  (** scheduled arrival to first start (open loops) *)
  attempts : int;  (** executions, retries after lock conflicts included *)
}

(* ---------- the system under test, as the ledger sees it ---------- *)

type system = {
  clock : Clock.t;
  db : Relstore.Db.t;
  fs : Fs.t;
  net : Netsim.t option;
  server : Remote.Server.t option;
}

let build_db ?os_cache_blocks ?(jukebox = false) () =
  let clock = Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Pagestore.Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  if jukebox then
    ignore
      (Pagestore.Switch.add_device switch ~name:"jukebox"
         ~kind:Pagestore.Device.Worm_jukebox ()
        : Pagestore.Device.t);
  let db = Relstore.Db.create ~switch ~clock ?os_cache_blocks () in
  (clock, db, Fs.make db ())

let devices sys = Pagestore.Switch.devices (Relstore.Db.switch sys.db)
let sum_devices sys f = List.fold_left (fun acc d -> acc + f d) 0 (devices sys)
let obs name = Option.value ~default:0 (Obs.Metrics.read name)
let h_group = Obs.Metrics.histogram "txn.commit.group_size"

(* Every counter the per-layer metrics are built from, by name.  Process-
   global Obs counters are read as deltas, so several systems built in one
   process do not disturb each other's numbers. *)
let counters : (string * (system -> int)) array =
  let server f sys = match sys.server with Some s -> f s | None -> 0 in
  let net f sys = match sys.net with Some n -> f n | None -> 0 in
  let cache f sys = f (Pagestore.Bufcache.stats (Relstore.Db.cache sys.db)) in
  [|
    ("net.messages", net Netsim.messages);
    ("net.bytes", net Netsim.bytes_sent);
    ("server.requests", server Remote.Server.requests);
    ("server.parks", server Remote.Server.parks);
    ("server.sheds", server Remote.Server.sheds);
    ("server.vacuum_steps", server Remote.Server.vacuum_steps);
    ("cache.gets", cache (fun s -> s.s_gets));
    ("cache.hits", cache (fun s -> s.s_hits));
    ("cache.misses", cache (fun s -> s.s_misses));
    ("cache.os_hits", cache (fun s -> s.s_os_hits));
    ("cache.writebacks", cache (fun s -> s.s_writebacks));
    ("cache.evictions", cache (fun s -> s.s_evictions));
    ("cache.readaheads", cache (fun s -> s.s_readaheads));
    ("cache.readahead_hits", cache (fun s -> s.s_readahead_hits));
    ("device.reads", fun sys -> sum_devices sys Pagestore.Device.reads);
    ("device.writes", fun sys -> sum_devices sys Pagestore.Device.writes);
    ("heap.scans", fun _ -> obs "heap.scans");
    ("txn.commits", fun sys -> Clock.ticks sys.clock "txn.commit");
    ("txn.aborts", fun sys -> Clock.ticks sys.clock "txn.abort");
    ("log.forces", fun _ -> Obs.Metrics.hist_count h_group);
    ("lock.waits", fun _ -> obs "lock.waits");
    ("lock.deadlocks", fun _ -> obs "lock.deadlocks");
    ("vacuum.archived", fun _ -> obs "vacuum.archived");
    ("gc.minor_words", fun _ -> int_of_float (Gc.minor_words ()));
    ("gc.major_collections", fun _ -> (Gc.quick_stat ()).Gc.major_collections);
  |]

let counter_index name =
  let rec go i =
    if i >= Array.length counters then invalid_arg ("Bench.counter_index: " ^ name)
    else if fst counters.(i) = name then i
    else go (i + 1)
  in
  go 0

type snap = {
  s_wall : float;
  s_sim_us : int64;
  s_counts : int array;
  s_accounts : (string * int64) list;  (** clock accounts, exact µs *)
}

let us_of_s s = Int64.of_float (Float.round (s *. 1e6))

let snapshot sys =
  {
    s_wall = wall ();
    s_sim_us = Clock.timestamp sys.clock;
    s_counts = Array.map (fun (_, f) -> f sys) counters;
    s_accounts = List.map (fun (k, s) -> (k, us_of_s s)) (Clock.accounts sys.clock);
  }

type delta = {
  d_wall_s : float;
  d_sim_us : int64;
  d_counts : int array;
  d_accounts : (string * int64) list;  (** nonzero account deltas, µs *)
}

let diff a b =
  {
    d_wall_s = b.s_wall -. a.s_wall;
    d_sim_us = Int64.sub b.s_sim_us a.s_sim_us;
    d_counts = Array.mapi (fun i v -> v - a.s_counts.(i)) b.s_counts;
    d_accounts =
      List.filter_map
        (fun (k, v) ->
          let v0 = Option.value ~default:0L (List.assoc_opt k a.s_accounts) in
          let d = Int64.sub v v0 in
          if d = 0L then None else Some (k, d))
        b.s_accounts;
  }

let count d name = d.d_counts.(counter_index name)

let account_ms d pred =
  List.fold_left
    (fun acc (k, us) -> if pred k then acc +. (Int64.to_float us /. 1e3) else acc)
    0. d.d_accounts

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* ---------- per-op spans (traced run only) ---------- *)

type span = {
  sp_op : int;
  sp_kind : string;
  sp_cls : cls;
  sp_attempt : int;
  sp_wall0 : float;
  sp_sim0_us : int64;
  sp_delta : delta;
}

type tracer = { mutable spans : span list; mutable on : bool }

let tracer () = { spans = []; on = false }

(* Run one op attempt; in a traced run, record its span: wall and simulated
   start/end plus the delta of every clock account and layer counter. *)
let traced tr sys ~op ~kind ~cls ?(attempt = 1) f =
  if not tr.on then f ()
  else begin
    let a = snapshot sys in
    let finish () =
      let b = snapshot sys in
      tr.spans <-
        {
          sp_op = op;
          sp_kind = kind;
          sp_cls = cls;
          sp_attempt = attempt;
          sp_wall0 = a.s_wall;
          sp_sim0_us = a.s_sim_us;
          sp_delta = diff a b;
        }
        :: tr.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* The ledger closes when an op's clock-account deltas add up exactly to
   its simulated elapsed time. *)
let ledger_closes sp =
  List.fold_left (fun acc (_, us) -> Int64.add acc us) 0L sp.sp_delta.d_accounts
  = sp.sp_delta.d_sim_us

(* ---------- timing one op ---------- *)

let cls_name = function Read -> "read" | Write -> "write"

(* Run one closed-loop op, timed on both clocks (and traced when on). *)
let time_op tr sys ~op ~kind ~cls f =
  traced tr sys ~op ~kind ~cls (fun () ->
      let s0 = Clock.now sys.clock and w0 = wall () in
      let v = f () in
      let w1 = wall () in
      ( {
          kind;
          cls;
          wall_us = (w1 -. w0) *. 1e6;
          sim_ms = (Clock.now sys.clock -. s0) *. 1e3;
          queue_ms = 0.;
          attempts = 1;
        },
        v ))

(* ---------- correctness ---------- *)

type checker = { mutable errors : string list; mutable nerrors : int }

let checker () = { errors = []; nerrors = 0 }

let fail ck fmt =
  Printf.ksprintf
    (fun msg ->
      ck.nerrors <- ck.nerrors + 1;
      if ck.nerrors <= 20 then ck.errors <- msg :: ck.errors)
    fmt

let check_bytes ck what ~expect real =
  if not (Bytes.equal expect real) then
    fail ck "%s: expected %d bytes, read %d (%s)" what (Bytes.length expect)
      (Bytes.length real)
      (if Bytes.length expect = Bytes.length real then "contents differ" else "length differs")

(* After [crash_and_recover]: the recovery report must be clean and the
   whole tree must equal the expected state (path -> bytes).  The walk runs
   in one read transaction so it resolves through the indexes. *)
let verify_tree ck sys ~(expect : (string, bytes) Hashtbl.t) =
  let s = Fs.new_session sys.fs in
  let seen = ref 0 in
  Fs.with_transaction s (fun () ->
      let rec walk dir =
        List.iter
          (fun name ->
            let path = if dir = "/" then "/" ^ name else dir ^ "/" ^ name in
            let att = Fs.stat s path in
            if att.Invfs.Fileatt.ftype = "directory" then walk path
            else begin
              incr seen;
              match Hashtbl.find_opt expect path with
              | None -> fail ck "after recovery: unexpected file %s" path
              | Some b -> check_bytes ck ("after recovery: " ^ path) ~expect:b (Fs.read_whole_file s path)
            end)
          (Fs.readdir s dir)
      in
      walk "/");
  if !seen <> Hashtbl.length expect then
    fail ck "after recovery: %d files in the tree, %d expected" !seen (Hashtbl.length expect)

let crash_and_verify ck sys ~expect =
  let w0 = wall () and s0 = Clock.now sys.clock in
  let r = Fs.crash_and_recover sys.fs in
  let recovery_s = wall () -. w0 and recovery_sim_s = Clock.now sys.clock -. s0 in
  if r.Fs.page_problems <> [] then
    fail ck "recovery: %d page problems" (List.length r.Fs.page_problems);
  if r.Fs.degraded <> [] then fail ck "recovery: degraded relations";
  verify_tree ck sys ~expect;
  (recovery_s, recovery_sim_s)

(* Bytes on every device per live user byte. *)
let space_amp sys ~(expect : (string, bytes) Hashtbl.t) =
  let live = Hashtbl.fold (fun _ b acc -> acc + Bytes.length b) expect 0 in
  let used = sum_devices sys Pagestore.Device.used_blocks in
  float_of_int (used * Pagestore.Page.size) /. float_of_int (max 1 live)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---------- one repetition of a workload ---------- *)

(* What the probes of the traced run are pointed at: the workload's final
   (recovered) system, a few of its file paths, and the file whose chunk
   index height is reported (the largest file the workload writes). *)
type target = { t_sys : system; t_paths : string array; t_chunk_path : string }

type rep = {
  setup_s : float;  (** wall: build the system and populate it *)
  samples : sample list;  (** every measured op *)
  lat : sample list;  (** the ops the simulated latency percentiles use *)
  phase : delta;  (** the ledger across the measured phase *)
  sim_ops_s : float;  (** closed-loop ops per simulated second *)
  slo_goodput_ops_s : float;
  user_bytes : int;  (** payload bytes user ops moved, both directions *)
  user_written : int;  (** payload bytes user ops wrote *)
  space_amp : float;
  recovery_s : float;
  recovery_sim_s : float;
  failed : int;  (** ops that never succeeded *)
  target : target;
}

(* Ops that met the 1 s simulated SLO, per simulated second of [span_s]. *)
let slo_goodput samples ~span_s =
  let ok = List.length (List.filter (fun s -> s.sim_ms <= 1000.) samples) in
  float_of_int ok /. span_s
