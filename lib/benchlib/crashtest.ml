(* Differential crash-recovery harness.

   A pure in-memory oracle tracks what the file system's *committed*
   state must be; the real Invfs.Fs runs the same randomized workload in
   lockstep, with a seeded fault plan injecting crashes and transient I/O
   errors underneath it.  After every crash we run whole-system recovery
   and compare the real tree byte-for-byte against the oracle, plus
   time-travel reads against remembered pre-crash instants.

   Modelled commit semantics (mirrors fs.ml):
   - outside an explicit transaction every mutating call is its own
     transaction, so an op either lands fully or not at all;
   - inside a transaction all of a session's mutations are buffered in a
     per-session overlay and merged into the oracle only when p_commit
     returns normally;
   - a crash, I/O error, lock conflict or commit-time Not_found aborts
     the transaction: the overlay is dropped;
   - cross-session reads see latest-committed (Snapshot.Current), which
     is exactly the oracle's committed map. *)

module SM = Map.Make (String)
module OM = Map.Make (Int64)
module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Recovery = Invfs.Recovery
module Fsck = Invfs.Fsck
module Device = Pagestore.Device

type config = {
  ops : int;
  sessions : int;
  crash_interval : int;
  snapshot_interval : int;
  io_error_interval : int;
  max_file_bytes : int;
  max_dirs : int;
  trace : bool;
  mirrored : bool;
  bitrot_interval : int;
  stuck_interval : int;
  kill_mirror_at : int;
  scrub_interval : int;
  (* Deferred index inserts (Db.create): the [@creategap] sweep runs each
     seed with them off and on and demands oracle-identical outcomes. *)
  deferred_index : bool;
}

let default_config =
  {
    ops = 200;
    sessions = 3;
    crash_interval = 25;
    snapshot_interval = 20;
    io_error_interval = 40;
    max_file_bytes = 48 * 1024;
    max_dirs = 10;
    trace = false;
    mirrored = false;
    bitrot_interval = 0;
    stuck_interval = 0;
    kill_mirror_at = 0;
    scrub_interval = 0;
    deferred_index = false;
  }

(* Mirrored pair under continuous media decay: bitrot and stuck blocks
   keep landing, the scrubber and the failover read path keep healing, and
   the run must still converge byte-identically. *)
let media_config =
  { default_config with mirrored = true; bitrot_interval = 7; stuck_interval = 29; scrub_interval = 13 }

(* Mirrored pair that loses its redundancy mid-run: a belt-and-braces full
   scrub confirms both copies are whole, then the secondary dies outright
   and the primary must carry the rest of the workload alone. *)
let media_kill_config =
  {
    default_config with
    mirrored = true;
    bitrot_interval = 9;
    stuck_interval = 31;
    scrub_interval = 11;
    kill_mirror_at = 100;
  }

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  crashes : int;
  injected_crashes : int;
  commits : int;
  aborts : int;
  lock_skips : int;
  io_faults : int;
  indexes_rebuilt : int;
  time_travel_checks : int;
  full_verifies : int;
  media_events : int;
  scrub_repaired : int;
  cache_hits : int;
  cache_misses : int;
  cache_readaheads : int;
  cache_evictions : int;
  mismatches : string list;
}

let outcome_to_string o =
  Printf.sprintf
    "seed=%Ld ops=%d/%d crashes=%d (%d injected) commits=%d aborts=%d \
     lock_skips=%d io_faults=%d idx_rebuilt=%d tt_checks=%d verifies=%d \
     media_events=%d scrub_repaired=%d cache=%d/%d ra=%d ev=%d mismatches=%d"
    o.seed o.ops_applied o.ops_attempted o.crashes o.injected_crashes o.commits
    o.aborts o.lock_skips o.io_faults o.indexes_rebuilt o.time_travel_checks
    o.full_verifies o.media_events o.scrub_repaired o.cache_hits o.cache_misses
    o.cache_readaheads o.cache_evictions
    (List.length o.mismatches)

(* ---------- oracle ---------- *)

type oracle = {
  mutable files : bytes OM.t; (* oid -> committed contents *)
  mutable names : int64 SM.t; (* path -> oid *)
  mutable dirs : unit SM.t; (* directory paths, including "/" *)
  mutable history : (int64 * bytes SM.t * string list) list; (* newest first *)
}

(* Updates produced by one op (or accumulated by one transaction).
   [names] apply in order; content updates apply to oids that remain
   named afterwards; unnamed oids are dropped (their data is only
   reachable by time travel, which the history snapshots cover). *)
type updates = {
  u_names : (string * int64 option) list;
  u_files : (int64 * bytes) list;
  u_dirs : string list;
}

let no_updates = { u_names = []; u_files = []; u_dirs = [] }

let commit_updates ora u =
  List.iter
    (fun (path, v) ->
      match v with
      | Some oid -> ora.names <- SM.add path oid ora.names
      | None -> ora.names <- SM.remove path ora.names)
    u.u_names;
  let named =
    SM.fold (fun _ oid acc -> OM.add oid () acc) ora.names OM.empty
  in
  List.iter
    (fun (oid, data) ->
      if OM.mem oid named then ora.files <- OM.add oid data ora.files)
    u.u_files;
  ora.files <- OM.filter (fun oid _ -> OM.mem oid named) ora.files;
  List.iter (fun d -> ora.dirs <- SM.add d () ora.dirs) u.u_dirs

(* ---------- sessions ---------- *)

type sess = {
  id : int;
  mutable s : Fs.session;
  mutable in_txn : bool;
  mutable ov_names : int64 option SM.t; (* None = unlinked in this txn *)
  mutable ov_files : bytes OM.t;
  mutable ov_dirs : string list;
}

let clear_overlay ss =
  ss.in_txn <- false;
  ss.ov_names <- SM.empty;
  ss.ov_files <- OM.empty;
  ss.ov_dirs <- []

let overlay_updates ss =
  {
    u_names = SM.bindings ss.ov_names;
    u_files = OM.bindings ss.ov_files;
    u_dirs = List.rev ss.ov_dirs;
  }

let record ora ss u =
  if ss.in_txn then begin
    List.iter (fun (p, v) -> ss.ov_names <- SM.add p v ss.ov_names) u.u_names;
    List.iter (fun (oid, b) -> ss.ov_files <- OM.add oid b ss.ov_files) u.u_files;
    List.iter (fun d -> ss.ov_dirs <- d :: ss.ov_dirs) u.u_dirs
  end
  else commit_updates ora u

(* What this session currently sees: committed state overlaid with its
   own uncommitted transaction. *)
let view_names ora ss =
  SM.fold
    (fun path v acc ->
      match v with Some oid -> SM.add path oid acc | None -> SM.remove path acc)
    ss.ov_names ora.names

let view_content ora ss oid =
  match OM.find_opt oid ss.ov_files with
  | Some b -> Some b
  | None -> OM.find_opt oid ora.files

let view_dirs ora ss =
  List.rev_append ss.ov_dirs (List.map fst (SM.bindings ora.dirs))
  |> List.sort_uniq String.compare

(* ---------- harness state ---------- *)

type state = {
  cfg : config;
  rng : Rng.t;
  db : Relstore.Db.t;
  fs : Fs.t;
  plan : Faultsim.t;
  scrub : Pagestore.Scrub.t option;
  ora : oracle;
  sessions : sess array;
  mutable next_name : int;
  mutable ops_attempted : int;
  mutable ops_applied : int;
  mutable crashes : int;
  mutable injected_crashes : int;
  mutable commits : int;
  mutable aborts : int;
  mutable lock_skips : int;
  mutable io_faults : int;
  mutable indexes_rebuilt : int;
  mutable time_travel_checks : int;
  mutable full_verifies : int;
  mutable scrub_repaired : int;
  mutable latent_rots : int;
  mutable mismatches : string list;
}

let max_mismatches = 50

let trace st fmt =
  Printf.ksprintf (fun msg -> if st.cfg.trace then Printf.eprintf "%s\n%!" msg) fmt

let mismatch st fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length st.mismatches < max_mismatches then
        st.mismatches <- msg :: st.mismatches)
    fmt

let fresh_name st prefix =
  let n = st.next_name in
  st.next_name <- n + 1;
  Printf.sprintf "%s%d" prefix n

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

let pick st l =
  match l with
  | [] -> invalid_arg "Crashtest.pick: empty"
  | l -> List.nth l (Rng.int st.rng (List.length l))

let pick_dir st ss = pick st (view_dirs st.ora ss)

let pick_file st ss =
  match SM.bindings (view_names st.ora ss) with
  | [] -> None
  | files -> Some (pick st files)

let bytes_diff a b =
  if Bytes.equal a b then None
  else begin
    let la = Bytes.length a and lb = Bytes.length b in
    let n = min la lb in
    let i = ref 0 in
    while !i < n && Bytes.get a !i = Bytes.get b !i do
      incr i
    done;
    Some (Printf.sprintf "lengths %d vs %d, first difference at byte %d" la lb !i)
  end

(* splice [data] into [cur] at [off]; [cur] is not mutated *)
let splice cur ~off data =
  let len = Bytes.length cur and dlen = Bytes.length data in
  let out = Bytes.make (max len (off + dlen)) '\000' in
  Bytes.blit cur 0 out 0 len;
  Bytes.blit data 0 out off dlen;
  out

(* ---------- ops ---------- *)

let op_create st ss =
  let path = join (pick_dir st ss) (fresh_name st "f") in
  let fd = Fs.p_creat ss.s path in
  let oid = Fs.fd_oid ss.s fd in
  Fs.p_close ss.s fd;
  trace st "s%d creat %s -> oid %Ld" ss.id path oid;
  { no_updates with u_names = [ (path, Some oid) ]; u_files = [ (oid, Bytes.create 0) ] }

let op_mkdir st ss =
  if List.length (view_dirs st.ora ss) >= st.cfg.max_dirs then op_create st ss
  else begin
    let path = join (pick_dir st ss) (fresh_name st "d") in
    Fs.mkdir ss.s path;
    trace st "s%d mkdir %s" ss.id path;
    { no_updates with u_dirs = [ path ] }
  end

let op_write st ss =
  match pick_file st ss with
  | None -> op_create st ss
  | Some (path, oid) ->
    let cur =
      match view_content st.ora ss oid with
      | Some b -> b
      | None -> Bytes.create 0 (* unreachable: named oids have content *)
    in
    let len = Bytes.length cur in
    (* Inside a transaction, several sequential p_writes exercise the
       write-coalescing path; outside, one p_write is one transaction so
       the op stays atomic (a single large write still spans chunks). *)
    let nseg = if ss.in_txn then 1 + Rng.int st.rng 3 else 1 in
    let segs = List.init nseg (fun _ -> Rng.bytes st.rng (1 + Rng.int st.rng 6800)) in
    let total = List.fold_left (fun a s -> a + Bytes.length s) 0 segs in
    let off =
      if len + total > st.cfg.max_file_bytes then
        (* overwrite-only: stay inside the existing extent *)
        if len - total <= 0 then 0 else Rng.int st.rng (len - total + 1)
      else Rng.int st.rng (len + 1)
    in
    trace st "s%d write %s (oid %Ld) off=%d total=%d nseg=%d cur_len=%d" ss.id path oid
      off total nseg len;
    let fd = Fs.p_open ss.s path Fs.Rdwr in
    ignore (Fs.p_lseek ss.s fd (Int64.of_int off) Fs.Seek_set : int64);
    List.iter (fun seg -> ignore (Fs.p_write ss.s fd seg (Bytes.length seg) : int)) segs;
    Fs.p_close ss.s fd;
    let data = Bytes.concat Bytes.empty segs in
    { no_updates with u_files = [ (oid, splice cur ~off data) ] }

let op_truncate st ss =
  match pick_file st ss with
  | None -> op_create st ss
  | Some (path, oid) ->
    let cur = Option.value ~default:(Bytes.create 0) (view_content st.ora ss oid) in
    let len = Bytes.length cur in
    let new_len = Rng.int st.rng (min (len + 8000) st.cfg.max_file_bytes + 1) in
    trace st "s%d trunc %s (oid %Ld) %d -> %d" ss.id path oid len new_len;
    let fd = Fs.p_open ss.s path Fs.Rdwr in
    Fs.ftruncate ss.s fd (Int64.of_int new_len);
    Fs.p_close ss.s fd;
    let data =
      if new_len <= len then Bytes.sub cur 0 new_len
      else begin
        let out = Bytes.make new_len '\000' in
        Bytes.blit cur 0 out 0 len;
        out
      end
    in
    { no_updates with u_files = [ (oid, data) ] }

let op_unlink st ss =
  match pick_file st ss with
  | None -> op_create st ss
  | Some (path, _oid) ->
    trace st "s%d unlink %s" ss.id path;
    Fs.unlink ss.s path;
    { no_updates with u_names = [ (path, None) ] }

let op_rename st ss =
  match pick_file st ss with
  | None -> op_create st ss
  | Some (path, oid) ->
    let dst = join (pick_dir st ss) (fresh_name st "r") in
    trace st "s%d rename %s -> %s (oid %Ld)" ss.id path dst oid;
    Fs.rename ss.s path dst;
    { no_updates with u_names = [ (path, None); (dst, Some oid) ] }

let op_read_check st ss =
  (match pick_file st ss with
  | None -> ()
  | Some (path, oid) ->
    trace st "s%d read %s (oid %Ld)" ss.id path oid;
    let real = Fs.read_whole_file ss.s path in
    let expect = Option.value ~default:(Bytes.create 0) (view_content st.ora ss oid) in
    (match bytes_diff expect real with
    | None -> ()
    | Some d ->
      (if st.cfg.trace then
         let nonzero b =
           let n = ref 0 in
           Bytes.iter (fun c -> if c <> '\000' then incr n) b;
           !n
         in
         trace st "  DIVERGED: expect nonzero=%d real nonzero=%d (len %d/%d)"
           (nonzero expect) (nonzero real) (Bytes.length expect) (Bytes.length real));
      mismatch st "read %s diverged mid-run: %s" path d));
  no_updates

let op_begin st ss =
  trace st "s%d begin" ss.id;
  Fs.p_begin ss.s;
  ss.in_txn <- true;
  no_updates

let op_commit st ss =
  trace st "s%d commit" ss.id;
  Fs.p_commit ss.s;
  (* merge only after p_commit returned: if it raised, nothing lands *)
  commit_updates st.ora (overlay_updates ss);
  clear_overlay ss;
  st.commits <- st.commits + 1;
  no_updates

let op_abort st ss =
  trace st "s%d abort" ss.id;
  Fs.p_abort ss.s;
  clear_overlay ss;
  st.aborts <- st.aborts + 1;
  no_updates

(* Weighted op choice.  In-transaction sessions must eventually commit or
   abort; sessions outside a transaction sometimes begin one. *)
let gen_op st ss =
  let r = Rng.int st.rng 100 in
  if ss.in_txn then
    if r < 30 then op_write
    else if r < 40 then op_create
    else if r < 48 then op_truncate
    else if r < 54 then op_unlink
    else if r < 60 then op_rename
    else if r < 72 then op_read_check
    else if r < 90 then op_commit
    else op_abort
  else if r < 28 then op_write
  else if r < 40 then op_create
  else if r < 46 then op_mkdir
  else if r < 54 then op_truncate
  else if r < 62 then op_unlink
  else if r < 70 then op_rename
  else if r < 88 then op_read_check
  else op_begin

(* ---------- crash / recovery / verification ---------- *)

let take_snapshot st =
  let ts = Relstore.Db.now st.db in
  let materialized =
    SM.map
      (fun oid ->
        match OM.find_opt oid st.ora.files with
        | Some b -> Bytes.copy b
        | None -> Bytes.create 0)
      st.ora.names
  in
  let dirs = List.map fst (SM.bindings st.ora.dirs) in
  st.ora.history <- (ts, materialized, dirs) :: st.ora.history;
  (let rec cap n = function
     | [] -> []
     | _ when n = 0 -> []
     | x :: tl -> x :: cap (n - 1) tl
   in
   st.ora.history <- cap 8 st.ora.history);
  (* Move time past the snapshot instant so no later commit can share its
     timestamp (As_of visibility uses <=). *)
  Simclock.Clock.advance (Relstore.Db.clock st.db) ~account:"crashtest.mark" 1e-6

(* Recursively walk the real tree and collect files and directories. *)
let walk_real st =
  let s = st.sessions.(0).s in
  let files = ref SM.empty and dirs = ref SM.empty in
  let rec go dir =
    dirs := SM.add dir () !dirs;
    List.iter
      (fun name ->
        let path = join dir name in
        let att = Fs.stat s path in
        if att.Invfs.Fileatt.ftype = "directory" then go path
        else files := SM.add path (Fs.read_whole_file s path) !files)
      (Fs.readdir s dir)
  in
  go "/";
  (!files, !dirs)

let verify_full_state st ~phase =
  st.full_verifies <- st.full_verifies + 1;
  let real_files, real_dirs = walk_real st in
  let dirs_expect = List.map fst (SM.bindings st.ora.dirs) in
  let dirs_real = List.map fst (SM.bindings real_dirs) in
  if dirs_expect <> dirs_real then
    mismatch st "%s: directories differ: oracle [%s] real [%s]" phase
      (String.concat "," dirs_expect) (String.concat "," dirs_real);
  SM.iter
    (fun path oid ->
      match SM.find_opt path real_files with
      | None -> mismatch st "%s: %s missing from real fs" phase path
      | Some real -> (
        let expect = Option.value ~default:(Bytes.create 0) (OM.find_opt oid st.ora.files) in
        match bytes_diff expect real with
        | None -> ()
        | Some d -> mismatch st "%s: %s content differs: %s" phase path d))
    st.ora.names;
  SM.iter
    (fun path _ ->
      if not (SM.mem path st.ora.names) then
        mismatch st "%s: real fs has unexpected file %s" phase path)
    real_files

let check_time_travel st =
  let s = st.sessions.(0).s in
  List.iter
    (fun (ts, materialized, dirs) ->
      SM.iter
        (fun path expect ->
          st.time_travel_checks <- st.time_travel_checks + 1;
          match Fs.read_whole_file s ~timestamp:ts path with
          | real -> (
            match bytes_diff expect real with
            | None -> ()
            | Some d -> mismatch st "time travel @%Ld: %s differs: %s" ts path d)
          | exception Errors.Fs_error (code, _) ->
            mismatch st "time travel @%Ld: %s unreadable (%s)" ts path
              (Errors.code_to_string code))
        materialized;
      List.iter
        (fun dir ->
          st.time_travel_checks <- st.time_travel_checks + 1;
          if not (Fs.exists s ~timestamp:ts dir) then
            mismatch st "time travel @%Ld: directory %s missing" ts dir)
        dirs)
    st.ora.history

let do_crash st ~injected =
  trace st "== CRASH (injected=%b) after op %d" injected st.ops_attempted;
  st.crashes <- st.crashes + 1;
  if injected then st.injected_crashes <- st.injected_crashes + 1;
  (* Recovery must run fault-free: the machine that comes back up is a
     healthy one.  Hooks stay armed; the schedule is simply empty. *)
  Faultsim.clear_schedule st.plan;
  let rep = Recovery.crash_and_recover st.fs in
  st.indexes_rebuilt <- st.indexes_rebuilt + Recovery.indexes_rebuilt rep;
  if not (Recovery.is_clean rep) then
    mismatch st "recovery not clean: %s" (Recovery.report_to_string rep);
  (* Pre-crash sessions are dead: fresh ones, uncommitted overlays gone. *)
  Array.iter
    (fun ss ->
      ss.s <- Fs.new_session st.fs;
      clear_overlay ss)
    st.sessions;
  verify_full_state st ~phase:"post-crash";
  check_time_travel st;
  (* Arm the next random crash point. *)
  Faultsim.schedule_random_crash st.plan st.rng ~within:(30 + Rng.int st.rng 150)

let safe_abort st ss =
  if Fs.in_transaction ss.s then (try Fs.p_abort ss.s with _ -> ());
  if ss.in_txn then st.aborts <- st.aborts + 1;
  clear_overlay ss

let run_one_op st =
  st.ops_attempted <- st.ops_attempted + 1;
  trace st "-- op %d" st.ops_attempted;
  let ss = st.sessions.(Rng.int st.rng (Array.length st.sessions)) in
  let op = gen_op st ss in
  match op st ss with
  | u ->
    record st.ora ss u;
    st.ops_applied <- st.ops_applied + 1
  | exception Device.Crash_injected _ -> do_crash st ~injected:true
  | exception Device.Io_fault _ ->
    trace st "s%d .. io fault" ss.id;
    st.io_faults <- st.io_faults + 1;
    safe_abort st ss
  | exception Device.Media_failure { device; segid; blkno; reason } ->
    (* With mirrored placement no op should ever see a permanent media
       fault — retry/failover must absorb them — so this is a finding. *)
    mismatch st "op hit media failure on %s/%d/%d: %s" device segid blkno reason;
    safe_abort st ss
  | exception Errors.Fs_error ((Errors.EAGAIN | Errors.EDEADLK), _) ->
    trace st "s%d .. lock skip" ss.id;
    st.lock_skips <- st.lock_skips + 1;
    safe_abort st ss
  | exception Not_found ->
    (* commit found a file unlinked by a concurrent session: the
       transaction cannot complete *)
    safe_abort st ss
  | exception Errors.Fs_error (code, msg) ->
    mismatch st "unexpected fs error %s: %s" (Errors.code_to_string code) msg;
    safe_abort st ss

(* A scrub pass is ordinary background I/O: a fault plan crash can fire
   inside a repair write, and the harness recovers exactly as for a
   foreground op. *)
let scrub_step st ~pages =
  match st.scrub with
  | None -> ()
  | Some sc -> (
    match Pagestore.Scrub.step sc ~pages with
    | s ->
      st.scrub_repaired <- st.scrub_repaired + s.Pagestore.Scrub.repaired;
      List.iter
        (fun (dev, segid, blkno, reason) ->
          mismatch st "scrub found unrepairable block %s/%d/%d: %s" dev segid blkno reason)
        s.Pagestore.Scrub.unrepairable
    | exception Device.Crash_injected _ -> do_crash st ~injected:true
    | exception Device.Io_fault _ -> st.io_faults <- st.io_faults + 1)

let run ?(config = default_config) ~seed () =
  let rng = Rng.create seed in
  (* Build the switch explicitly (same shape Db.create would make) so the
     mirrored configuration can add and pair the secondary. *)
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Device.Magnetic_disk ()
  in
  if config.mirrored then begin
    let (_ : Device.t) =
      Pagestore.Switch.add_device switch ~name:"disk1" ~kind:Device.Magnetic_disk ()
    in
    Pagestore.Switch.mirror switch ~primary:"disk0" ~secondary:"disk1"
  end;
  let db =
    Relstore.Db.create ~switch ~clock ~deferred_index:config.deferred_index ()
  in
  let fs = Fs.make db () in
  let plan = Faultsim.create () in
  Faultsim.arm_switch plan (Relstore.Db.switch db);
  Faultsim.arm_cache plan (Relstore.Db.cache db);
  let ora = { files = OM.empty; names = SM.empty; dirs = SM.add "/" () SM.empty; history = [] } in
  let st =
    {
      cfg = config;
      rng;
      db;
      fs;
      plan;
      scrub = (if config.scrub_interval > 0 then Some (Pagestore.Scrub.create switch) else None);
      ora;
      sessions = Array.init config.sessions (fun id -> {
        id;
        s = Fs.new_session fs;
        in_txn = false;
        ov_names = SM.empty;
        ov_files = OM.empty;
        ov_dirs = [];
      });
      next_name = 0;
      ops_attempted = 0;
      ops_applied = 0;
      crashes = 0;
      injected_crashes = 0;
      commits = 0;
      aborts = 0;
      lock_skips = 0;
      io_faults = 0;
      indexes_rebuilt = 0;
      time_travel_checks = 0;
      full_verifies = 0;
      scrub_repaired = 0;
      latent_rots = 0;
      mismatches = [];
    }
  in
  let mirror_alive () =
    config.mirrored && not (Device.is_dead (Pagestore.Switch.find switch "disk1"))
  in
  Faultsim.schedule_random_crash plan rng ~within:60;
  for i = 0 to config.ops - 1 do
    if i > 0 && i mod config.io_error_interval = 0 then begin
      let io = if Rng.bool rng then Faultsim.Write else Faultsim.Read in
      Faultsim.schedule plan ~io ~after:(1 + Rng.int rng 30) Faultsim.Io_error
    end;
    (* Media decay lands only on the read stream, at most one fault in
       flight, and only while both copies live.  A read-path fault is
       detected and repaired within the very call that trips it (checksum
       verify, mirror failover, in-place repair / sector reallocation), so
       decay never goes latent — and two faults can never land on both
       copies of one block, which would be genuine data loss rather than a
       resilience bug. *)
    (* The window is short: device reads are rare (most are cache hits)
       and a crash clears the schedule, so a wide window leaves faults
       forever pending instead of firing. *)
    if config.bitrot_interval > 0 && i > 0 && i mod config.bitrot_interval = 0
       && mirror_alive () && Faultsim.pending_media plan = 0
    then begin
      if Rng.bool rng then
        Faultsim.schedule_random plan rng ~io:Faultsim.Read ~within:3 Faultsim.Bitrot
      else begin
        (* Latent decay for the scrubber: flip stored bytes on a random
           primary block, off the I/O streams entirely.  The mirror keeps
           the good copy, so the rot is always repairable — by the
           scrubber if it walks past first, by read failover otherwise.
           (Rotting the same block twice restores it: the XOR mask is
           self-inverse.  Either way nothing is lost.) *)
        let d0 = Pagestore.Switch.find switch "disk0" in
        match Device.segments d0 with
        | [] -> ()
        | segs ->
          let segid = List.nth segs (Rng.int rng (List.length segs)) in
          let n = Device.nblocks d0 segid in
          if n > 0 then begin
            let blkno = Rng.int rng n in
            trace st "== LATENT ROT disk0/%d/%d" segid blkno;
            st.latent_rots <- st.latent_rots + 1;
            Device.rot_block d0 ~segid ~blkno
          end
      end
    end;
    if config.stuck_interval > 0 && i > 0 && i mod config.stuck_interval = 0
       && mirror_alive () && Faultsim.pending_media plan = 0
    then Faultsim.schedule_random plan rng ~io:Faultsim.Read ~within:3 Faultsim.Stuck;
    if config.kill_mirror_at > 0 && i = config.kill_mirror_at && mirror_alive () then begin
      (* Lose the redundancy mid-run: drop pending faults, scrub every
         latent rot out of the pair while the mirror still answers, then
         the secondary dies and the primary carries the rest alone. *)
      trace st "== KILLING MIRROR disk1 at op %d" i;
      Faultsim.clear_schedule st.plan;
      (match st.scrub with
      | Some _ -> scrub_step st ~pages:max_int
      | None -> (
        try ignore (Pagestore.Scrub.run switch : Pagestore.Scrub.stats)
        with Device.Crash_injected _ -> do_crash st ~injected:true));
      Device.kill (Pagestore.Switch.find switch "disk1");
      Faultsim.schedule_random_crash st.plan st.rng ~within:(30 + Rng.int st.rng 150)
    end;
    if i > 0 && i mod config.crash_interval = 0 then
      (* boundary crash: deliberately while sessions may hold open
         transactions (crash-with-multiple-open-sessions coverage) *)
      do_crash st ~injected:false
    else run_one_op st;
    if config.scrub_interval > 0 && i > 0 && i mod config.scrub_interval = 0 then
      scrub_step st ~pages:64;
    if i > 0 && i mod config.snapshot_interval = 0 then take_snapshot st
  done;
  (* Always finish with a crash + full verification. *)
  do_crash st ~injected:false;
  Faultsim.disarm plan;
  (* Counters are cumulative across the run's crashes (crash empties the
     pool but keeps the tallies), so this snapshot describes the whole
     workload's cache behaviour under fault injection. *)
  let cache_stats = Pagestore.Bufcache.stats (Relstore.Db.cache st.db) in
  {
    seed;
    ops_attempted = st.ops_attempted;
    ops_applied = st.ops_applied;
    crashes = st.crashes;
    injected_crashes = st.injected_crashes;
    commits = st.commits;
    aborts = st.aborts;
    lock_skips = st.lock_skips;
    io_faults = st.io_faults;
    indexes_rebuilt = st.indexes_rebuilt;
    time_travel_checks = st.time_travel_checks;
    full_verifies = st.full_verifies;
    media_events =
      st.latent_rots
      + List.length
          (List.filter
             (fun e ->
               match e.Faultsim.action with
               | Faultsim.Bitrot | Faultsim.Stuck | Faultsim.Device_dead -> true
               | Faultsim.Torn _ | Faultsim.Io_error | Faultsim.Crash -> false)
             (Faultsim.events plan));
    scrub_repaired = st.scrub_repaired;
    cache_hits = cache_stats.Pagestore.Bufcache.s_hits;
    cache_misses = cache_stats.Pagestore.Bufcache.s_misses;
    cache_readaheads = cache_stats.Pagestore.Bufcache.s_readaheads;
    cache_evictions = cache_stats.Pagestore.Bufcache.s_evictions;
    mismatches = List.rev st.mismatches;
  }

(* ---------- directed degraded-mode run ---------- *)

(* Unmirrored placement across two devices, then one device dies.  The
   acceptance contract: files on the survivor stay byte-identical, files
   on the dead device fail with EIO and nothing worse, and Fsck/Recovery
   name the exact degraded relation set while auditing clean. *)
let run_degraded ?(files = 12) ?(deferred_index = false) ~seed () =
  let rng = Rng.create seed in
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Device.Magnetic_disk ()
  in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk1" ~kind:Device.Magnetic_disk ()
  in
  let db = Relstore.Db.create ~switch ~clock ~deferred_index () in
  let fs = Fs.make db () in
  let s = Fs.new_session fs in
  let mismatches = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt in
  let placed =
    List.init (max 2 files) (fun i ->
        let device = if i mod 2 = 0 then "disk0" else "disk1" in
        let path = Printf.sprintf "/f%d" i in
        let fd = Fs.p_creat s ~device path in
        let data = Rng.bytes rng (1 + Rng.int rng 20_000) in
        ignore (Fs.p_write s fd data (Bytes.length data) : int);
        let oid = Fs.fd_oid s fd in
        Fs.p_close s fd;
        (path, device, oid, data))
  in
  Device.kill (Pagestore.Switch.find switch "disk1");
  (* the buffer and OS caches still hold the freshly written pages, which
     would mask the dead device; power-cycle so reads hit the medium *)
  Fs.crash fs;
  let s = Fs.new_session fs in
  let check_reads sess phase =
    List.iter
      (fun (path, device, _oid, data) ->
        if device = "disk0" then
          match Fs.read_whole_file sess path with
          | real -> (
            match bytes_diff data real with
            | None -> ()
            | Some d -> fail "%s: surviving file %s differs: %s" phase path d)
          | exception e ->
            fail "%s: surviving file %s unreadable: %s" phase path (Printexc.to_string e)
        else
          match Fs.read_whole_file sess path with
          | _ -> fail "%s: %s on dead disk1 should have failed with EIO" phase path
          | exception Errors.Fs_error (Errors.EIO, _) -> ()
          | exception e ->
            fail "%s: %s expected EIO, got %s" phase path (Printexc.to_string e))
      placed
  in
  check_reads s "degraded";
  let expect_degraded =
    List.filter_map
      (fun (_path, device, oid, _data) ->
        if device = "disk1" then Some (Invfs.Inv_file.relname oid) else None)
      placed
    |> List.sort String.compare
  in
  let audit = Fsck.audit fs in
  if audit.Fsck.degraded <> expect_degraded then
    fail "fsck degraded set [%s], expected [%s]"
      (String.concat "," audit.Fsck.degraded)
      (String.concat "," expect_degraded);
  if not (Fsck.is_clean audit) then
    fail "degraded audit not clean: %s" (Fsck.report_to_string audit);
  (* A machine crash on the degraded system: recovery still instantaneous,
     still reporting the same degraded set, survivors still intact. *)
  let rep = Recovery.crash_and_recover fs in
  if rep.Recovery.degraded <> expect_degraded then
    fail "recovery degraded set [%s], expected [%s]"
      (String.concat "," rep.Recovery.degraded)
      (String.concat "," expect_degraded);
  if not (Recovery.is_clean rep) then
    fail "degraded recovery not clean: %s" (Recovery.report_to_string rep);
  check_reads (Fs.new_session fs) "post-recovery";
  List.rev !mismatches
