(* Differential vacuum-under-traffic harness.

   The same oracle discipline as Crashtest — a pure in-memory model of
   the committed state, a seeded random workload against the real
   Invfs.Fs — but the adversary here is the *incremental concurrent
   vacuum*: after every workload op the harness runs one budgeted
   Fs.vacuum_step in archive mode, so old versions migrate to the WORM
   jukebox tier continuously while the foreground traffic keeps
   mutating the very relations being vacuumed.

   What must hold, and is checked after every crash and at the end:
   - the recovered tree is byte-identical to the oracle (vacuum never
     reclaims a visible version);
   - every remembered snapshot instant still reads exactly what the
     oracle materialized at that instant — time travel works *through*
     the archive tier, because archived versions fault back in on
     As_of reads;
   - the Fsck audit is clean, including the archive-tier phase: every
     record on write-once storage has a committed inserter and a
     committed deleter (a live version on WORM is a vacuum bug);
   - O(1) snapshots (Fs.snapshot) and copy-on-write clones (Fs.clone)
     behave as plain copies: the oracle models a clone as a byte copy,
     and divergence in either direction after the clone must not leak
     through.

   Crashes land *mid-step* too: the fault plan schedules crashes at
   random device writes, which can fire inside a vacuum step's archive
   copy or its kill/compact transaction.  The two-transaction step
   protocol makes that safe — archive copies are forced durable before
   any kill, a torn step leaves only duplicates on the archive tier,
   and the As_of read path de-duplicates — so the differential check
   is exactly the proof the design claims. *)

module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Recovery = Invfs.Recovery
module Fsck = Invfs.Fsck
module Device = Pagestore.Device

type config = {
  ops : int;
  sessions : int;
  vacuum_pages : int; (* budget per incremental step *)
  crash_interval : int;
  snapshot_interval : int;
  io_error_interval : int;
  max_file_bytes : int;
  max_dirs : int;
  trace : bool;
}

let default_config =
  {
    ops = 160;
    sessions = 3;
    vacuum_pages = 3;
    crash_interval = 30;
    snapshot_interval = 15;
    io_error_interval = 45;
    max_file_bytes = 32 * 1024;
    max_dirs = 8;
    trace = false;
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
  clones : int;
  snapshots : int;
  vacuum_steps : int;
  vacuum_skips : int; (* steps that yielded to a writer *)
  vacuum_scanned : int;
  vacuum_archived : int;
  vacuum_discarded : int;
  archived_checked : int; (* WORM-tier records audited by the last fsck *)
  time_travel_checks : int;
  full_verifies : int;
  mismatches : string list;
}

let outcome_to_string o =
  Printf.sprintf
    "seed=%Ld ops=%d/%d crashes=%d (%d injected) commits=%d aborts=%d \
     lock_skips=%d io_faults=%d clones=%d snaps=%d vac_steps=%d \
     vac_skips=%d scanned=%d archived=%d discarded=%d arch_audited=%d \
     tt_checks=%d verifies=%d mismatches=%d"
    o.seed o.ops_applied o.ops_attempted o.crashes o.injected_crashes o.commits
    o.aborts o.lock_skips o.io_faults o.clones o.snapshots o.vacuum_steps
    o.vacuum_skips o.vacuum_scanned o.vacuum_archived o.vacuum_discarded
    o.archived_checked o.time_travel_checks o.full_verifies
    (List.length o.mismatches)

(* ---------- harness state ---------- *)

type state = {
  cfg : config;
  w : Fsops.t;
  db : Relstore.Db.t;
  fs : Fs.t;
  plan : Faultsim.t;
  mutable crashes : int;
  mutable injected_crashes : int;
  mutable clones : int;
  mutable snapshots : int;
  mutable vacuum_steps : int;
  mutable vacuum_skips : int;
  mutable vacuum_scanned : int;
  mutable vacuum_archived : int;
  mutable vacuum_discarded : int;
  mutable archived_checked : int;
}

(* ---------- ops ---------- *)

let op_write st (ss : Fsops.sess) =
  let w = st.w in
  match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> Fsops.create_file w ss
  | Some (path, oid) ->
    let len = Bytes.length (Oracle.view_content w.ora ss.ov oid) in
    let data = Rng.bytes w.rng (1 + Rng.int w.rng 6800) in
    let dlen = Bytes.length data in
    let off = Fsops.draw_offset w w.rng ~len dlen in
    Oracle.trace w.ora "s%d write %s (oid %Ld) off=%d len=%d cur=%d" ss.id path oid off
      dlen len;
    Fsops.write_at w ss path ~oid ~off [ data ]

(* The oracle models a clone as a plain byte copy of the committed
   contents at clone time — the real thing is O(1) copy-on-write over a
   version horizon, and the differential check is exactly that the
   difference is unobservable (including after writes to either side,
   truncation below the base, crashes, and vacuum of the base's table). *)
let op_clone st (ss : Fsops.sess) =
  let w = st.w in
  if Oracle.in_txn ss.ov then op_write st ss (* Fs.clone refuses inside a txn *)
  else
    match Oracle.SM.bindings (Oracle.names w.ora) with
    | [] -> Fsops.create_file w ss
    | committed ->
      let src, src_oid = Oracle.pick w.rng committed in
      let dst = Oracle.fresh_path w.ora ss.ov w.rng "c" in
      Oracle.trace w.ora "s%d clone %s -> %s" ss.id src dst;
      Remote.Conn.clone ss.conn ~src ~dst;
      let oid = Oracle.fresh_oid w.ora in
      st.clones <- st.clones + 1;
      let data = Bytes.copy (Oracle.content w.ora src_oid) in
      { Oracle.no_updates with u_names = [ (dst, Some oid) ]; u_files = [ (oid, data) ] }

let gen_op st (ss : Fsops.sess) =
  let w = st.w in
  let r = Rng.int w.rng 100 in
  if Oracle.in_txn ss.ov then
    if r < 32 then op_write st
    else if r < 42 then Fsops.create_file w
    else if r < 50 then Fsops.truncate w ~grow:6000
    else if r < 56 then Fsops.unlink w
    else if r < 62 then Fsops.rename w
    else if r < 74 then Fsops.read_check w
    else if r < 90 then Fsops.commit w
    else Fsops.abort w
  else if r < 24 then op_write st
  else if r < 34 then Fsops.create_file w
  else if r < 40 then Fsops.mkdir w
  else if r < 48 then Fsops.truncate w ~grow:6000
  else if r < 56 then Fsops.unlink w
  else if r < 63 then Fsops.rename w
  else if r < 73 then op_clone st
  else if r < 90 then Fsops.read_check w
  else Fsops.begin_txn w

(* ---------- crash / verification ---------- *)

let run_audit st ~phase =
  match Fsck.audit st.fs with
  | audit ->
    st.archived_checked <- audit.Fsck.archived_checked;
    if not (Fsck.is_clean audit) then
      Oracle.mismatch st.w.ora "%s: audit not clean: %s" phase
        (Fsck.report_to_string audit)
  | exception Device.Crash_injected _ ->
    (* the audit is plain read traffic; a pending fault can land on it —
       the caller's fault schedule is already cleared on the crash path,
       so this only happens for audits outside recovery, and the run
       simply proceeds to the next boundary *)
    ()

let do_crash st ~injected =
  Oracle.trace st.w.ora "== CRASH (injected=%b) after op %d" injected st.w.ops_attempted;
  st.crashes <- st.crashes + 1;
  if injected then st.injected_crashes <- st.injected_crashes + 1;
  Faultsim.clear_schedule st.plan;
  let rep = Recovery.crash_and_recover st.fs in
  if not (Recovery.is_clean rep) then
    Oracle.mismatch st.w.ora "recovery not clean: %s" (Recovery.report_to_string rep);
  (* time travel reads through the archive tier: archived versions must
     fault back in on As_of reads *)
  Fsops.recovered st.w;
  run_audit st ~phase:"post-crash";
  Faultsim.schedule_random_crash st.plan st.w.rng ~within:(30 + Rng.int st.w.rng 150)

(* One budgeted increment of the concurrent vacuum, interleaved at the
   op boundary.  A crash landing inside the step is the interesting
   case; a lock skip (a foreground writer holds the relation) is the
   designed yield, counted but harmless. *)
let vacuum_tick st =
  match Fs.vacuum_step st.fs ~pages:st.cfg.vacuum_pages ~mode:`Archive () with
  | None -> ()
  | Some (rel, stp) ->
    st.vacuum_steps <- st.vacuum_steps + 1;
    if stp.Relstore.Vacuum.s_skipped then st.vacuum_skips <- st.vacuum_skips + 1;
    st.vacuum_scanned <- st.vacuum_scanned + stp.Relstore.Vacuum.s_scanned;
    st.vacuum_archived <- st.vacuum_archived + stp.Relstore.Vacuum.s_archived;
    st.vacuum_discarded <- st.vacuum_discarded + stp.Relstore.Vacuum.s_discarded;
    Oracle.trace st.w.ora "vac %s: scanned=%d archived=%d discarded=%d skipped=%b" rel
      stp.Relstore.Vacuum.s_scanned stp.Relstore.Vacuum.s_archived
      stp.Relstore.Vacuum.s_discarded stp.Relstore.Vacuum.s_skipped
  | exception Device.Crash_injected _ -> do_crash st ~injected:true
  | exception Device.Io_fault _ -> st.w.io_faults <- st.w.io_faults + 1
  | exception Errors.Fs_error ((Errors.EAGAIN | Errors.EDEADLK), _) ->
    st.vacuum_skips <- st.vacuum_skips + 1
  | exception Errors.Fs_error (code, msg) ->
    Oracle.mismatch st.w.ora "vacuum step failed with %s: %s"
      (Errors.code_to_string code) msg

let run ?(config = default_config) ~seed () =
  let rng = Rng.create seed in
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Device.Magnetic_disk ()
  in
  (* The archive tier is a real device of the WORM kind, so tiering is
     physical: Db.archive places every archive relation here. *)
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"jukebox" ~kind:Device.Worm_jukebox ()
  in
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let plan = Faultsim.create () in
  Faultsim.arm_switch plan (Relstore.Db.switch db);
  Faultsim.arm_cache plan (Relstore.Db.cache db);
  let st =
    {
      cfg = config;
      w =
        Fsops.create ~rng ~ora:(Oracle.create ~trace:config.trace ~depth:8)
          ~max_dirs:config.max_dirs ~max_file_bytes:config.max_file_bytes fs
          (Array.init config.sessions (fun _ -> Remote.Conn.Local (Fs.new_session fs)));
      db;
      fs;
      plan;
      crashes = 0;
      injected_crashes = 0;
      clones = 0;
      snapshots = 0;
      vacuum_steps = 0;
      vacuum_skips = 0;
      vacuum_scanned = 0;
      vacuum_archived = 0;
      vacuum_discarded = 0;
      archived_checked = 0;
    }
  in
  Faultsim.schedule_random_crash plan rng ~within:60;
  for i = 0 to config.ops - 1 do
    if i > 0 && i mod config.io_error_interval = 0 then begin
      let io = if Rng.bool rng then Faultsim.Write else Faultsim.Read in
      Faultsim.schedule plan ~io ~after:(1 + Rng.int rng 30) Faultsim.Io_error
    end;
    if i > 0 && i mod config.crash_interval = 0 then do_crash st ~injected:false
    else
      Fsops.run_one st.w ~gen:(gen_op st) ~crash:(fun () -> do_crash st ~injected:true);
    (* the tentpole interleave: a vacuum increment at every op boundary *)
    vacuum_tick st;
    (* A remembered instant comes from the real O(1) snapshot call: sync
       the pending commit group, tick the clock so no later commit shares
       the timestamp, return the horizon. *)
    if i > 0 && i mod config.snapshot_interval = 0 then begin
      Oracle.remember st.w.ora (Fs.snapshot fs);
      st.snapshots <- st.snapshots + 1
    end
  done;
  (* Finish with a crash, full verification, and the archive audit. *)
  do_crash st ~injected:false;
  Faultsim.disarm plan;
  {
    seed;
    ops_attempted = st.w.ops_attempted;
    ops_applied = st.w.ops_applied;
    crashes = st.crashes;
    injected_crashes = st.injected_crashes;
    commits = st.w.commits;
    aborts = st.w.aborts;
    lock_skips = st.w.lock_skips;
    io_faults = st.w.io_faults;
    clones = st.clones;
    snapshots = st.snapshots;
    vacuum_steps = st.vacuum_steps;
    vacuum_skips = st.vacuum_skips;
    vacuum_scanned = st.vacuum_scanned;
    vacuum_archived = st.vacuum_archived;
    vacuum_discarded = st.vacuum_discarded;
    archived_checked = st.archived_checked;
    time_travel_checks = st.w.time_travel_checks;
    full_verifies = Oracle.verifies st.w.ora;
    mismatches = Oracle.mismatches st.w.ora;
  }
