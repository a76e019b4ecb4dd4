(* Differential crash-recovery harness.

   The shared Oracle tracks what the file system's *committed* state
   must be; the real Invfs.Fs runs the same randomized workload in
   lockstep, with a seeded fault plan injecting crashes and transient I/O
   errors underneath it.  After every crash we run whole-system recovery
   and compare the real tree byte-for-byte against the oracle, plus
   time-travel reads against remembered pre-crash instants. *)

module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Recovery = Invfs.Recovery
module Fsck = Invfs.Fsck
module Device = Pagestore.Device

type config = {
  ops : int;
  trace : bool;
  mirrored : bool;
  bitrot_interval : int;
  stuck_interval : int;
  kill_mirror_at : int;
  scrub_interval : int;
}

let default_config =
  {
    ops = 200;
    trace = false;
    mirrored = false;
    bitrot_interval = 0;
    stuck_interval = 0;
    kill_mirror_at = 0;
    scrub_interval = 0;
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

let sessions = 3
let crash_interval = 25
let snapshot_interval = 20
let io_error_interval = 40
let max_file_bytes = 48 * 1024
let max_dirs = 10

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

(* ---------- harness state ---------- *)

type state = {
  w : Fsops.t;
  db : Relstore.Db.t;
  fs : Fs.t;
  plan : Faultsim.t;
  scrub : Pagestore.Scrub.t option;
  mutable crashes : int;
  mutable injected_crashes : int;
  mutable indexes_rebuilt : int;
  mutable scrub_repaired : int;
  mutable latent_rots : int;
}

(* ---------- crash / recovery / verification ---------- *)

let do_crash st ~injected =
  Oracle.trace st.w.ora "== CRASH (injected=%b) after op %d" injected st.w.ops_attempted;
  st.crashes <- st.crashes + 1;
  if injected then st.injected_crashes <- st.injected_crashes + 1;
  (* Recovery must run fault-free: the machine that comes back up is a
     healthy one.  Hooks stay armed; the schedule is simply empty. *)
  Faultsim.clear_schedule st.plan;
  let rep = Recovery.crash_and_recover st.fs in
  st.indexes_rebuilt <- st.indexes_rebuilt + Recovery.indexes_rebuilt rep;
  if not (Recovery.is_clean rep) then
    Oracle.mismatch st.w.ora "recovery not clean: %s" (Recovery.report_to_string rep);
  Fsops.recovered st.w;
  (* Arm the next random crash point. *)
  Faultsim.schedule_random_crash st.plan st.w.rng ~within:(30 + Rng.int st.w.rng 150)

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
          Oracle.mismatch st.w.ora "scrub found unrepairable block %s/%d/%d: %s"
            dev segid blkno reason)
        s.Pagestore.Scrub.unrepairable
    | exception Device.Crash_injected _ -> do_crash st ~injected:true
    | exception Device.Io_fault _ -> st.w.io_faults <- st.w.io_faults + 1)

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
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let plan = Faultsim.create () in
  Faultsim.arm_switch plan (Relstore.Db.switch db);
  Faultsim.arm_cache plan (Relstore.Db.cache db);
  let st =
    {
      w =
        Fsops.create ~rng ~ora:(Oracle.create ~trace:config.trace ~depth:8)
          ~max_dirs ~max_file_bytes fs
          (Array.init sessions (fun _ -> Remote.Conn.Local (Fs.new_session fs)));
      db;
      fs;
      plan;
      scrub = (if config.scrub_interval > 0 then Some (Pagestore.Scrub.create switch) else None);
      crashes = 0;
      injected_crashes = 0;
      indexes_rebuilt = 0;
      scrub_repaired = 0;
      latent_rots = 0;
    }
  in
  let mirror_alive () =
    config.mirrored && not (Device.is_dead (Pagestore.Switch.find switch "disk1"))
  in
  Faultsim.schedule_random_crash plan rng ~within:60;
  for i = 0 to config.ops - 1 do
    if i > 0 && i mod io_error_interval = 0 then begin
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
            Oracle.trace st.w.ora "== LATENT ROT disk0/%d/%d" segid blkno;
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
      Oracle.trace st.w.ora "== KILLING MIRROR disk1 at op %d" i;
      Faultsim.clear_schedule st.plan;
      (match st.scrub with
      | Some _ -> scrub_step st ~pages:max_int
      | None -> (
        try ignore (Pagestore.Scrub.run switch : Pagestore.Scrub.stats)
        with Device.Crash_injected _ -> do_crash st ~injected:true));
      Device.kill (Pagestore.Switch.find switch "disk1");
      Faultsim.schedule_random_crash st.plan rng ~within:(30 + Rng.int rng 150)
    end;
    if i > 0 && i mod crash_interval = 0 then
      (* boundary crash: deliberately while sessions may hold open
         transactions (crash-with-multiple-open-sessions coverage) *)
      do_crash st ~injected:false
    else
      Fsops.run_one st.w ~gen:(Fsops.gen_op st.w) ~crash:(fun () -> do_crash st ~injected:true);
    if config.scrub_interval > 0 && i > 0 && i mod config.scrub_interval = 0 then
      scrub_step st ~pages:64;
    if i > 0 && i mod snapshot_interval = 0 then Oracle.remember_now st.w.ora db
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
    ops_attempted = st.w.ops_attempted;
    ops_applied = st.w.ops_applied;
    crashes = st.crashes;
    injected_crashes = st.injected_crashes;
    commits = st.w.commits;
    aborts = st.w.aborts;
    lock_skips = st.w.lock_skips;
    io_faults = st.w.io_faults;
    indexes_rebuilt = st.indexes_rebuilt;
    time_travel_checks = st.w.time_travel_checks;
    full_verifies = Oracle.verifies st.w.ora;
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
    mismatches = Oracle.mismatches st.w.ora;
  }

(* ---------- directed degraded-mode run ---------- *)

(* Unmirrored placement across two devices, then one device dies.  The
   acceptance contract: files on the survivor stay byte-identical, files
   on the dead device fail with EIO and nothing worse, and Fsck/Recovery
   name the exact degraded relation set while auditing clean. *)
let run_degraded ~seed () =
  let rng = Rng.create seed in
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Device.Magnetic_disk ()
  in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk1" ~kind:Device.Magnetic_disk ()
  in
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let s = Fs.new_session fs in
  let mismatches = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt in
  let placed =
    List.init 12 (fun i ->
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
            match Oracle.bytes_diff data real with
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
  if rep.Recovery.restart.Fs.degraded <> expect_degraded then
    fail "recovery degraded set [%s], expected [%s]"
      (String.concat "," rep.Recovery.restart.Fs.degraded)
      (String.concat "," expect_degraded);
  if not (Recovery.is_clean rep) then
    fail "degraded recovery not clean: %s" (Recovery.report_to_string rep);
  check_reads (Fs.new_session fs) "post-recovery";
  List.rev !mismatches
