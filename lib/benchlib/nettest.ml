(* Differential network-fault harness.

   Crashtest's sibling for the client/server protocol: a pure in-memory
   oracle tracks what the file system's committed state must be while a
   fleet of Remote.Client sessions drives the same randomized workload
   through real Wire frames over Netsim.Link connections — with a seeded
   Faultsim plan dropping, duplicating, reordering, corrupting and
   partitioning messages, poisoning frames (server crash at receipt) and
   injecting device-level crashes mid-request.  After every server crash
   the system recovers and the real tree is compared byte-for-byte
   against the oracle; at the end the run must converge exactly.

   The one genuinely ambiguous RPC outcome — a committed mutation whose
   session died before the reply arrived — is resolved the honest way: a
   lock-free time-travel probe of the committed state (As_of reads take
   no locks and see only committed data) decides whether the op landed,
   and the oracle follows the probe.  Everything else is exact lockstep:
   retries, duplicates and replays must never make an op apply twice,
   and a client whose session dies mid-transaction must observe a clean
   abort with none of its writes visible. *)

module SM = Oracle.SM
module OM = Oracle.OM
module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Recovery = Invfs.Recovery
module Device = Pagestore.Device
module Client = Remote.Client
module Server = Remote.Server
module Link = Netsim.Link

type config = {
  ops : int;
  clients : int;
  fault_interval : int; (* schedule a random net fault every N ops *)
  crash_interval : int; (* boundary server crash every N ops *)
  device_crash : bool; (* also schedule device-level crashes mid-exec *)
  snapshot_interval : int;
  max_file_bytes : int;
  max_dirs : int;
  lease_s : float;
  trace : bool;
}

let default_config =
  {
    ops = 160;
    clients = 3;
    fault_interval = 4;
    crash_interval = 45;
    device_crash = true;
    snapshot_interval = 25;
    max_file_bytes = 32 * 1024;
    max_dirs = 8;
    lease_s = 120.;
    trace = false;
  }

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  commits : int;
  aborts : int;
  lock_skips : int;
  io_faults : int;
  server_crashes : int;
  replays : int;
  leases_expired : int;
  sessions_lost : int;
  reconnects : int;
  indeterminate : int; (* ambiguous outcomes resolved by probe *)
  landed : int; (* ...of which the probe said "it committed" *)
  messages : int;
  bytes_sent : int;
  retries : int;
  timeouts : int;
  net_faults : int; (* fault-plan actions that actually fired *)
  time_travel_checks : int;
  full_verifies : int;
  mismatches : string list;
}

let outcome_to_string o =
  Printf.sprintf
    "seed=%Ld ops=%d/%d commits=%d aborts=%d lock_skips=%d io_faults=%d \
     crashes=%d replays=%d leases=%d lost=%d reconnects=%d indet=%d (landed %d) \
     msgs=%d bytes=%d retries=%d timeouts=%d faults=%d tt_checks=%d verifies=%d \
     mismatches=%d"
    o.seed o.ops_applied o.ops_attempted o.commits o.aborts o.lock_skips
    o.io_faults o.server_crashes o.replays o.leases_expired o.sessions_lost
    o.reconnects o.indeterminate o.landed o.messages o.bytes_sent o.retries
    o.timeouts o.net_faults o.time_travel_checks o.full_verifies
    (List.length o.mismatches)

(* ---------- time-travel probes ----------

   A probe answers "did this op's effects commit?" by reading the
   committed state As_of now through a fresh local session.  Historical
   reads take no locks (other clients may be mid-transaction) and see
   only committed data, which is exactly the question. *)

type probe = { describe : string; check : Fs.session -> int64 -> bool }

let probe_content path expect =
  {
    describe = Printf.sprintf "content of %s" path;
    check =
      (fun s ts ->
        match Fs.read_whole_file s ~timestamp:ts path with
        | real -> Bytes.equal real expect
        | exception Errors.Fs_error _ -> false);
  }

let probe_exists path =
  {
    describe = Printf.sprintf "existence of %s" path;
    check = (fun s ts -> Fs.exists s ~timestamp:ts path);
  }

let probe_absent path =
  {
    describe = Printf.sprintf "absence of %s" path;
    check = (fun s ts -> not (Fs.exists s ~timestamp:ts path));
  }

let probe_always =
  { describe = "(no observable difference)"; check = (fun _ _ -> true) }

(* The first update whose committed-vs-new state differs decides the
   probe; if nothing distinguishes, landing and aborting produce the same
   state and "landed" is vacuously true.  Name changes probe first (a
   created or vacated path is the crispest signal); content updates need
   a path that would name the oid after the commit. *)
let probe_of_updates ora (u : Oracle.updates) =
  let committed = Oracle.names ora in
  let tombstoned p = List.exists (fun (q, v) -> q = p && v = None) u.u_names in
  let path_of_oid oid =
    match List.find_opt (fun (_, v) -> v = Some oid) u.u_names with
    | Some (p, _) -> Some p
    | None ->
      SM.fold
        (fun p o acc ->
          if acc = None && o = oid && not (tombstoned p) then Some p else acc)
        committed None
  in
  let rec files = function
    | [] -> (
      match u.u_dirs with [] -> probe_always | d :: _ -> probe_exists d)
    | (oid, b) :: rest -> (
      match path_of_oid oid with
      | None -> files rest
      | Some path -> (
        match OM.find_opt oid (Oracle.files ora) with
        | Some cur when Bytes.equal b cur -> files rest
        | _ -> probe_content path b))
  in
  let rec names = function
    | [] -> files u.u_files
    | (path, Some _) :: rest ->
      if SM.mem path committed then names rest else probe_exists path
    | (path, None) :: rest ->
      if SM.mem path committed then probe_absent path else names rest
  in
  names u.u_names

(* ---------- per-client session state ---------- *)

type csess = {
  id : int;
  c : Client.t;
  ov : Oracle.overlay;
  (* what the op in flight intends to change, registered before its
     mutating RPC: the handler for an indeterminate session loss uses it
     to probe whether the change committed *)
  mutable pending : (Oracle.updates * probe) option;
}

(* ---------- harness state ---------- *)

type state = {
  cfg : config;
  rng : Rng.t;
  db : Relstore.Db.t;
  fs : Fs.t;
  net : Netsim.t;
  server : Server.t;
  plan : Faultsim.t;
  ora : Oracle.t;
  clients : csess array;
  mutable ops_attempted : int;
  mutable ops_applied : int;
  mutable commits : int;
  mutable aborts : int;
  mutable lock_skips : int;
  mutable io_faults : int;
  mutable indeterminate : int;
  mutable landed : int;
  mutable time_travel_checks : int;
  mutable current : csess option; (* the client whose op is executing *)
  mutable in_flight : bool; (* an op's RPC is executing right now *)
  mutable verify_pending : bool; (* a mid-flight crash deferred its verify *)
}

(* ---------- ops ----------

   Each op registers [cs.pending] — its intended updates plus the probe
   that would decide an indeterminate outcome — before issuing any
   mutating RPC, and returns its updates on success.  Outside a
   transaction an op performs exactly one mutating RPC, so the pending
   record covers precisely the ambiguous call. *)

let op_create st cs =
  let path = Oracle.fresh_path st.ora cs.ov st.rng "f" in
  Oracle.trace st.ora "s%d creat %s" cs.id path;
  let oid = Oracle.fresh_oid st.ora in
  let u =
    {
      Oracle.no_updates with
      u_names = [ (path, Some oid) ];
      u_files = [ (oid, Bytes.create 0) ];
    }
  in
  cs.pending <- Some (u, probe_exists path);
  let fd = Client.c_creat cs.c path in
  Client.c_close cs.c fd;
  u

let op_mkdir st cs =
  if List.length (Oracle.view_dirs st.ora cs.ov) >= st.cfg.max_dirs then op_create st cs
  else begin
    let path = Oracle.fresh_path st.ora cs.ov st.rng "d" in
    Oracle.trace st.ora "s%d mkdir %s" cs.id path;
    let u = { Oracle.no_updates with u_dirs = [ path ] } in
    cs.pending <- Some (u, probe_exists path);
    Client.c_mkdir cs.c path;
    u
  end

let op_write st cs =
  match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> op_create st cs
  | Some (path, oid) ->
    let cur = Oracle.view_content st.ora cs.ov oid in
    let len = Bytes.length cur in
    let nseg = if Oracle.in_txn cs.ov then 1 + Rng.int st.rng 3 else 1 in
    let segs = List.init nseg (fun _ -> Rng.bytes st.rng (1 + Rng.int st.rng 6800)) in
    let total = List.fold_left (fun a s -> a + Bytes.length s) 0 segs in
    let off =
      if len + total > st.cfg.max_file_bytes then
        if len - total <= 0 then 0 else Rng.int st.rng (len - total + 1)
      else Rng.int st.rng (len + 1)
    in
    Oracle.trace st.ora "s%d write %s off=%d total=%d nseg=%d cur_len=%d"
      cs.id path off total
      nseg len;
    let data = Bytes.concat Bytes.empty segs in
    let after = Oracle.splice cur ~off data in
    let u = { Oracle.no_updates with u_files = [ (oid, after) ] } in
    let fd = Client.c_open cs.c path Fs.Rdwr in
    ignore (Client.c_lseek cs.c fd (Int64.of_int off) Fs.Seek_set : int64);
    cs.pending <- Some (u, probe_content path after);
    List.iter
      (fun seg -> ignore (Client.c_write cs.c fd seg (Bytes.length seg) : int))
      segs;
    Client.c_close cs.c fd;
    u

let op_truncate st cs =
  match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> op_create st cs
  | Some (path, oid) ->
    let cur = Oracle.view_content st.ora cs.ov oid in
    let len = Bytes.length cur in
    let new_len = Rng.int st.rng (min (len + 8000) st.cfg.max_file_bytes + 1) in
    Oracle.trace st.ora "s%d trunc %s %d -> %d" cs.id path len new_len;
    let data = Oracle.resize cur new_len in
    let u = { Oracle.no_updates with u_files = [ (oid, data) ] } in
    let fd = Client.c_open cs.c path Fs.Rdwr in
    cs.pending <- Some (u, probe_content path data);
    Client.c_ftruncate cs.c fd (Int64.of_int new_len);
    Client.c_close cs.c fd;
    u

let op_unlink st cs =
  match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> op_create st cs
  | Some (path, _oid) ->
    Oracle.trace st.ora "s%d unlink %s" cs.id path;
    let u = { Oracle.no_updates with u_names = [ (path, None) ] } in
    cs.pending <- Some (u, probe_absent path);
    Client.c_unlink cs.c path;
    u

let op_rename st cs =
  match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> op_create st cs
  | Some (path, oid) ->
    let dst = Oracle.fresh_path st.ora cs.ov st.rng "r" in
    Oracle.trace st.ora "s%d rename %s -> %s" cs.id path dst;
    let u = { Oracle.no_updates with u_names = [ (path, None); (dst, Some oid) ] } in
    cs.pending <- Some (u, probe_exists dst);
    Client.c_rename cs.c path dst;
    u

let op_read_check st cs =
  (match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> ()
  | Some (path, oid) -> (
    Oracle.trace st.ora "s%d read %s" cs.id path;
    let expect = Oracle.view_content st.ora cs.ov oid in
    let real = Client.read_whole_file cs.c path in
    match Oracle.bytes_diff expect real with
    | None -> ()
    | Some d -> Oracle.mismatch st.ora "read %s diverged mid-run: %s" path d));
  Oracle.no_updates

let op_begin st cs =
  Oracle.trace st.ora "s%d begin" cs.id;
  Client.c_begin cs.c;
  Oracle.begin_txn cs.ov;
  Oracle.no_updates

let op_commit st cs =
  Oracle.trace st.ora "s%d commit" cs.id;
  let u = Oracle.overlay_updates cs.ov in
  cs.pending <- Some (u, probe_of_updates st.ora u);
  Client.c_commit cs.c;
  Oracle.commit st.ora u;
  Oracle.clear cs.ov;
  st.commits <- st.commits + 1;
  Oracle.no_updates

let op_abort st cs =
  Oracle.trace st.ora "s%d abort" cs.id;
  Client.c_abort cs.c;
  Oracle.clear cs.ov;
  st.aborts <- st.aborts + 1;
  Oracle.no_updates

let gen_op st cs =
  let r = Rng.int st.rng 100 in
  if Oracle.in_txn cs.ov then
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

(* ---------- fault plan ---------- *)

let random_fault st =
  match Rng.int st.rng 12 with
  | 0 | 1 | 2 -> Faultsim.Net_drop
  | 3 | 4 -> Faultsim.Net_duplicate
  | 5 | 6 -> Faultsim.Net_reorder
  | 7 | 8 -> Faultsim.Net_corrupt
  | 9 | 10 -> Faultsim.Net_partition (1 + Rng.int st.rng 3)
  | _ -> Faultsim.Net_server_crash

(* ---------- crash / verification ---------- *)

(* The whole tree through a fresh local session, then every remembered
   instant. *)
let check_recovered st ~phase =
  Oracle.verify st.ora (Fs.new_session st.fs) ~phase;
  st.time_travel_checks <-
    st.time_travel_checks + Oracle.check_time_travel st.ora (Fs.new_session st.fs)

(* On any server crash — boundary, poisoned frame, or device-injected
   mid-request — the machine must recover fault-free, and the recovered
   tree must equal the oracle's committed state.  Every open transaction
   died with its session, so clients' overlays are dropped here; the
   clients themselves discover the death lazily, as ECONNRESET or a
   transparent reconnect, which is the point of the exercise.

   One caveat: a crash can fire in the middle of an op's RPC (poisoned
   frame, device crash mid-exec) whose mutation may have committed but
   not yet reached the oracle — the reply was still in flight.  Checking
   then would compare against a stale oracle, so the verify is deferred
   until the op's own handler has resolved the outcome (by probe if it
   was ambiguous). *)
let on_server_crash st _server =
  Oracle.trace st.ora "== SERVER CRASH after op %d (in_flight=%b)"
    st.ops_attempted st.in_flight;
  Faultsim.clear_schedule st.plan;
  let rep = Recovery.crash_and_recover st.fs in
  if not (Recovery.is_clean rep) then
    Oracle.mismatch st.ora "recovery not clean: %s" (Recovery.report_to_string rep);
  (* every open transaction died with the server: drop the matching
     overlays now so the oracle's views stay in lockstep with what those
     clients will actually see once they discover the death.  The client
     whose RPC is in flight is left alone — its own exception handler
     resolves its outcome (by probe if ambiguous) and clears it.  So is
     a transaction that is still only a pending begin: it never reached
     the server, and its first request begins it on a fresh session. *)
  Array.iter
    (fun cs ->
      let is_current = match st.current with Some c -> c == cs | None -> false in
      if not (is_current || Client.begin_pending cs.c) then begin
        if Oracle.in_txn cs.ov then st.aborts <- st.aborts + 1;
        Oracle.clear cs.ov;
        cs.pending <- None
      end)
    st.clients;
  (* an op riding a pending begin runs inside the transaction and cannot
     have committed anything, so the verify need not wait for it — and
     must not: the client begins again on a fresh session, and that
     transaction's locks would block the walk *)
  let may_commit =
    match st.current with Some cs -> not (Client.begin_pending cs.c) | None -> true
  in
  if st.in_flight && may_commit then st.verify_pending <- true
  else check_recovered st ~phase:"post-crash"

let resolve_indeterminate st cs =
  st.indeterminate <- st.indeterminate + 1;
  match cs.pending with
  | None ->
    Oracle.mismatch st.ora "s%d: indeterminate outcome but no pending op to probe" cs.id
  | Some (u, probe) ->
    let s = Fs.new_session st.fs in
    let ts = Relstore.Db.now st.db in
    st.time_travel_checks <- st.time_travel_checks + 1;
    if probe.check s ts then begin
      Oracle.trace st.ora "s%d .. probe of %s: LANDED" cs.id probe.describe;
      st.landed <- st.landed + 1;
      Oracle.commit st.ora u;
      if Oracle.in_txn cs.ov then st.commits <- st.commits + 1
    end
    else begin
      Oracle.trace st.ora "s%d .. probe of %s: did not land" cs.id probe.describe;
      if Oracle.in_txn cs.ov then st.aborts <- st.aborts + 1
    end

let safe_abort st cs =
  (* c_abort on a dead session reports success (aborting is exactly what
     the server's crash or lease reaping already did) *)
  if Oracle.in_txn cs.ov then begin
    (try Client.c_abort cs.c with _ -> ());
    st.aborts <- st.aborts + 1
  end;
  Oracle.clear cs.ov

let run_one_op st =
  st.ops_attempted <- st.ops_attempted + 1;
  Oracle.trace st.ora "-- op %d" st.ops_attempted;
  let cs = st.clients.(Rng.int st.rng (Array.length st.clients)) in
  let op = gen_op st cs in
  cs.pending <- None;
  st.current <- Some cs;
  st.in_flight <- true;
  (match op st cs with
  | u ->
    cs.pending <- None;
    Oracle.record st.ora cs.ov u;
    st.ops_applied <- st.ops_applied + 1
  | exception Errors.Fs_error (Errors.ECONNRESET, msg) ->
    Oracle.trace st.ora "s%d .. ECONNRESET: %s" cs.id msg;
    (* the session died.  If the outcome is ambiguous (a Commit or an
       auto-commit mutation may or may not have applied), probe the
       committed state; a clean "transaction aborted" just drops the
       overlay — the server rolled everything back. *)
    if Client.outcome_indeterminate msg then resolve_indeterminate st cs
    else if Oracle.in_txn cs.ov then st.aborts <- st.aborts + 1;
    Oracle.clear cs.ov;
    cs.pending <- None
  | exception Errors.Fs_error ((Errors.EAGAIN | Errors.EDEADLK | Errors.ETIMEDOUT), _)
    ->
    Oracle.trace st.ora "s%d .. lock skip" cs.id;
    st.lock_skips <- st.lock_skips + 1;
    safe_abort st cs;
    cs.pending <- None
  | exception Pagestore.Device.Io_fault _ ->
    Oracle.trace st.ora "s%d .. io fault" cs.id;
    st.io_faults <- st.io_faults + 1;
    safe_abort st cs;
    cs.pending <- None
  | exception Not_found ->
    safe_abort st cs;
    cs.pending <- None
  | exception Errors.Fs_error (Errors.ENOENT, "raced with a concurrent unlink") ->
    (* the server's Not_found mapping: a commit or namespace op lost a
       race with another client's unlink — same benign abort Crashtest
       tolerates locally *)
    Oracle.trace st.ora "s%d .. unlink race" cs.id;
    safe_abort st cs;
    cs.pending <- None
  | exception Errors.Fs_error (code, msg) ->
    Oracle.mismatch st.ora "unexpected fs error %s: %s" (Errors.code_to_string code) msg;
    safe_abort st cs;
    cs.pending <- None);
  st.current <- None;
  st.in_flight <- false;
  if st.verify_pending then begin
    st.verify_pending <- false;
    check_recovered st ~phase:"post-crash (deferred)"
  end

let run ?(config = default_config) ~seed () =
  let rng = Rng.create seed in
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Device.Magnetic_disk ()
  in
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let server = Server.create ~fs ~lease_s:config.lease_s () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let plan = Faultsim.create () in
  if config.device_crash then Faultsim.arm_switch plan switch;
  let mk_client id =
    let link = Link.create net in
    Faultsim.arm_link plan link;
    {
      id;
      c = Client.connect ~server ~link ~rng:(Rng.split rng) ();
      ov = Oracle.overlay ();
      pending = None;
    }
  in
  let st =
    {
      cfg = config;
      rng;
      db;
      fs;
      net;
      server;
      plan;
      ora = Oracle.create ~trace:config.trace ~depth:4;
      clients = Array.init config.clients mk_client;
      ops_attempted = 0;
      ops_applied = 0;
      commits = 0;
      aborts = 0;
      lock_skips = 0;
      io_faults = 0;
      indeterminate = 0;
      landed = 0;
      time_travel_checks = 0;
      current = None;
      in_flight = false;
      verify_pending = false;
    }
  in
  Server.set_on_crash server (fun s -> on_server_crash st s);
  for i = 0 to config.ops - 1 do
    if i > 0 && i mod config.fault_interval = 0 && Faultsim.net_pending st.plan < 4
    then begin
      let f = random_fault st in
      Oracle.trace st.ora "== scheduling %s" (Faultsim.net_action_to_string f);
      Faultsim.schedule_net_random st.plan st.rng ~within:(1 + Rng.int st.rng 8) f
    end;
    if
      config.device_crash && i > 0
      && i mod (3 * config.fault_interval) = 0
      && Faultsim.pending st.plan = 0 && Rng.int st.rng 4 = 0
    then
      (* a device-level crash fires inside Fs execution: the server dies
         mid-request, after the op may have partially executed *)
      Faultsim.schedule_random_crash st.plan st.rng ~within:20;
    if i > 0 && i mod config.crash_interval = 0 then Server.crash_now st.server
    else run_one_op st;
    if i > 0 && i mod config.snapshot_interval = 0 then Oracle.remember_now st.ora st.db
  done;
  (* Converge: stop injecting, let every client settle (aborting any open
     transaction), then a final boundary crash + full verification. *)
  Faultsim.clear_schedule st.plan;
  Array.iter (fun cs -> safe_abort st cs) st.clients;
  Server.crash_now st.server;
  Faultsim.disarm st.plan;
  let net_faults = List.length (Faultsim.net_events st.plan) in
  {
    seed;
    ops_attempted = st.ops_attempted;
    ops_applied = st.ops_applied;
    commits = st.commits;
    aborts = st.aborts;
    lock_skips = st.lock_skips;
    io_faults = st.io_faults;
    server_crashes = Server.crashes server;
    replays = Server.replays server;
    leases_expired = Server.leases_expired server;
    sessions_lost =
      Array.fold_left (fun a cs -> a + Client.sessions_lost cs.c) 0 st.clients;
    reconnects = Array.fold_left (fun a cs -> a + Client.reconnects cs.c) 0 st.clients;
    indeterminate = st.indeterminate;
    landed = st.landed;
    messages = Netsim.messages net;
    bytes_sent = Netsim.bytes_sent net;
    retries = Netsim.retries net;
    timeouts = Netsim.timeouts net;
    net_faults;
    time_travel_checks = st.time_travel_checks;
    full_verifies = Oracle.verifies st.ora;
    mismatches = Oracle.mismatches st.ora;
  }
