(* Differential network-fault harness.

   Crashtest's sibling for the client/server protocol: a pure in-memory
   oracle tracks what the file system's committed state must be while a
   fleet of Remote.Client sessions drives Crashtest's randomized workload
   (Fsops' ops, op mix and op runner, on remote sessions) through real
   Wire frames over Netsim.Link connections — with a seeded
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

module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Recovery = Invfs.Recovery
module Device = Pagestore.Device
module Client = Remote.Client
module Server = Remote.Server
module Link = Netsim.Link

type config = { ops : int; trace : bool }

let default_config = { ops = 160; trace = false }

let clients = 3
let fault_interval = 4
let crash_interval = 45
let snapshot_interval = 25
let max_file_bytes = 32 * 1024
let max_dirs = 8

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

(* ---------- harness state ---------- *)

type state = {
  w : Fsops.t;
  plan : Faultsim.t;
  mutable verify_pending : bool; (* a mid-flight crash deferred its verify *)
}

let client (ss : Fsops.sess) =
  match ss.conn with Remote.Conn.Remote c -> c | _ -> invalid_arg "Nettest.client"

(* ---------- fault plan ---------- *)

let random_fault rng =
  match Rng.int rng 12 with
  | 0 | 1 | 2 -> Faultsim.Net_drop
  | 3 | 4 -> Faultsim.Net_duplicate
  | 5 | 6 -> Faultsim.Net_reorder
  | 7 | 8 -> Faultsim.Net_corrupt
  | 9 | 10 -> Faultsim.Net_partition (1 + Rng.int rng 3)
  | _ -> Faultsim.Net_server_crash

(* ---------- crash / verification ---------- *)

(* The whole tree through a fresh local session, then every remembered
   instant. *)
let check_recovered st ~phase =
  let w = st.w in
  Oracle.verify w.ora (Fs.new_session w.fs) ~phase;
  w.time_travel_checks <-
    w.time_travel_checks + Oracle.check_time_travel w.ora (Fs.new_session w.fs)

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
  let w = st.w in
  Oracle.trace w.ora "== SERVER CRASH after op %d (in_flight=%b)" w.ops_attempted
    (Option.is_some w.current);
  Faultsim.clear_schedule st.plan;
  let rep = Recovery.crash_and_recover w.fs in
  if not (Recovery.is_clean rep) then
    Oracle.mismatch w.ora "recovery not clean: %s" (Recovery.report_to_string rep);
  (* every open transaction died with the server: drop the matching
     overlays now so the oracle's views stay in lockstep with what those
     clients will actually see once they discover the death.  The client
     whose RPC is in flight is left alone — its own exception handler
     resolves its outcome (by probe if ambiguous) and clears it.  So is
     a transaction that is still only a pending begin: it never reached
     the server, and its first request begins it on a fresh session. *)
  Array.iter
    (fun ss ->
      let is_current = match w.current with Some c -> c == ss | None -> false in
      if not (is_current || Client.begin_pending (client ss)) then begin
        if Oracle.in_txn ss.ov then w.aborts <- w.aborts + 1;
        Oracle.clear ss.ov
      end)
    w.sessions;
  (* an op riding a pending begin runs inside the transaction and cannot
     have committed anything, so the verify need not wait for it — and
     must not: the client begins again on a fresh session, and that
     transaction's locks would block the walk *)
  let may_commit =
    match w.current with Some ss -> not (Client.begin_pending (client ss)) | None -> false
  in
  if may_commit then st.verify_pending <- true else check_recovered st ~phase:"post-crash"

let run_one_op st =
  Fsops.run_one st.w ~gen:(Fsops.gen_op st.w) ~crash:(fun () ->
      Oracle.mismatch st.w.ora "a device crash escaped the server");
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
  let server = Server.create ~fs () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let plan = Faultsim.create () in
  Faultsim.arm_switch plan switch;
  let connect _ =
    let link = Link.create net in
    Faultsim.arm_link plan link;
    Remote.Conn.Remote (Client.connect ~server ~link ~rng:(Rng.split rng) ())
  in
  let w =
    Fsops.create ~rng ~ora:(Oracle.create ~trace:config.trace ~depth:4)
      ~max_dirs ~max_file_bytes fs (Array.init clients connect)
  in
  let st = { w; plan; verify_pending = false } in
  Server.set_on_crash server (fun s -> on_server_crash st s);
  for i = 0 to config.ops - 1 do
    if i > 0 && i mod fault_interval = 0 && Faultsim.net_pending plan < 4 then begin
      let f = random_fault rng in
      Oracle.trace w.ora "== scheduling %s" (Faultsim.net_action_to_string f);
      Faultsim.schedule_net_random plan rng ~within:(1 + Rng.int rng 8) f
    end;
    if
      i > 0
      && i mod (3 * fault_interval) = 0
      && Faultsim.pending plan = 0 && Rng.int rng 4 = 0
    then
      (* a device-level crash fires inside Fs execution: the server dies
         mid-request, after the op may have partially executed *)
      Faultsim.schedule_random_crash plan rng ~within:20;
    if i > 0 && i mod crash_interval = 0 then Server.crash_now server
    else run_one_op st;
    if i > 0 && i mod snapshot_interval = 0 then Oracle.remember_now w.ora db
  done;
  (* Converge: stop injecting, let every client settle (aborting any open
     transaction), then a final boundary crash + full verification. *)
  Faultsim.clear_schedule plan;
  Array.iter (Fsops.safe_abort w) w.sessions;
  Server.crash_now server;
  Faultsim.disarm plan;
  let clients = Array.map client w.sessions in
  {
    seed;
    ops_attempted = w.ops_attempted;
    ops_applied = w.ops_applied;
    commits = w.commits;
    aborts = w.aborts;
    lock_skips = w.lock_skips;
    io_faults = w.io_faults;
    server_crashes = Server.crashes server;
    replays = Server.replays server;
    leases_expired = Server.leases_expired server;
    sessions_lost = Array.fold_left (fun a c -> a + Client.sessions_lost c) 0 clients;
    reconnects = Array.fold_left (fun a c -> a + Client.reconnects c) 0 clients;
    indeterminate = w.indeterminate;
    landed = w.landed;
    messages = Netsim.messages net;
    bytes_sent = Netsim.bytes_sent net;
    retries = Netsim.retries net;
    timeouts = Netsim.timeouts net;
    net_faults = List.length (Faultsim.net_events plan);
    time_travel_checks = w.time_travel_checks;
    full_verifies = Oracle.verifies w.ora;
    mismatches = Oracle.mismatches w.ora;
  }
