(* Differential harness for the sharded fleet.

   Nettest's sibling one level up: a fleet of composite connections
   (metadata through the coordinator, data ops routed to the owning
   shard by a cached placement map) drives a randomized workload while a
   seeded Faultsim plan injects message faults on every link — client,
   heartbeat and admin alike — plus targeted mid-request crashes of any
   chosen member ([Net_crash_of]), boundary crashes rotating over the
   whole fleet, and heartbeat-path partitions long enough to trigger
   real failovers (fence, handoff, redirect).

   The shared Oracle is oid-keyed: its names bind coordinator paths to
   global file identities (the {e real} oids, learned by stat — the data
   plane is addressed by them) and its files hold committed chunk
   contents per identity.  No transactions ride the data plane, so no
   session overlay ever opens; every op is one logical exchange and the
   ambiguous outcome — a mutation whose session died before the reply —
   is resolved by a durable probe: coordinator namespace for metadata,
   the authoritative shard copy ({!Cluster.peek_data}) for chunk data.
   ESTALE and EBUSY refusals that survive the conn's own redirect budget
   are definitively-not-executed and skip cleanly.

   Verification walks the coordinator namespace (dotfiles excluded —
   the durable placement map lives there) and compares every named
   file's chunk data against the oracle through [peek_data], which
   follows the handoff protocol's authority rules: the migration source
   while a bucket is in flight, the owner otherwise. *)

module SM = Oracle.SM
module Rng = Simclock.Rng
module Clock = Simclock.Clock
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Client = Remote.Client
module Server = Remote.Server
module Cluster = Remote.Cluster
module Link = Netsim.Link

type config = {
  ops : int;
  clients : int;
  nshards : int;
  nbuckets : int;
  hb_interval : float;
  fault_interval : int; (* schedule a random net fault every N ops *)
  crash_interval : int; (* boundary crash every N ops, rotating members *)
  partition_interval : int; (* cut a shard's heartbeat path every N ops... *)
  partition_ops : int; (* ...healing it this many ops later *)
  max_file_bytes : int;
  max_dirs : int;
  trace : bool;
}

let default_config =
  {
    ops = 140;
    clients = 3;
    nshards = 3;
    nbuckets = 16;
    hb_interval = 0.3;
    fault_interval = 4;
    crash_interval = 50;
    partition_interval = 45;
    partition_ops = 18;
    max_file_bytes = 24 * 1024;
    max_dirs = 6;
    trace = false;
  }

type outcome = {
  seed : int64;
  ops_attempted : int;
  ops_applied : int;
  skips : int; (* definitively-not-executed refusals (busy, stale, locks) *)
  member_crashes : int; (* across the whole fleet *)
  fence_events : int;
  handoffs : int;
  migrations : int;
  drops_done : int;
  stale_rejects : int;
  redirects : int;
  replays : int;
  reconnects : int;
  sessions_lost : int;
  indeterminate : int;
  landed : int;
  heartbeats : int;
  net_faults : int;
  messages : int;
  full_verifies : int;
  mismatches : string list;
}

let outcome_to_string o =
  Printf.sprintf
    "seed=%Ld ops=%d/%d skips=%d crashes=%d fences=%d handoffs=%d migr=%d \
     drops=%d stale=%d redirects=%d replays=%d reconnects=%d lost=%d indet=%d \
     (landed %d) hb=%d faults=%d msgs=%d verifies=%d mismatches=%d"
    o.seed o.ops_applied o.ops_attempted o.skips o.member_crashes o.fence_events
    o.handoffs o.migrations o.drops_done o.stale_rejects o.redirects o.replays
    o.reconnects o.sessions_lost o.indeterminate o.landed o.heartbeats
    o.net_faults o.messages o.full_verifies (List.length o.mismatches)

(* ---------- harness state ---------- *)

type csess = {
  id : int;
  conn : Cluster.conn;
  ov : Oracle.overlay; (* no transactions ride the data plane: never opened *)
  mutable pending : (Oracle.updates * (unit -> bool)) option;
      (* the in-flight op's intent plus the durable probe that decides
         an indeterminate outcome *)
}

type state = {
  cfg : config;
  rng : Rng.t;
  clock : Clock.t;
  cluster : Cluster.t;
  plan : Faultsim.t;
  ora : Oracle.t;
      (* names bind coordinator paths to the real oids, learned by stat;
         0L = not yet learned *)
  clients : csess array;
  mutable ops_attempted : int;
  mutable ops_applied : int;
  mutable skips : int;
  mutable indeterminate : int;
  mutable landed : int;
  mutable full_verifies : int;
  mutable crash_rr : int; (* boundary crashes rotate over members *)
  mutable cut : (int * int) option; (* (shard, heal-at-op) active partition *)
  mutable current : csess option;
  mutable in_flight : bool;
  mutable verify_pending : bool;
}

(* ---------- durable probes ---------- *)

let coord_fs st = Server.fs (Cluster.member_server st.cluster 0)

let probe_exists st path () =
  let fs = coord_fs st in
  let s = Fs.new_session fs in
  Fs.exists s ~timestamp:(Relstore.Db.now (Fs.db fs)) path

let probe_absent st path () = not (probe_exists st path ())

let probe_data st oid expect () =
  String.equal (Cluster.peek_data st.cluster ~oid) (Bytes.to_string expect)

(* The real oid is the data plane's address: learn it by stat the first
   time a path's data is touched.  Reissuable and read-only, so a
   failure here is always a clean skip. *)
let resolve_oid st cs path =
  match SM.find_opt path (Oracle.names st.ora) with
  | None -> None
  | Some oid when oid <> 0L -> Some oid
  | Some _ ->
    let att = Client.c_stat (Cluster.coord cs.conn) path in
    let oid = att.Invfs.Fileatt.file in
    Oracle.commit st.ora { Oracle.no_updates with u_names = [ (path, Some oid) ] };
    Some oid

(* ---------- ops ---------- *)

let op_create st cs =
  let path = Oracle.fresh_path st.ora cs.ov st.rng "f" in
  Oracle.trace st.ora "s%d creat %s" cs.id path;
  let u = { Oracle.no_updates with u_names = [ (path, Some 0L) ] } in
  cs.pending <- Some (u, probe_exists st path);
  let coord = Cluster.coord cs.conn in
  let fd = Client.c_creat coord path in
  Client.c_close coord fd;
  u

let op_mkdir st cs =
  if List.length (Oracle.dirs st.ora) >= st.cfg.max_dirs then op_create st cs
  else begin
    let path = Oracle.fresh_path st.ora cs.ov st.rng "d" in
    Oracle.trace st.ora "s%d mkdir %s" cs.id path;
    let u = { Oracle.no_updates with u_dirs = [ path ] } in
    cs.pending <- Some (u, probe_exists st path);
    Client.c_mkdir (Cluster.coord cs.conn) path;
    u
  end

let op_write st cs =
  match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> op_create st cs
  | Some (path, _) -> (
    match resolve_oid st cs path with
    | None -> Oracle.no_updates
    | Some oid ->
      let cur = Oracle.content st.ora oid in
      let len = Bytes.length cur in
      let dlen = 1 + Rng.int st.rng 6800 in
      let off =
        if len + dlen > st.cfg.max_file_bytes then
          if len - dlen <= 0 then 0 else Rng.int st.rng (len - dlen + 1)
        else Rng.int st.rng (len + 1)
      in
      Oracle.trace st.ora "s%d write oid=%Ld (%s) off=%d len=%d cur=%d"
        cs.id oid path off dlen len;
      let data = Rng.bytes st.rng dlen in
      let after = Oracle.splice cur ~off data in
      let u = { Oracle.no_updates with u_files = [ (oid, after) ] } in
      cs.pending <- Some (u, probe_data st oid after);
      ignore
        (Cluster.shard_write cs.conn ~oid ~off:(Int64.of_int off)
           ~data:(Bytes.to_string data)
          : int);
      u)

let op_truncate st cs =
  match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> op_create st cs
  | Some (path, _) -> (
    match resolve_oid st cs path with
    | None -> Oracle.no_updates
    | Some oid ->
      let cur = Oracle.content st.ora oid in
      let len = Bytes.length cur in
      let new_len = Rng.int st.rng (min (len + 6000) st.cfg.max_file_bytes + 1) in
      Oracle.trace st.ora "s%d trunc oid=%Ld (%s) %d -> %d" cs.id oid path len new_len;
      let after = Oracle.resize cur new_len in
      let u = { Oracle.no_updates with u_files = [ (oid, after) ] } in
      cs.pending <- Some (u, probe_data st oid after);
      Cluster.shard_truncate cs.conn ~oid ~size:(Int64.of_int new_len);
      u)

let op_read_check st cs =
  (match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> ()
  | Some (path, _) -> (
    match resolve_oid st cs path with
    | None -> ()
    | Some oid ->
      Oracle.trace st.ora "s%d read oid=%Ld (%s)" cs.id oid path;
      let expect = Bytes.to_string (Oracle.content st.ora oid) in
      let real =
        Cluster.shard_read cs.conn ~oid ~off:0L ~len:(String.length expect + 64)
      in
      (match Oracle.bytes_diff (Bytes.of_string expect) (Bytes.of_string real) with
      | None -> ()
      | Some d -> Oracle.mismatch st.ora "read oid=%Ld (%s) diverged mid-run: %s"
                    oid path d)));
  Oracle.no_updates

let op_unlink st cs =
  match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> op_create st cs
  | Some (path, _) ->
    Oracle.trace st.ora "s%d unlink %s" cs.id path;
    let u = { Oracle.no_updates with u_names = [ (path, None) ] } in
    cs.pending <- Some (u, probe_absent st path);
    Client.c_unlink (Cluster.coord cs.conn) path;
    u

let op_rename st cs =
  match Oracle.pick_file st.ora cs.ov st.rng with
  | None -> op_create st cs
  | Some (path, oid) ->
    let dst = Oracle.fresh_path st.ora cs.ov st.rng "r" in
    Oracle.trace st.ora "s%d rename %s -> %s" cs.id path dst;
    let u = { Oracle.no_updates with u_names = [ (path, None); (dst, Some oid) ] } in
    cs.pending <- Some (u, probe_exists st dst);
    Client.c_rename (Cluster.coord cs.conn) path dst;
    u

let gen_op st =
  let r = Rng.int st.rng 100 in
  if r < 30 then op_write
  else if r < 44 then op_create
  else if r < 50 then op_mkdir
  else if r < 60 then op_truncate
  else if r < 68 then op_unlink
  else if r < 76 then op_rename
  else op_read_check

(* ---------- faults ---------- *)

let random_fault st =
  match Rng.int st.rng 13 with
  | 0 | 1 | 2 -> Faultsim.Net_drop
  | 3 | 4 -> Faultsim.Net_duplicate
  | 5 | 6 -> Faultsim.Net_reorder
  | 7 | 8 -> Faultsim.Net_corrupt
  | 9 | 10 -> Faultsim.Net_partition (1 + Rng.int st.rng 3)
  (* targeted: crash a chosen member (coordinator included) on its next
     inbound message, mid-request *)
  | _ -> Faultsim.Net_crash_of (Rng.int st.rng (st.cfg.nshards + 1))

(* ---------- verification ---------- *)

let verify st ~phase =
  st.full_verifies <- st.full_verifies + 1;
  let fs = coord_fs st in
  let s = Fs.new_session fs in
  let ts = Relstore.Db.now (Fs.db fs) in
  let real_files = ref SM.empty and real_dirs = ref SM.empty in
  let rec go dir =
    real_dirs := SM.add dir () !real_dirs;
    List.iter
      (fun name ->
        if String.length name > 0 && name.[0] <> '.' then begin
          let path = Oracle.join dir name in
          match Fs.stat s ~timestamp:ts path with
          | att ->
            if att.Invfs.Fileatt.ftype = "directory" then go path
            else real_files := SM.add path att.Invfs.Fileatt.file !real_files
          | exception Errors.Fs_error (code, _) ->
            Oracle.mismatch st.ora "%s: stat %s failed (%s)"
              phase path (Errors.code_to_string code)
        end)
      (Fs.readdir s ~timestamp:ts dir)
  in
  go "/";
  let dirs_expect = Oracle.dirs st.ora in
  let dirs_real = List.map fst (SM.bindings !real_dirs) in
  if dirs_expect <> dirs_real then
    Oracle.mismatch st.ora "%s: directories differ: oracle [%s] real [%s]" phase
      (String.concat "," dirs_expect) (String.concat "," dirs_real);
  SM.iter
    (fun path oid ->
      match SM.find_opt path !real_files with
      | None -> Oracle.mismatch st.ora "%s: %s missing from namespace" phase path
      | Some real_oid ->
        if oid <> 0L && oid <> real_oid then
          Oracle.mismatch st.ora "%s: %s identity differs: oracle oid %Ld, real %Ld"
            phase path
            oid real_oid;
        let key = if oid = 0L then real_oid else oid in
        let expect = Bytes.to_string (Oracle.content st.ora key) in
        let real = Cluster.peek_data st.cluster ~oid:real_oid in
        if not (String.equal real expect) then
          Oracle.mismatch st.ora "%s: %s (oid %Ld) chunk data differs: %s"
            phase path real_oid
            (Option.value ~default:"?"
               (Oracle.bytes_diff (Bytes.of_string expect) (Bytes.of_string real))))
    (Oracle.names st.ora);
  SM.iter
    (fun path _ ->
      if not (SM.mem path (Oracle.names st.ora)) then
        Oracle.mismatch st.ora "%s: namespace has unexpected file %s" phase path)
    !real_files

(* ---------- indeterminate resolution ---------- *)

let indeterminate_of_msg msg =
  let needle = "indeterminate" in
  let n = String.length needle and l = String.length msg in
  let rec scan i = i + n <= l && (String.sub msg i n = needle || scan (i + 1)) in
  scan 0

let resolve_indeterminate st cs =
  st.indeterminate <- st.indeterminate + 1;
  match cs.pending with
  | None -> Oracle.mismatch st.ora "s%d: indeterminate outcome but no pending op to probe"
              cs.id
  | Some (u, probe) ->
    if probe () then begin
      Oracle.trace st.ora "s%d .. probe: LANDED" cs.id;
      st.landed <- st.landed + 1;
      Oracle.commit st.ora u
    end
    else Oracle.trace st.ora "s%d .. probe: did not land" cs.id

(* ---------- the run ---------- *)

let run_one_op st =
  st.ops_attempted <- st.ops_attempted + 1;
  Oracle.trace st.ora "-- op %d" st.ops_attempted;
  Cluster.pump st.cluster;
  let cs = st.clients.(Rng.int st.rng (Array.length st.clients)) in
  let op = gen_op st in
  cs.pending <- None;
  st.current <- Some cs;
  st.in_flight <- true;
  (match op st cs with
  | u ->
    cs.pending <- None;
    Oracle.commit st.ora u;
    st.ops_applied <- st.ops_applied + 1
  | exception Errors.Fs_error (Errors.ECONNRESET, msg) ->
    Oracle.trace st.ora "s%d .. ECONNRESET: %s" cs.id msg;
    if indeterminate_of_msg msg then resolve_indeterminate st cs;
    cs.pending <- None
  | exception
      Errors.Fs_error
        ( ( Errors.EAGAIN | Errors.EDEADLK | Errors.ETIMEDOUT | Errors.EBUSY
          | Errors.ESTALE ),
          _ ) ->
    (* all definitively-not-executed: lock conflicts, shed work whose
       re-offers ran out, and stale-placement refusals that outlived the
       conn's redirect budget *)
    Oracle.trace st.ora "s%d .. skip" cs.id;
    st.skips <- st.skips + 1;
    cs.pending <- None
  | exception Pagestore.Device.Io_fault _ ->
    Oracle.trace st.ora "s%d .. io fault" cs.id;
    st.skips <- st.skips + 1;
    cs.pending <- None
  | exception Errors.Fs_error (Errors.ENOENT, _) ->
    (* a metadata op lost a race with an unlink/rename the oracle already
       applied; the op did nothing *)
    Oracle.trace st.ora "s%d .. enoent skip" cs.id;
    st.skips <- st.skips + 1;
    cs.pending <- None
  | exception Errors.Fs_error (code, msg) ->
    Oracle.mismatch st.ora "unexpected fs error %s: %s" (Errors.code_to_string code) msg;
    cs.pending <- None);
  st.current <- None;
  st.in_flight <- false;
  if st.verify_pending then begin
    st.verify_pending <- false;
    verify st ~phase:"post-crash (deferred)"
  end

let heal st =
  match st.cut with
  | Some (shard, _) ->
    Oracle.trace st.ora "== healing partition of shard %d" shard;
    Cluster.set_partitioned st.cluster ~shard false;
    st.cut <- None
  | None -> ()

let settle st =
  (* let detection, failover, handoffs and garbage drops run dry *)
  let rec go k =
    Cluster.pump st.cluster;
    let s = Cluster.stats st.cluster in
    if (s.Cluster.handoffs_pending > 0 || s.Cluster.drops_pending > 0) && k < 300
    then begin
      Clock.advance st.clock ~account:"shardtest.settle" (st.cfg.hb_interval /. 2.);
      go (k + 1)
    end
  in
  go 0;
  let s = Cluster.stats st.cluster in
  if s.Cluster.handoffs_pending > 0 then
    Oracle.mismatch st.ora "converge: %d handoffs never completed"
      s.Cluster.handoffs_pending;
  if s.Cluster.drops_pending > 0 then
    Oracle.mismatch st.ora "converge: %d bucket drops never completed"
      s.Cluster.drops_pending

let run ?(config = default_config) ~seed () =
  let rng = Rng.create seed in
  let clock = Clock.create () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let plan = Faultsim.create () in
  let cluster =
    Cluster.create ~clock ~net ~rng:(Rng.split rng) ~nshards:config.nshards
      ~nbuckets:config.nbuckets ~hb_interval:config.hb_interval ()
  in
  (* server-to-server links join the same fault plan as client traffic *)
  List.iter (fun (tag, link) -> Faultsim.arm_link plan ~tag link) (Cluster.internal_links cluster);
  let mk_client id =
    {
      id;
      conn =
        Cluster.connect cluster
          ~on_link:(fun tag link -> Faultsim.arm_link plan ~tag link)
          ~rng:(Rng.split rng) ();
      ov = Oracle.overlay ();
      pending = None;
    }
  in
  let st =
    {
      cfg = config;
      rng;
      clock;
      cluster;
      plan;
      ora = Oracle.create ~trace:config.trace ~depth:0;
      clients = Array.init config.clients mk_client;
      ops_attempted = 0;
      ops_applied = 0;
      skips = 0;
      indeterminate = 0;
      landed = 0;
      full_verifies = 0;
      crash_rr = 0;
      cut = None;
      current = None;
      in_flight = false;
      verify_pending = false;
    }
  in
  Cluster.set_before_recovery cluster (fun mid ->
      Oracle.trace st.ora "== MEMBER %d CRASH after op %d (in_flight=%b)"
        mid st.ops_attempted
        st.in_flight;
      (* recovery runs under a cleared schedule, as in Nettest *)
      Faultsim.clear_schedule st.plan);
  Cluster.set_after_recovery cluster (fun _mid ->
      if st.in_flight then st.verify_pending <- true
      else verify st ~phase:"post-crash");
  for i = 0 to config.ops - 1 do
    (match st.cut with
    | Some (_, heal_at) when i >= heal_at -> heal st
    | _ -> ());
    if i > 0 && i mod config.fault_interval = 0 && Faultsim.net_pending st.plan < 4
    then begin
      let f = random_fault st in
      Oracle.trace st.ora "== scheduling %s" (Faultsim.net_action_to_string f);
      Faultsim.schedule_net_random st.plan st.rng ~within:(1 + Rng.int st.rng 8) f
    end;
    if i > 0 && i mod config.partition_interval = 0 && st.cut = None then begin
      let shard = 1 + Rng.int st.rng config.nshards in
      Oracle.trace st.ora "== cutting shard %d's heartbeat path" shard;
      Cluster.set_partitioned cluster ~shard true;
      st.cut <- Some (shard, i + config.partition_ops)
    end;
    if i > 0 && i mod config.crash_interval = 0 then begin
      let mid = st.crash_rr mod (config.nshards + 1) in
      st.crash_rr <- st.crash_rr + 1;
      Oracle.trace st.ora "== boundary crash of member %d" mid;
      Cluster.crash_member cluster mid
    end
    else run_one_op st
  done;
  (* Converge: heal, stop injecting, drain redistribution, crash every
     member once more (the recovery path is part of the contract), then
     the full differential check. *)
  heal st;
  Faultsim.clear_schedule st.plan;
  settle st;
  for mid = 0 to config.nshards do
    Cluster.crash_member cluster mid
  done;
  Faultsim.disarm st.plan;
  settle st;
  verify st ~phase:"final";
  let audit = Cluster.cross_shard_audit cluster in
  if not (Invfs.Fsck.is_shard_clean audit) then
    Oracle.mismatch st.ora "final %s" (Invfs.Fsck.shard_report_to_string audit);
  let stats = Cluster.stats cluster in
  let member_crashes = ref 0 in
  for mid = 0 to config.nshards do
    member_crashes := !member_crashes + Server.crashes (Cluster.member_server cluster mid)
  done;
  let replays = ref 0 in
  for mid = 0 to config.nshards do
    replays := !replays + Server.replays (Cluster.member_server cluster mid)
  done;
  let sum_clients f =
    Array.fold_left
      (fun a cs -> List.fold_left (fun a c -> a + f c) a (Cluster.conn_clients cs.conn))
      0 st.clients
  in
  {
    seed;
    ops_attempted = st.ops_attempted;
    ops_applied = st.ops_applied;
    skips = st.skips;
    member_crashes = !member_crashes;
    fence_events = stats.Cluster.fence_events;
    handoffs = stats.Cluster.handoffs_completed;
    migrations = stats.Cluster.migrations;
    drops_done = stats.Cluster.drops_done;
    stale_rejects = stats.Cluster.stale_rejects;
    redirects = Array.fold_left (fun a cs -> a + Cluster.redirects cs.conn) 0 st.clients;
    replays = !replays;
    reconnects = sum_clients Client.reconnects;
    sessions_lost = sum_clients Client.sessions_lost;
    indeterminate = st.indeterminate;
    landed = st.landed;
    heartbeats = stats.Cluster.heartbeats_seen;
    net_faults = List.length (Faultsim.net_events st.plan);
    messages = Netsim.messages net;
    full_verifies = st.full_verifies;
    mismatches = Oracle.mismatches st.ora;
  }

(* ---------- bench entry points ----------

   One simulated clock serializes every machine's work, so parallelism
   is modeled, not observed: [Server.busy_s] meters each machine's share
   of simulated time, and saturated fleet throughput is ops over the
   bottleneck member's busy time — the classic makespan lower bound.
   Scaling shards divides the data-plane busy time across machines while
   the per-op cost stays constant, which is exactly the scale-out claim
   the smoke check pins (N=4 beating 2x the N=1 throughput). *)

type scale_point = {
  sp_shards : int;
  sp_ops : int;
  sp_wall_s : float; (* serialized simulated time for the whole workload *)
  sp_bottleneck_s : float; (* busiest member's share *)
  sp_throughput : float; (* modeled saturated ops/s: ops / bottleneck *)
}

let scaleout ?(ops = 200) ~seed ~nshards () =
  let rng = Rng.create seed in
  let clock = Clock.create () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let cluster =
    Cluster.create ~clock ~net ~rng:(Rng.split rng) ~nshards ~nbuckets:32 ()
  in
  let conn = Cluster.connect cluster ~rng:(Rng.split rng) () in
  let coord = Cluster.coord conn in
  let nfiles = 4 * nshards in
  let oids =
    Array.init nfiles (fun i ->
        let path = Printf.sprintf "/f%d" i in
        let fd = Client.c_creat coord path in
        Client.c_close coord fd;
        (Client.c_stat coord path).Invfs.Fileatt.file)
  in
  let payload = Bytes.to_string (Rng.bytes rng 8192) in
  let busy0 =
    Array.init (nshards + 1) (fun mid -> Server.busy_s (Cluster.member_server cluster mid))
  in
  let t0 = Clock.now clock in
  for k = 0 to ops - 1 do
    let oid = oids.(k mod nfiles) in
    ignore (Cluster.shard_write conn ~oid ~off:0L ~data:payload : int)
  done;
  let wall = Clock.now clock -. t0 in
  let bottleneck = ref 0. in
  for mid = 0 to nshards do
    let b = Server.busy_s (Cluster.member_server cluster mid) -. busy0.(mid) in
    if b > !bottleneck then bottleneck := b
  done;
  {
    sp_shards = nshards;
    sp_ops = ops;
    sp_wall_s = wall;
    sp_bottleneck_s = !bottleneck;
    sp_throughput = (if !bottleneck > 0. then float_of_int ops /. !bottleneck else 0.);
  }

type blackout = {
  bo_blackout_s : float; (* longest single-op stall after the cut *)
  bo_detect_s : float; (* configured detection horizon (dead_after) *)
  bo_fence_events : int;
  bo_stale_rejects : int;
  bo_migrations : int;
  bo_consistent : bool; (* every file readable and correct after failover *)
}

let failover_blackout ?(hb_interval = 0.3) ~seed () =
  let rng = Rng.create seed in
  let clock = Clock.create () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let nshards = 3 in
  let cluster =
    Cluster.create ~clock ~net ~rng:(Rng.split rng) ~nshards ~nbuckets:16 ~hb_interval ()
  in
  let conn = Cluster.connect cluster ~rng:(Rng.split rng) () in
  let coord = Cluster.coord conn in
  let nfiles = 12 in
  let oids =
    Array.init nfiles (fun i ->
        let path = Printf.sprintf "/f%d" i in
        let fd = Client.c_creat coord path in
        Client.c_close coord fd;
        (Client.c_stat coord path).Invfs.Fileatt.file)
  in
  let payload oid k = Printf.sprintf "gen%d of oid %Ld: %s" k oid (String.make 512 'x') in
  let expected = Hashtbl.create 16 in
  let write_all k =
    Array.iter
      (fun oid ->
        let data = payload oid k in
        ignore (Cluster.shard_write conn ~oid ~off:0L ~data : int);
        ignore (Cluster.shard_truncate conn ~oid ~size:(Int64.of_int (String.length data)));
        Hashtbl.replace expected oid data)
      oids
  in
  write_all 0;
  (* cut one shard's heartbeat path and keep the workload going; the
     fence, failover and handoff happen underneath while every op's
     stall is measured *)
  Cluster.set_partitioned cluster ~shard:1 true;
  let t_cut = Clock.now clock in
  let worst = ref 0. in
  for k = 1 to 6 do
    Array.iter
      (fun oid ->
        let t0 = Clock.now clock in
        let data = payload oid k in
        ignore (Cluster.shard_write conn ~oid ~off:0L ~data : int);
        ignore (Cluster.shard_truncate conn ~oid ~size:(Int64.of_int (String.length data)));
        Hashtbl.replace expected oid data;
        let d = Clock.now clock -. t0 in
        if d > !worst then worst := d)
      oids;
    Clock.advance clock ~account:"shardtest.blackout" (hb_interval /. 2.);
    Cluster.pump cluster
  done;
  ignore t_cut;
  Cluster.set_partitioned cluster ~shard:1 false;
  let rec drain k =
    Cluster.pump cluster;
    let s = Cluster.stats cluster in
    if (s.Cluster.handoffs_pending > 0 || s.Cluster.drops_pending > 0) && k < 200
    then begin
      Clock.advance clock ~account:"shardtest.blackout" (hb_interval /. 2.);
      drain (k + 1)
    end
  in
  drain 0;
  let consistent =
    Array.for_all
      (fun oid ->
        let expect = Hashtbl.find expected oid in
        let real =
          Cluster.shard_read conn ~oid ~off:0L ~len:(String.length expect + 64)
        in
        String.equal real expect && String.equal (Cluster.peek_data cluster ~oid) expect)
      oids
  in
  let s = Cluster.stats cluster in
  {
    bo_blackout_s = !worst;
    bo_detect_s = 4. *. hb_interval;
    bo_fence_events = s.Cluster.fence_events;
    bo_stale_rejects = s.Cluster.stale_rejects;
    bo_migrations = s.Cluster.migrations;
    bo_consistent = consistent;
  }
