(* Differential harness for the sharded fleet.

   Nettest's sibling one level up: Fsops' fleet sessions (names through
   the coordinator, file data routed to the owning shard by a cached
   placement map) run a randomized workload while a seeded Faultsim plan
   injects message faults on every link — client, heartbeat and admin
   alike — plus targeted mid-request crashes of any chosen member
   ([Net_crash_of]), boundary crashes rotating over the whole fleet, and
   heartbeat-path partitions long enough to trigger real failovers
   (fence, handoff, redirect).

   The ops, their probes, the op runner with its exception ladder and
   the resolution of an ambiguous outcome are Fsops'.  File identities
   are the oracle's own; each session reaches a file's data by the oid
   the coordinator assigned, which Fsops learns once and keeps
   ([fleet_oids]).  No transactions ride the fleet, so no session
   overlay ever opens.  This harness keeps its fault plan, its op mix
   and the one op whose draws differ (a write draws its offset before
   its data), the partitions and their healing, and the walk that
   {!Oracle.compare_tree} checks: the coordinator namespace As_of now
   (dotfiles excluded — the durable placement map lives there), each
   file's identity against the learned oid, and its content from the
   authoritative shard copy ([peek_data]), which follows the handoff
   protocol's authority rules: the migration source while a bucket is in
   flight, the owner otherwise. *)

module SM = Oracle.SM
module Rng = Simclock.Rng
module Clock = Simclock.Clock
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Client = Remote.Client
module Server = Remote.Server
module Cluster = Remote.Cluster

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
  skips : int; (* lock skips and I/O faults *)
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

type state = {
  cfg : config;
  w : Fsops.t;
  clock : Clock.t;
  cluster : Cluster.t;
  plan : Faultsim.t;
  mutable crash_rr : int; (* boundary crashes rotate over members *)
  mutable cut : (int * int) option; (* (shard, heal-at-op) active partition *)
  mutable verify_pending : bool; (* a mid-flight crash deferred its verify *)
}

let fleet (ss : Fsops.sess) =
  match ss.conn with Remote.Conn.Fleet f -> f | _ -> invalid_arg "Shardtest.fleet"

(* ---------- ops ---------- *)

let op_write st (ss : Fsops.sess) =
  let w = st.w in
  match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> Fsops.create_file w ss
  | Some (path, oid) ->
    let len = Bytes.length (Oracle.view_content w.ora ss.ov oid) in
    let dlen = 1 + Rng.int w.rng 6800 in
    let off = Fsops.draw_offset w w.rng ~len dlen in
    Oracle.trace w.ora "s%d write %s (oid %Ld) off=%d len=%d cur=%d" ss.id path oid off
      dlen len;
    Fsops.write_at w ss path ~oid ~off [ Rng.bytes w.rng dlen ]

let gen_op st _ =
  let w = st.w in
  let r = Rng.int w.rng 100 in
  if r < 30 then op_write st
  else if r < 44 then Fsops.create_file w
  else if r < 50 then Fsops.mkdir w
  else if r < 60 then Fsops.truncate w ~grow:6000
  else if r < 68 then Fsops.unlink w
  else if r < 76 then Fsops.rename w
  else Fsops.read_check w

(* ---------- faults ---------- *)

let random_fault st =
  let rng = st.w.rng in
  match Rng.int rng 13 with
  | 0 | 1 | 2 -> Faultsim.Net_drop
  | 3 | 4 -> Faultsim.Net_duplicate
  | 5 | 6 -> Faultsim.Net_reorder
  | 7 | 8 -> Faultsim.Net_corrupt
  | 9 | 10 -> Faultsim.Net_partition (1 + Rng.int rng 3)
  (* targeted: crash a chosen member (coordinator included) on its next
     inbound message, mid-request *)
  | _ -> Faultsim.Net_crash_of (Rng.int rng (st.cfg.nshards + 1))

(* ---------- verification ---------- *)

let verify (w : Fsops.t) cluster ~phase =
  let s = Fs.new_session w.fs in
  let ts = Relstore.Db.now (Fs.db w.fs) in
  let files = ref SM.empty and dirs = ref [] in
  let rec go dir =
    dirs := dir :: !dirs;
    List.iter
      (fun name ->
        if String.length name > 0 && name.[0] <> '.' then begin
          let path = Oracle.join dir name in
          match Fs.stat s ~timestamp:ts path with
          | att when att.Invfs.Fileatt.ftype = "directory" -> go path
          | att ->
            let real = att.Invfs.Fileatt.file in
            (match SM.find_opt path (Oracle.names w.ora) with
            | Some oid -> (
              match Hashtbl.find_opt w.fleet_oids oid with
              | Some learned when learned <> real ->
                Oracle.mismatch w.ora "%s: %s identity differs: learned oid %Ld, real %Ld"
                  phase path learned real
              | _ -> ())
            | None -> ());
            let content = lazy (Bytes.of_string (Cluster.peek_data cluster ~oid:real)) in
            files := SM.add path content !files
          | exception Errors.Fs_error (code, _) ->
            Oracle.mismatch w.ora "%s: stat %s failed (%s)" phase path
              (Errors.code_to_string code)
        end)
      (Fs.readdir s ~timestamp:ts dir)
  in
  go "/";
  Oracle.compare_tree w.ora ~phase ~dirs:(List.sort String.compare !dirs) !files

(* ---------- the run ---------- *)

let run_one_op st =
  Cluster.pump st.cluster;
  Fsops.run_one st.w ~gen:(gen_op st) ~crash:(fun () ->
      Oracle.mismatch st.w.ora "a device crash escaped the fleet");
  if st.verify_pending then begin
    st.verify_pending <- false;
    verify st.w st.cluster ~phase:"post-crash (deferred)"
  end

let heal st =
  match st.cut with
  | Some (shard, _) ->
    Oracle.trace st.w.ora "== healing partition of shard %d" shard;
    Cluster.set_partitioned st.cluster ~shard false;
    st.cut <- None
  | None -> ()

(* Let detection, failover, handoffs and garbage drops run dry, for at
   most 300 half-heartbeats; returns the counters it stopped at. *)
let settle cluster clock =
  let rec go k =
    Cluster.pump cluster;
    let s = Cluster.stats cluster in
    if (s.Cluster.handoffs_pending > 0 || s.Cluster.drops_pending > 0) && k < 300 then begin
      Clock.advance clock ~account:"shardtest.settle" (Cluster.hb_interval cluster /. 2.);
      go (k + 1)
    end
    else s
  in
  go 0

let converge st =
  let s = settle st.cluster st.clock in
  if s.Cluster.handoffs_pending > 0 then
    Oracle.mismatch st.w.ora "converge: %d handoffs never completed"
      s.Cluster.handoffs_pending;
  if s.Cluster.drops_pending > 0 then
    Oracle.mismatch st.w.ora "converge: %d bucket drops never completed"
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
  let connect _ =
    Remote.Conn.Fleet
      (Cluster.connect cluster
         ~on_link:(fun tag link -> Faultsim.arm_link plan ~tag link)
         ~rng:(Rng.split rng) ())
  in
  let w =
    Fsops.create ~rng ~ora:(Oracle.create ~trace:config.trace ~depth:0)
      ~max_dirs:config.max_dirs ~max_file_bytes:config.max_file_bytes
      (Server.fs (Cluster.member_server cluster 0))
      (Array.init config.clients connect)
  in
  let st =
    { cfg = config; w; clock; cluster; plan; crash_rr = 0; cut = None; verify_pending = false }
  in
  Cluster.set_before_recovery cluster (fun mid ->
      Oracle.trace w.ora "== MEMBER %d CRASH after op %d (in_flight=%b)" mid
        w.ops_attempted (Option.is_some w.current);
      (* recovery runs under a cleared schedule, as in Nettest *)
      Faultsim.clear_schedule plan);
  Cluster.set_after_recovery cluster (fun _mid ->
      (* an op in flight may have landed before its reply was lost: its
         own handler resolves that first *)
      if Option.is_some w.current then st.verify_pending <- true
      else verify w cluster ~phase:"post-crash");
  for i = 0 to config.ops - 1 do
    (match st.cut with
    | Some (_, heal_at) when i >= heal_at -> heal st
    | _ -> ());
    if i > 0 && i mod config.fault_interval = 0 && Faultsim.net_pending plan < 4 then begin
      let f = random_fault st in
      Oracle.trace w.ora "== scheduling %s" (Faultsim.net_action_to_string f);
      Faultsim.schedule_net_random plan rng ~within:(1 + Rng.int rng 8) f
    end;
    if i > 0 && i mod config.partition_interval = 0 && st.cut = None then begin
      let shard = 1 + Rng.int rng config.nshards in
      Oracle.trace w.ora "== cutting shard %d's heartbeat path" shard;
      Cluster.set_partitioned cluster ~shard true;
      st.cut <- Some (shard, i + config.partition_ops)
    end;
    if i > 0 && i mod config.crash_interval = 0 then begin
      let mid = st.crash_rr mod (config.nshards + 1) in
      st.crash_rr <- st.crash_rr + 1;
      Oracle.trace w.ora "== boundary crash of member %d" mid;
      Cluster.crash_member cluster mid
    end
    else run_one_op st
  done;
  (* Converge: heal, stop injecting, drain redistribution, crash every
     member once more (the recovery path is part of the contract), then
     the full differential check. *)
  heal st;
  Faultsim.clear_schedule plan;
  converge st;
  for mid = 0 to config.nshards do
    Cluster.crash_member cluster mid
  done;
  Faultsim.disarm plan;
  converge st;
  verify w cluster ~phase:"final";
  let audit = Cluster.cross_shard_audit cluster in
  if not (Invfs.Fsck.is_shard_clean audit) then
    Oracle.mismatch w.ora "final %s" (Invfs.Fsck.shard_report_to_string audit);
  let stats = Cluster.stats cluster in
  let sum_members f =
    let n = ref 0 in
    for mid = 0 to config.nshards do
      n := !n + f (Cluster.member_server cluster mid)
    done;
    !n
  in
  let sum_conns f = Array.fold_left (fun a ss -> a + f (fleet ss)) 0 w.sessions in
  let sum_clients f =
    sum_conns (fun conn -> List.fold_left (fun a c -> a + f c) 0 (Cluster.conn_clients conn))
  in
  {
    seed;
    ops_attempted = w.ops_attempted;
    ops_applied = w.ops_applied;
    skips = w.lock_skips + w.io_faults;
    member_crashes = sum_members Server.crashes;
    fence_events = stats.Cluster.fence_events;
    handoffs = stats.Cluster.handoffs_completed;
    migrations = stats.Cluster.migrations;
    drops_done = stats.Cluster.drops_done;
    stale_rejects = stats.Cluster.stale_rejects;
    redirects = sum_conns Cluster.redirects;
    replays = sum_members Server.replays;
    reconnects = sum_clients Client.reconnects;
    sessions_lost = sum_clients Client.sessions_lost;
    indeterminate = w.indeterminate;
    landed = w.landed;
    heartbeats = stats.Cluster.heartbeats_seen;
    net_faults = List.length (Faultsim.net_events plan);
    messages = Netsim.messages net;
    full_verifies = Oracle.verifies w.ora;
    mismatches = Oracle.mismatches w.ora;
  }

(* ---------- bench entry points ----------

   One simulated clock serializes every machine's work, so parallelism
   is modeled, not observed: [Server.busy_s] meters each machine's share
   of simulated time, and saturated fleet throughput is ops over the
   bottleneck member's busy time — the classic makespan lower bound.
   Scaling shards divides the data-plane busy time across machines while
   the per-op cost stays constant, which is exactly the scale-out claim
   the smoke check pins (N=4 beating 2x the N=1 throughput). *)

(* Empty files /f0, /f1, ... made through the coordinator, and the oid
   each one got. *)
let make_files conn n =
  let coord = Cluster.coord conn in
  Array.init n (fun i ->
      let path = Printf.sprintf "/f%d" i in
      Client.c_close coord (Client.c_creat coord path);
      (Client.c_stat coord path).Invfs.Fileatt.file)

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
  let nfiles = 4 * nshards in
  let oids = make_files conn nfiles in
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
  let oids = make_files conn 12 in
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
  Cluster.set_partitioned cluster ~shard:1 false;
  ignore (settle cluster clock : Cluster.stats);
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
