(* Open-loop load harness: saturation curves with a differential oracle.

   Every benchmark elsewhere in the repo is closed-loop — the next
   request is issued only after the previous reply, so offered load can
   never exceed service capacity and tail latency under overload is
   invisible by construction.  This harness is open-loop: a Poisson
   arrival process on the simulated clock decides when each request
   {e arrives}, independent of whether the server has kept up.  The
   engine executes arrivals in order; when the server falls behind, the
   clock at an op's start is already past its arrival time, and that
   queueing delay is charged to the op's latency (completion − arrival).
   Past saturation the backlog grows without bound and p99 explodes —
   which is exactly the signal a closed-loop run hides.

   Traffic shape: hundreds of client sessions grouped into tenants,
   each with its own directory and its own latency histogram; file
   popularity is Zipf over the population in creation order (old files
   are hot), so lock contention concentrates where it does in real
   file-server traces.  A slice of ops runs as multi-op transactions
   (begin … writes/creates … commit), so sessions hold two-phase locks
   across other sessions' arrivals and conflicts (EAGAIN / EDEADLK /
   ETIMEDOUT) appear under load exactly as the RPC layer reports them.

   The sweep calibrates first: a closed-loop prefix measures service
   capacity, then each level offers [factor × capacity] so the knee is
   always inside the swept range.  Correctness rides along: the sessions
   are Fsops' remote ones, so the shared Oracle shadows every mutation
   (per-session overlays for open transactions), reads are checked
   against it mid-flight, snapshots feed time-travel checks, and a
   full-tree walk closes each level.

   This harness keeps only what its draws make its own: the schedule,
   the Zipf population and the file each op picks from it, the /tN/f
   create path, each op's payload rng, the time-travel read, and the
   population's growth at a commit.  Every other op body ends in a
   shared Fsops call, and the engine runs each op through Fsops.apply,
   whose ladder counts lock skips and deadline refusals and aborts the
   transaction on either. *)

module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Device = Pagestore.Device
module Client = Remote.Client
module Server = Remote.Server
module Link = Netsim.Link
module Metrics = Obs.Metrics

type config = {
  clients : int; (* sessions, grouped into... *)
  tenants : int; (* ...this many tenants (dirs + latency accounting) *)
  initial_files : int;
  file_bytes : int; (* initial size of each pre-created file *)
  ops_per_level : int;
  calibration_ops : int; (* closed-loop prefix that estimates capacity *)
  load_factors : float list; (* offered = factor × calibrated capacity *)
  zipf_theta : float;
  write_pct : int;
  create_pct : int;
  time_travel_pct : int; (* remainder of 100 is reads *)
  txn_every : int; (* ~1 in N ops opens a transaction; 0 disables *)
  txn_len : int; (* mutations inside each transaction *)
  write_bytes : int; (* max bytes per write *)
  slo_p99_s : float; (* the per-level p99 SLO a knee can trip on *)
  trace : bool;
  deadline_s : float option;
      (* per-op deadline, relative to the op's arrival: propagated to the
         server, which refuses work whose caller gave up.  None (the
         seed behaviour) sends no deadlines and degrades by queueing. *)
}

let default_config =
  {
    clients = 200;
    tenants = 8;
    initial_files = 64;
    file_bytes = 2048;
    ops_per_level = 500;
    calibration_ops = 80;
    load_factors = [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 ];
    zipf_theta = 1.1;
    write_pct = 25;
    create_pct = 10;
    time_travel_pct = 5;
    txn_every = 12;
    txn_len = 3;
    write_bytes = 1024;
    slo_p99_s = 1.0;
    trace = false;
    deadline_s = None;
  }

(* Small enough that a seeded sweep of it rides `dune runtest`. *)
let quick_config =
  {
    default_config with
    clients = 12;
    tenants = 3;
    initial_files = 12;
    file_bytes = 512;
    ops_per_level = 70;
    calibration_ops = 20;
    load_factors = [ 0.5; 1.0; 1.5; 2.0 ];
    write_bytes = 256;
  }

(* ---------- the operation schedule ----------

   Pure function of (config, seed, rate, ops): everything the engine
   will do is drawn here, up front — arrival instants (exponential
   inter-arrivals at [rate]), the session each op lands on, the op
   kind (with per-session transaction grouping), the popularity draw
   (a uniform in [0,1) inverted against the Zipf weights at execution
   time, when the population size is known), and a per-op payload
   seed.  [schedule_render] serializes it byte-for-byte, which is what
   the deterministic-replay test digests. *)

type kind = Read | Write | Create | Time_travel | Begin | Commit

let kind_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Create -> "create"
  | Time_travel -> "tt"
  | Begin -> "begin"
  | Commit -> "commit"

type op = {
  o_idx : int;
  o_client : int;
  o_arrival : float; (* seconds from level start *)
  o_kind : kind;
  o_u : float; (* popularity draw, inverted at execution time *)
  o_seed : int64; (* per-op payload rng seed *)
}

let schedule ~config ~seed ~rate ~ops =
  if rate <= 0. then invalid_arg "Loadtest.schedule: rate must be > 0";
  let rng = Rng.create seed in
  let txn_left = Array.make (max 1 config.clients) 0 in
  (* Sessions mid-transaction get half the traffic so their commits
     arrive within the level instead of the transaction squatting on its
     locks until the level-end abort.  (A client "thinks" about its open
     transaction; it does not go silent for 200 other sessions' turns.) *)
  let open_txns = ref [] in
  let t = ref 0. in
  List.init ops (fun i ->
      let u = Rng.float rng 1.0 in
      t := !t +. (-.log (1. -. u) /. rate);
      let c =
        match !open_txns with
        | [] -> Rng.int rng config.clients
        | opens ->
          if Rng.int rng 2 = 0 then List.nth opens (Rng.int rng (List.length opens))
          else Rng.int rng config.clients
      in
      let kind =
        if txn_left.(c) > 0 then begin
          txn_left.(c) <- txn_left.(c) - 1;
          if txn_left.(c) = 0 then begin
            open_txns := List.filter (fun x -> x <> c) !open_txns;
            Commit
          end
          else if Rng.int rng 100 < 70 then Write
          else Create
        end
        else if config.txn_every > 0 && Rng.int rng config.txn_every = 0 then begin
          (* the transaction's body plus its commit *)
          txn_left.(c) <- config.txn_len + 1;
          open_txns := c :: !open_txns;
          Begin
        end
        else begin
          let r = Rng.int rng 100 in
          if r < config.write_pct then Write
          else if r < config.write_pct + config.create_pct then Create
          else if r < config.write_pct + config.create_pct + config.time_travel_pct
          then Time_travel
          else Read
        end
      in
      {
        o_idx = i;
        o_client = c;
        o_arrival = !t;
        o_kind = kind;
        o_u = Rng.float rng 1.0;
        o_seed = Rng.next rng;
      })

let schedule_render sched =
  let buf = Buffer.create (64 * List.length sched) in
  List.iter
    (fun o ->
      Buffer.add_string buf
        (Printf.sprintf "i=%d c=%d t=%.9f k=%s u=%.9f s=%Ld\n" o.o_idx o.o_client
           o.o_arrival (kind_to_string o.o_kind) o.o_u o.o_seed))
    sched;
  Buffer.contents buf

let schedule_digest ~config ~seed ~rate ~ops =
  Digest.to_hex (Digest.string (schedule_render (schedule ~config ~seed ~rate ~ops)))

(* ---------- results ---------- *)

type level = {
  l_factor : float;
  l_offered_ops_s : float; (* target arrival rate λ *)
  l_offered_realized_ops_s : float; (* ops / realized arrival span *)
  l_achieved_ops_s : float;
      (* completed ops / wall (simulated) time: the rate the server
         actually drained the queue.  Equals realized offered while the
         server keeps up; falls below it past saturation.  Lock skips
         complete too (their latency is real); [l_applied] separates
         goodput. *)
  l_ops : int;
  l_applied : int;
  l_lock_skips : int;
  l_p50_s : float;
  l_p95_s : float;
  l_p99_s : float;
  l_mean_s : float;
  l_max_wait_queue : int; (* lock.wait_queue high-water mark *)
  l_peak_link_depth : int; (* deepest per-link message backlog *)
  l_tenant_p99_s : float array;
  l_shed_deadline : int; (* ops refused because their deadline passed *)
  l_admitted : int; (* ops not shed (includes lock skips) *)
  l_admitted_p99_s : float; (* p99 latency over admitted ops only *)
  l_slo_goodput_ops_s : float;
      (* applied ops that also met the SLO, per second: the protected
         number an overloaded server is supposed to hold near capacity *)
}

type outcome = {
  seed : int64;
  capacity_ops_s : float; (* closed-loop calibration estimate *)
  levels : level list;
  knee_offered_ops_s : float;
  knee_reason : string;
  slo_p99_s : float;
  ops_total : int;
  applied_total : int;
  lock_skips : int;
  commits : int;
  aborts : int;
  time_travel_checks : int;
  full_verifies : int;
  mismatches : string list;
  shed_deadline : int;
}

let level_to_string l =
  Printf.sprintf
    "  x%.2f offered=%.1f/s realized=%.1f/s achieved=%.1f/s ops=%d applied=%d \
     skips=%d shed=%d adm_p99=%.1fms slo_good=%.1f/s p50=%.1fms p95=%.1fms \
     p99=%.1fms wq=%d qd=%d"
    l.l_factor l.l_offered_ops_s l.l_offered_realized_ops_s l.l_achieved_ops_s
    l.l_ops l.l_applied l.l_lock_skips l.l_shed_deadline
    (1e3 *. l.l_admitted_p99_s) l.l_slo_goodput_ops_s (1e3 *. l.l_p50_s)
    (1e3 *. l.l_p95_s) (1e3 *. l.l_p99_s) l.l_max_wait_queue l.l_peak_link_depth

let outcome_to_string o =
  Printf.sprintf
    "seed=%Ld capacity=%.1f/s levels=%d knee=%.1f/s (%s) ops=%d applied=%d \
     skips=%d shed=%d commits=%d aborts=%d tt_checks=%d verifies=%d \
     mismatches=%d\n%s"
    o.seed o.capacity_ops_s (List.length o.levels) o.knee_offered_ops_s
    o.knee_reason o.ops_total o.applied_total o.lock_skips o.shed_deadline
    o.commits o.aborts o.time_travel_checks o.full_verifies
    (List.length o.mismatches)
    (String.concat "\n" (List.map level_to_string o.levels))

(* What a saturation curve must show, however fast the system: enough
   levels to draw it, a positive capacity, achieved throughput within
   what was offered, ordered percentiles, goodput within the ops run,
   and the knee inside the swept range. *)
let curve_failures o =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> fails := msg :: !fails) fmt in
  if List.length o.levels < 4 then
    fail "only %d load levels (need >= 4)" (List.length o.levels);
  if o.capacity_ops_s <= 0. then fail "capacity %.3f not positive" o.capacity_ops_s;
  List.iter
    (fun l ->
      if l.l_achieved_ops_s < 0. then
        fail "x%.2f: achieved %.3f negative" l.l_factor l.l_achieved_ops_s;
      if l.l_achieved_ops_s > l.l_offered_realized_ops_s +. 1e-6 then
        fail "x%.2f: achieved %.3f exceeds offered %.3f" l.l_factor l.l_achieved_ops_s
          l.l_offered_realized_ops_s;
      if not (l.l_p50_s <= l.l_p95_s && l.l_p95_s <= l.l_p99_s) then
        fail "x%.2f: percentiles unordered p50=%g p95=%g p99=%g" l.l_factor l.l_p50_s
          l.l_p95_s l.l_p99_s;
      if l.l_applied > l.l_ops then
        fail "x%.2f: applied %d > ops %d" l.l_factor l.l_applied l.l_ops)
    o.levels;
  let offered = List.map (fun l -> l.l_offered_realized_ops_s) o.levels in
  let lo = List.fold_left min infinity offered in
  let hi = List.fold_left max 0. offered in
  if o.knee_offered_ops_s < lo -. 1e-6 || o.knee_offered_ops_s > hi +. 1e-6 then
    fail "knee %.3f outside swept range [%.3f, %.3f]" o.knee_offered_ops_s lo hi;
  List.rev !fails

(* ---------- the Zipf population ----------

   The committed files in creation order, which is their popularity
   rank: the i-th weighs 1/(i+1)^θ (old files are hot).  Incremental
   cumulative sums support O(1) growth and O(log n) inversion of the
   schedule's pre-drawn uniform.  The oracle names exactly these files,
   so a remembered instant holds a prefix of them. *)

type popn = {
  mutable files : (string * int64) array;
  mutable cums : float array;
  mutable n : int;
  theta : float;
}

let popn_add p (path, oid) =
  if p.n = Array.length p.cums then begin
    p.files <- Array.append p.files (Array.make (max 64 p.n) ("", 0L));
    p.cums <- Array.append p.cums (Array.make (max 64 p.n) 0.)
  end;
  let prev = if p.n = 0 then 0. else p.cums.(p.n - 1) in
  p.cums.(p.n) <- prev +. (1. /. (float_of_int (p.n + 1) ** p.theta));
  p.files.(p.n) <- (path, oid);
  p.n <- p.n + 1

let popn_pick p u =
  if p.n = 0 then None
  else begin
    let target = u *. p.cums.(p.n - 1) in
    let lo = ref 0 and hi = ref (p.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if p.cums.(mid) > target then hi := mid else lo := mid + 1
    done;
    Some p.files.(!lo)
  end

(* ---------- harness state ---------- *)

type state = { cfg : config; w : Fsops.t; clock : Simclock.Clock.t; pop : popn }

let client (ss : Fsops.sess) =
  match ss.conn with Remote.Conn.Remote c -> c | _ -> invalid_arg "Loadtest.client"

let tenant st (ss : Fsops.sess) = ss.id * st.cfg.tenants / st.cfg.clients

(* The files an update creates join the population, oldest (lowest
   oid) first: at the create outside a transaction, at the commit inside
   one. *)
let grow st (u : Oracle.updates) =
  List.filter_map (fun (path, v) -> Option.map (fun oid -> (oid, path)) v) u.u_names
  |> List.sort compare
  |> List.iter (fun (oid, path) -> popn_add st.pop (path, oid))

(* ---------- the ops ----------

   Each picks its file from the Zipf population and draws its payload
   from the op's own seed, then ends in the shared Fsops call; the
   Fsops op runner records what it returns. *)

let pick_file st op = popn_pick st.pop op.o_u

let op_read st op ss =
  match pick_file st op with
  | None -> Oracle.no_updates
  | Some (path, oid) -> Fsops.read_at st.w ss path ~oid

let op_write st op (ss : Fsops.sess) =
  match pick_file st op with
  | None -> Oracle.no_updates
  | Some (path, oid) ->
    let w = st.w in
    let orng = Rng.create op.o_seed in
    let len = Bytes.length (Oracle.view_content w.ora ss.ov oid) in
    let dlen = 1 + Rng.int orng st.cfg.write_bytes in
    let off = Fsops.draw_offset w orng ~len dlen in
    Oracle.trace w.ora "s%d write %s off=%d len=%d" ss.id path off dlen;
    Fsops.write_at w ss path ~oid ~off [ Rng.bytes orng dlen ]

let op_create st (ss : Fsops.sess) =
  let path = Oracle.fresh_name st.w.ora (Printf.sprintf "/t%d/f" (tenant st ss)) in
  let u = Fsops.create_at st.w ss path in
  if not (Oracle.in_txn ss.ov) then grow st u;
  u

let op_time_travel st op (ss : Fsops.sess) =
  let w = st.w in
  match Oracle.history w.ora with
  | [] -> op_read st op ss (* nothing to travel to yet *)
  | history -> (
    let orng = Rng.create op.o_seed in
    let ts, snap, _ = List.nth history (Rng.int orng (List.length history)) in
    if Oracle.SM.is_empty snap then op_read st op ss
    else
      let path, _ = st.pop.files.(Rng.int orng (Oracle.SM.cardinal snap)) in
      let expect = Oracle.SM.find path snap in
      Oracle.trace w.ora "s%d tt @%Ld %s" ss.id ts path;
      w.time_travel_checks <- w.time_travel_checks + 1;
      (match Client.read_whole_file (client ss) ~timestamp:ts path with
      | real -> (
        match Oracle.bytes_diff expect real with
        | None -> ()
        | Some d -> Oracle.mismatch w.ora "time travel @%Ld: %s differs: %s" ts path d)
      | exception Errors.Fs_error (code, msg) when not (Client.deadline_refusal code msg) ->
        Oracle.mismatch w.ora "time travel @%Ld: %s unreadable (%s: %s)" ts path
          (Errors.code_to_string code) msg);
      Oracle.no_updates)

(* The schedule's transaction may have died before its commit came up
   (a conflict or a refusal aborted it, and the rest of its body ran as
   auto-commit ops): then there is nothing to commit. *)
let op_commit st (ss : Fsops.sess) =
  if not (Oracle.in_txn ss.ov) then Oracle.no_updates
  else begin
    let u = Oracle.overlay_updates ss.ov in
    let r = Fsops.commit st.w ss in
    grow st u;
    r
  end

let exec_op st op =
  match op.o_kind with
  | Read -> op_read st op
  | Write -> op_write st op
  | Create -> op_create st
  | Time_travel -> op_time_travel st op
  | Begin -> Fsops.begin_txn st.w
  | Commit -> op_commit st

(* ---------- the engine ---------- *)

(* Execute one schedule against the system, open-loop: if the clock has
   not yet reached an op's arrival the server is idle and time skips
   forward; if it has, the op has been queueing and its latency says so. *)
let run_schedule st ~t_start ~deadline ~headroom ~service ~lat ~adm_lat ~tenant_lat
    ~max_wq sched =
  let w = st.w in
  let applied = ref 0 and slo_ok = ref 0 in
  List.iter
    (fun op ->
      let arrival = t_start +. op.o_arrival in
      let now = Simclock.Clock.now st.clock in
      if now < arrival then
        Simclock.Clock.advance st.clock ~account:"load.idle" (arrival -. now);
      let now = Simclock.Clock.now st.clock in
      let ss = w.sessions.(op.o_client) in
      (* The deadline is the op's, measured from its arrival: by the time
         a backlogged engine gets to it, part of the budget is already
         spent queueing — exactly what the caller experiences.  An op
         whose remaining budget is under [headroom op.o_kind] (the
         expected service time of its kind) is given up before its first
         RPC: under sustained overload the backlog pins at exactly the
         deadline boundary, and without this check nearly every started
         op expires halfway through, burning server time on work nobody
         will see. *)
      let res =
        match deadline with
        | Some d when now -. arrival >= d -. headroom op.o_kind ->
          Fsops.refuse w ss
            (Printf.sprintf "given up after %.0fms queued" (1e3 *. (now -. arrival)))
        | _ ->
          let c = client ss in
          Option.iter (fun d -> Client.set_deadline c (Some (arrival +. d))) deadline;
          let r = Fsops.apply w ss (exec_op st op) in
          Client.set_deadline c None;
          r
      in
      let done_t = Simclock.Clock.now st.clock in
      if res <> Fsops.Refused then service op.o_kind (done_t -. now);
      let d = done_t -. arrival in
      Metrics.observe lat d;
      Metrics.observe tenant_lat.(tenant st ss) d;
      (match res with
      | Fsops.Applied ->
        incr applied;
        Metrics.observe adm_lat d;
        if d <= st.cfg.slo_p99_s then incr slo_ok
      | Fsops.Skipped -> Metrics.observe adm_lat d
      | Fsops.Refused -> ());
      match Metrics.read "lock.wait_queue" with
      | Some wq when wq > !max_wq -> max_wq := wq
      | _ -> ())
    sched;
  (* Settle: any transaction the schedule left open aborts untimed, so
     the next level starts from committed state only. *)
  Array.iter (Fsops.safe_abort w) w.sessions;
  (!applied, !slo_ok)

let run ?(config = default_config) ~seed () =
  if config.clients < 1 then invalid_arg "Loadtest.run: clients must be >= 1";
  if config.tenants < 1 || config.tenants > config.clients then
    invalid_arg "Loadtest.run: tenants must be in [1, clients]";
  let rng = Rng.create seed in
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Device.Magnetic_disk ()
  in
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  (* lease_s = 0: no lease reaping.  Sessions here never die, and a
     backlogged level must not have idle-looking clients reaped out from
     under the measurement. *)
  let server = Server.create ~fs ~lease_s:0. () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let links = Array.init config.clients (fun _ -> Link.create net) in
  let connect id =
    Remote.Conn.Remote (Client.connect ~server ~link:links.(id) ~rng:(Rng.split rng) ())
  in
  (* Every draw is the schedule's or an op's own: the workload's rng is
     never drawn from, and is not split from [rng], whose draws are the
     level seeds. *)
  let w =
    Fsops.create ~rng:(Rng.create seed) ~ora:(Oracle.create ~trace:config.trace ~depth:4)
      ~max_dirs:config.tenants ~max_file_bytes:(16 * 1024) fs
      (Array.init config.clients connect)
  in
  let st =
    {
      cfg = config;
      w;
      clock;
      pop = { files = [||]; cums = [||]; n = 0; theta = config.zipf_theta };
    }
  in
  (* Tenant directories, then the seed population (written through the
     wire so client and server agree on every byte). *)
  for t = 0 to config.tenants - 1 do
    let dir = Printf.sprintf "/t%d" t in
    Client.c_mkdir (client w.sessions.(0)) dir;
    Oracle.commit w.ora { Oracle.no_updates with u_dirs = [ dir ] }
  done;
  for i = 0 to config.initial_files - 1 do
    let ss = w.sessions.(i mod config.clients) in
    let path = Oracle.fresh_name w.ora (Printf.sprintf "/t%d/f" (tenant st ss)) in
    let oid = Oracle.fresh_oid w.ora in
    let data = Rng.bytes rng config.file_bytes in
    Client.write_file (client ss) path data;
    let u = { Oracle.no_updates with u_names = [ (path, Some oid) ]; u_files = [ (oid, data) ] } in
    grow st u;
    Oracle.commit w.ora u
  done;
  let lat = Metrics.histogram "load.latency_us" in
  let adm_lat = Metrics.histogram "load.admitted_latency_us" in
  let tenant_lat =
    Array.init config.tenants (fun t ->
        Metrics.histogram (Printf.sprintf "load.tenant%d.latency_us" t))
  in
  let reset_phase () =
    Metrics.hist_reset lat;
    Metrics.hist_reset adm_lat;
    Array.iter Metrics.hist_reset tenant_lat;
    Array.iter Link.reset_peak_depth links
  in
  (* Calibration: a closed-loop prefix (arrivals effectively at t=0, so
     every op starts the moment the previous finishes) measures the
     service capacity the sweep's levels are multiples of. *)
  let cal_seed = Rng.next rng in
  reset_phase ();
  let cal_sched =
    schedule ~config ~seed:cal_seed ~rate:1e12 ~ops:config.calibration_ops
  in
  let cal_t0 = Simclock.Clock.now clock in
  let max_wq = ref 0 in
  (* Service time per op kind: a read is one round trip, a write several
     plus a commit, so the give-up rule below judges each op by what its
     own kind costs, not by the mean over the mix. *)
  let svc = Hashtbl.create 8 in
  let note_service kind dt =
    let sum, n = Option.value ~default:(0., 0) (Hashtbl.find_opt svc kind) in
    Hashtbl.replace svc kind (sum +. dt, n + 1)
  in
  (* Calibration runs deadline-free: it measures what the service path
     can do, not what deadline refusals would let through. *)
  let (_ : int * int) =
    run_schedule st ~t_start:cal_t0 ~deadline:None
      ~headroom:(fun _ -> 0.)
      ~service:note_service ~lat ~adm_lat ~tenant_lat ~max_wq cal_sched
  in
  let cal_dt = Simclock.Clock.now clock -. cal_t0 in
  let capacity =
    if cal_dt <= 0. then 1.
    else float_of_int config.calibration_ops /. cal_dt
  in
  Oracle.trace w.ora "calibration: %d ops in %.3fs -> capacity %.1f ops/s"
    config.calibration_ops cal_dt capacity;
  let headroom kind =
    match Hashtbl.find_opt svc kind with
    | Some (sum, n) -> 1.5 *. sum /. float_of_int n
    | None -> 1.5 /. capacity (* a kind the calibration never ran *)
  in
  (* The sweep. *)
  let ops_total = ref config.calibration_ops and applied_total = ref 0 in
  let levels =
    List.map
      (fun factor ->
        let rate = factor *. capacity in
        let level_seed = Rng.next rng in
        Oracle.remember_now w.ora db;
        reset_phase ();
        let sched = schedule ~config ~seed:level_seed ~rate ~ops:config.ops_per_level in
        let t_start = Simclock.Clock.now clock in
        let max_wq = ref 0 in
        let skips0 = w.lock_skips in
        let sd0 = w.deadline_refusals in
        let applied, slo_ok =
          run_schedule st ~t_start ~deadline:config.deadline_s ~headroom
            ~service:(fun _ _ -> ())
            ~lat ~adm_lat ~tenant_lat ~max_wq sched
        in
        let t_end = Simclock.Clock.now clock in
        let last_arrival =
          List.fold_left (fun acc o -> max acc o.o_arrival) 0. sched
        in
        let arrival_span = max 1e-9 last_arrival in
        let duration = max arrival_span (t_end -. t_start) in
        let n = List.length sched in
        ops_total := !ops_total + n;
        applied_total := !applied_total + applied;
        Oracle.verify w.ora (Fs.new_session fs) ~phase:"post-level";
        {
          l_factor = factor;
          l_offered_ops_s = rate;
          l_offered_realized_ops_s = float_of_int n /. arrival_span;
          l_achieved_ops_s = float_of_int n /. duration;
          l_ops = n;
          l_applied = applied;
          l_lock_skips = w.lock_skips - skips0;
          l_p50_s = Metrics.percentile lat 0.50;
          l_p95_s = Metrics.percentile lat 0.95;
          l_p99_s = Metrics.percentile lat 0.99;
          l_mean_s =
            (if Metrics.hist_count lat = 0 then 0.
             else Metrics.hist_sum lat /. float_of_int (Metrics.hist_count lat));
          l_max_wait_queue = !max_wq;
          l_peak_link_depth =
            Array.fold_left (fun acc l -> max acc (Link.peak_depth l)) 0 links;
          l_tenant_p99_s = Array.map (fun h -> Metrics.percentile h 0.99) tenant_lat;
          l_shed_deadline = w.deadline_refusals - sd0;
          l_admitted = n - (w.deadline_refusals - sd0);
          l_admitted_p99_s = Metrics.percentile adm_lat 0.99;
          l_slo_goodput_ops_s = float_of_int slo_ok /. duration;
        })
      config.load_factors
  in
  Oracle.verify w.ora (Fs.new_session fs) ~phase:"final";
  (* nothing here drops a message or crashes the server, so a session
     lost anyway is a finding, not an outcome to resolve *)
  let lost = Array.fold_left (fun a ss -> a + Client.sessions_lost (client ss)) 0 w.sessions in
  if lost > 0 then Oracle.mismatch w.ora "%d sessions lost without a fault" lost;
  (* Knee: the first level that can no longer keep up with what is
     offered (achieved < 90% of realized offered) or that blows the p99
     SLO; if neither fires, the curve never bent in the swept range. *)
  let knee_offered, knee_reason =
    let rec find = function
      | [] -> (
        match List.rev levels with
        | last :: _ -> (last.l_offered_realized_ops_s, "no knee within swept range")
        | [] -> (0., "no levels swept"))
      | l :: rest ->
        if l.l_achieved_ops_s < 0.9 *. l.l_offered_realized_ops_s then
          (l.l_offered_realized_ops_s, Printf.sprintf "throughput saturated at x%.2f" l.l_factor)
        else if l.l_p99_s > config.slo_p99_s then
          (l.l_offered_realized_ops_s, Printf.sprintf "p99 SLO exceeded at x%.2f" l.l_factor)
        else find rest
    in
    find levels
  in
  {
    seed;
    capacity_ops_s = capacity;
    levels;
    knee_offered_ops_s = knee_offered;
    knee_reason;
    slo_p99_s = config.slo_p99_s;
    ops_total = !ops_total;
    applied_total = !applied_total;
    lock_skips = w.lock_skips;
    commits = w.commits;
    aborts = w.aborts;
    time_travel_checks = w.time_travel_checks;
    full_verifies = Oracle.verifies w.ora;
    mismatches = Oracle.mismatches w.ora;
    shed_deadline = w.deadline_refusals;
  }
