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
   always inside the swept range.  Correctness rides along: a
   Nettest-style oid-keyed oracle shadows every mutation (per-session
   overlays for open transactions), reads are checked against it
   mid-flight, snapshots feed time-travel checks, and a full-tree walk
   closes the run. *)

module OM = Map.Make (Int64)
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
  max_file_bytes : int;
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
  verify_each_level : bool; (* full-tree walk after every level *)
  trace : bool;
  deadline_s : float option;
      (* per-op deadline, relative to the op's arrival: propagated to the
         server, which refuses work whose caller gave up.  None (the
         seed behaviour) sends no deadlines and degrades by queueing. *)
  lock_wait_s : float; (* server: how long parked requests may wait *)
  run_cap : int; (* server: run-queue + parked bound *)
  park_cap : int; (* server: parked-request bound *)
}

let default_config =
  {
    clients = 200;
    tenants = 8;
    initial_files = 64;
    file_bytes = 2048;
    max_file_bytes = 16 * 1024;
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
    verify_each_level = true;
    trace = false;
    deadline_s = None;
    lock_wait_s = 0.;
    run_cap = 256;
    park_cap = 64;
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
  l_shed_overload : int; (* ops refused by admission control (EBUSY) *)
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
  shed_overload : int;
}

let level_to_string l =
  Printf.sprintf
    "  x%.2f offered=%.1f/s realized=%.1f/s achieved=%.1f/s ops=%d applied=%d \
     skips=%d shed=%d+%d adm_p99=%.1fms slo_good=%.1f/s p50=%.1fms p95=%.1fms \
     p99=%.1fms wq=%d qd=%d"
    l.l_factor l.l_offered_ops_s l.l_offered_realized_ops_s l.l_achieved_ops_s
    l.l_ops l.l_applied l.l_lock_skips l.l_shed_deadline l.l_shed_overload
    (1e3 *. l.l_admitted_p99_s) l.l_slo_goodput_ops_s (1e3 *. l.l_p50_s)
    (1e3 *. l.l_p95_s) (1e3 *. l.l_p99_s) l.l_max_wait_queue l.l_peak_link_depth

let outcome_to_string o =
  Printf.sprintf
    "seed=%Ld capacity=%.1f/s levels=%d knee=%.1f/s (%s) ops=%d applied=%d \
     skips=%d shed=%d+%d commits=%d aborts=%d tt_checks=%d verifies=%d \
     mismatches=%d\n%s"
    o.seed o.capacity_ops_s (List.length o.levels) o.knee_offered_ops_s
    o.knee_reason o.ops_total o.applied_total o.lock_skips o.shed_deadline
    o.shed_overload o.commits o.aborts o.time_travel_checks o.full_verifies
    (List.length o.mismatches)
    (String.concat "\n" (List.map level_to_string o.levels))

(* ---------- Zipf popularity over a growing population ----------

   Weight of the i-th created file is 1/(i+1)^θ: incremental cumulative
   sums support O(1) growth on create and O(log n) inversion of the
   schedule's pre-drawn uniform. *)

type zipf = { mutable cums : float array; mutable n : int; theta : float }

let zipf_create theta = { cums = Array.make 64 0.; n = 0; theta }

let zipf_add z =
  if z.n = Array.length z.cums then begin
    let bigger = Array.make (2 * z.n) 0. in
    Array.blit z.cums 0 bigger 0 z.n;
    z.cums <- bigger
  end;
  let prev = if z.n = 0 then 0. else z.cums.(z.n - 1) in
  z.cums.(z.n) <- prev +. (1. /. (float_of_int (z.n + 1) ** z.theta));
  z.n <- z.n + 1

let zipf_pick z u =
  if z.n = 0 then invalid_arg "Loadtest.zipf_pick: empty population";
  let target = u *. z.cums.(z.n - 1) in
  let lo = ref 0 and hi = ref (z.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cums.(mid) > target then hi := mid else lo := mid + 1
  done;
  !lo

(* ---------- oracle + harness state ---------- *)

type csess = {
  id : int;
  tenant : int;
  c : Client.t;
  mutable in_txn : bool;
  mutable ov_names : (string * int64) list; (* creates not yet committed *)
  mutable ov_files : bytes OM.t; (* oid -> content written in this txn *)
}

type popn = { mutable entries : (string * int64) array; mutable count : int }

let popn_add p path oid =
  if p.count = Array.length p.entries then begin
    let bigger = Array.make (max 64 (2 * p.count)) ("", 0L) in
    Array.blit p.entries 0 bigger 0 p.count;
    p.entries <- bigger
  end;
  p.entries.(p.count) <- (path, oid);
  p.count <- p.count + 1

type state = {
  cfg : config;
  db : Relstore.Db.t;
  fs : Fs.t;
  clock : Simclock.Clock.t;
  clients : csess array;
  zipf : zipf;
  pop : popn; (* committed files, creation order = zipf rank *)
  mutable files : bytes OM.t; (* oid -> committed contents *)
  mutable history : (int64 * (string * bytes) list) list; (* newest first *)
  mutable next_name : int;
  mutable next_oid : int64;
  mutable commits : int;
  mutable aborts : int;
  mutable lock_skips : int;
  mutable shed_deadline : int;
  mutable shed_overload : int;
  mutable time_travel_checks : int;
  mutable full_verifies : int;
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

let view_content st cs oid =
  match OM.find_opt oid cs.ov_files with
  | Some b -> b
  | None -> Option.value ~default:Bytes.empty (OM.find_opt oid st.files)

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

let splice cur ~off data =
  let len = Bytes.length cur and dlen = Bytes.length data in
  let out = Bytes.make (max len (off + dlen)) '\000' in
  Bytes.blit cur 0 out 0 len;
  Bytes.blit data 0 out off dlen;
  out

let clear_overlay cs =
  cs.in_txn <- false;
  cs.ov_names <- [];
  cs.ov_files <- OM.empty

let commit_overlay st cs =
  List.iter
    (fun (path, oid) ->
      popn_add st.pop path oid;
      zipf_add st.zipf)
    (List.rev cs.ov_names);
  OM.iter (fun oid b -> st.files <- OM.add oid b st.files) cs.ov_files;
  clear_overlay cs

(* Abandon the session's open transaction (if any) and its overlay.
   [c_abort] is deadline-exempt on the client and never shed by the
   server, so cleanup always lands. *)
let drop_txn st cs =
  if cs.in_txn then begin
    (try Client.c_abort cs.c with _ -> ());
    st.aborts <- st.aborts + 1
  end;
  clear_overlay cs

(* A conflicting two-phase lock is not a failure, it is the measurement:
   the op aborts cleanly, the oracle applies nothing. *)
let lock_skip st cs =
  st.lock_skips <- st.lock_skips + 1;
  drop_txn st cs

(* Deadline failures — the client's fail-fast and the server's recorded
   rejection — both say "deadline ..."; lock-wait expiries say "lock wait
   timed out ...".  Same [ETIMEDOUT], different stories. *)
let is_deadline_msg msg = String.length msg >= 8 && String.sub msg 0 8 = "deadline"

(* Clean overload refusals, classified by [run_op] — ops that catch
   [Fs_error] themselves must let these through. *)
let is_shed_exn = function
  | Errors.Fs_error (Errors.ETIMEDOUT, msg) -> is_deadline_msg msg
  | Errors.Fs_error (Errors.EBUSY, _) -> true
  | _ -> false

(* ---------- the ops ---------- *)

let pick_file st op =
  if st.pop.count = 0 then None
  else Some st.pop.entries.(zipf_pick st.zipf op.o_u)

let exec_read st cs op =
  match pick_file st op with
  | None -> ()
  | Some (path, oid) -> (
    trace st "s%d read %s" cs.id path;
    let expect = view_content st cs oid in
    let real = Client.read_whole_file cs.c path in
    match bytes_diff expect real with
    | None -> ()
    | Some d -> mismatch st "read %s diverged: %s" path d)

let exec_write st cs op =
  match pick_file st op with
  | None -> ()
  | Some (path, oid) ->
    let orng = Rng.create op.o_seed in
    let cur = view_content st cs oid in
    let len = Bytes.length cur in
    let dlen = 1 + Rng.int orng st.cfg.write_bytes in
    let off =
      if len + dlen > st.cfg.max_file_bytes then Rng.int orng (max 1 (len - dlen + 1))
      else Rng.int orng (len + 1)
    in
    trace st "s%d write %s off=%d len=%d" cs.id path off dlen;
    let data = Rng.bytes orng dlen in
    let after = splice cur ~off data in
    let fd = Client.c_open cs.c path Fs.Rdwr in
    ignore (Client.c_lseek cs.c fd (Int64.of_int off) Fs.Seek_set : int64);
    ignore (Client.c_write cs.c fd data dlen : int);
    (* The write RPC is the oracle's commit point: outside a transaction
       it auto-committed durably right there, and inside one the overlay
       dies with the transaction if anything later aborts.  Updating
       after the close would let a deadline-shed close strand a committed
       write outside the oracle. *)
    if cs.in_txn then cs.ov_files <- OM.add oid after cs.ov_files
    else st.files <- OM.add oid after st.files;
    Client.c_close cs.c fd

let exec_create st cs _op =
  let n = st.next_name in
  st.next_name <- n + 1;
  let path = Printf.sprintf "/t%d/f%d" cs.tenant n in
  let oid = st.next_oid in
  st.next_oid <- Int64.add oid 1L;
  trace st "s%d creat %s" cs.id path;
  let fd = Client.c_creat cs.c path in
  (* As with writes, the create RPC — not the close — is the oracle's
     commit point. *)
  if cs.in_txn then begin
    cs.ov_names <- (path, oid) :: cs.ov_names;
    cs.ov_files <- OM.add oid Bytes.empty cs.ov_files
  end
  else begin
    popn_add st.pop path oid;
    zipf_add st.zipf;
    st.files <- OM.add oid Bytes.empty st.files
  end;
  Client.c_close cs.c fd

let exec_time_travel st cs op =
  match st.history with
  | [] -> exec_read st cs op (* nothing to travel to yet *)
  | history -> (
    let orng = Rng.create op.o_seed in
    let ts, snap = List.nth history (Rng.int orng (List.length history)) in
    match snap with
    | [] -> exec_read st cs op
    | snap -> (
      let path, expect = List.nth snap (Rng.int orng (List.length snap)) in
      trace st "s%d tt @%Ld %s" cs.id ts path;
      st.time_travel_checks <- st.time_travel_checks + 1;
      match Client.read_whole_file cs.c ~timestamp:ts path with
      | real -> (
        match bytes_diff expect real with
        | None -> ()
        | Some d -> mismatch st "time travel @%Ld: %s differs: %s" ts path d)
      | exception (Errors.Fs_error _ as e) when is_shed_exn e -> raise e
      | exception Errors.Fs_error (code, msg) ->
        mismatch st "time travel @%Ld: %s unreadable (%s: %s)" ts path
          (Errors.code_to_string code) msg))

let exec_begin st cs =
  trace st "s%d begin" cs.id;
  if not cs.in_txn then begin
    Client.c_begin cs.c;
    cs.in_txn <- true
  end

let exec_commit st cs =
  trace st "s%d commit" cs.id;
  if cs.in_txn then begin
    Client.c_commit cs.c;
    st.commits <- st.commits + 1;
    commit_overlay st cs
  end

let exec_op st cs op =
  match op.o_kind with
  | Read -> exec_read st cs op
  | Write -> exec_write st cs op
  | Create -> exec_create st cs op
  | Time_travel -> exec_time_travel st cs op
  | Begin -> exec_begin st cs
  | Commit -> exec_commit st cs

let run_op st op =
  let cs = st.clients.(op.o_client) in
  match exec_op st cs op with
  | () -> `Applied
  | exception Errors.Fs_error (Errors.ETIMEDOUT, msg) when is_deadline_msg msg ->
    trace st "s%d .. deadline shed" cs.id;
    st.shed_deadline <- st.shed_deadline + 1;
    drop_txn st cs;
    `Shed
  | exception Errors.Fs_error (Errors.EBUSY, _) ->
    trace st "s%d .. overload shed" cs.id;
    st.shed_overload <- st.shed_overload + 1;
    drop_txn st cs;
    `Shed
  | exception
      Errors.Fs_error ((Errors.EAGAIN | Errors.EDEADLK | Errors.ETIMEDOUT), _) ->
    trace st "s%d .. lock skip" cs.id;
    lock_skip st cs;
    `Skipped
  | exception Errors.Fs_error (code, msg) ->
    mismatch st "unexpected fs error %s: %s" (Errors.code_to_string code) msg;
    lock_skip st cs;
    `Skipped

(* ---------- snapshots, verification ---------- *)

let take_snapshot st =
  let ts = Relstore.Db.now st.db in
  let snap = ref [] in
  for i = st.pop.count - 1 downto 0 do
    let path, oid = st.pop.entries.(i) in
    snap :=
      (path, Bytes.copy (Option.value ~default:Bytes.empty (OM.find_opt oid st.files)))
      :: !snap
  done;
  st.history <- (ts, !snap) :: st.history;
  (let rec cap n = function
     | [] -> []
     | _ when n = 0 -> []
     | x :: tl -> x :: cap (n - 1) tl
   in
   st.history <- cap 4 st.history);
  (* Move past the snapshot instant: As_of visibility uses <=, so no
     later commit may share its timestamp. *)
  Simclock.Clock.advance st.clock ~account:"load.mark" 1e-6

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

let verify_full_state st ~phase =
  st.full_verifies <- st.full_verifies + 1;
  let s = Fs.new_session st.fs in
  let real = Hashtbl.create 256 in
  let rec go dir =
    List.iter
      (fun name ->
        let path = join dir name in
        let att = Fs.stat s path in
        if att.Invfs.Fileatt.ftype = "directory" then go path
        else Hashtbl.replace real path (Fs.read_whole_file s path))
      (Fs.readdir s dir)
  in
  go "/";
  for i = 0 to st.pop.count - 1 do
    let path, oid = st.pop.entries.(i) in
    let expect = Option.value ~default:Bytes.empty (OM.find_opt oid st.files) in
    match Hashtbl.find_opt real path with
    | None -> mismatch st "%s: %s missing from real fs" phase path
    | Some r -> (
      Hashtbl.remove real path;
      match bytes_diff expect r with
      | None -> ()
      | Some d -> mismatch st "%s: %s content differs: %s" phase path d)
  done;
  Hashtbl.iter
    (fun path _ -> mismatch st "%s: real fs has unexpected file %s" phase path)
    real

(* ---------- the engine ---------- *)

(* Execute one schedule against the system, open-loop: if the clock has
   not yet reached an op's arrival the server is idle and time skips
   forward; if it has, the op has been queueing and its latency says so. *)
let run_schedule st ~t_start ~deadline ~headroom ~service ~lat ~adm_lat ~tenant_lat
    ~max_wq sched =
  let applied = ref 0 and slo_ok = ref 0 in
  List.iter
    (fun op ->
      let arrival = t_start +. op.o_arrival in
      let now = Simclock.Clock.now st.clock in
      if now < arrival then
        Simclock.Clock.advance st.clock ~account:"load.idle" (arrival -. now);
      let now = Simclock.Clock.now st.clock in
      let cs = st.clients.(op.o_client) in
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
          trace st "s%d .. deadline give-up (%.0fms queued)" cs.id
            (1e3 *. (now -. arrival));
          st.shed_deadline <- st.shed_deadline + 1;
          drop_txn st cs;
          `Shed
        | _ ->
          (match deadline with
          | None -> ()
          | Some d -> Client.set_deadline cs.c (Some (arrival +. d)));
          let r = run_op st op in
          Client.set_deadline cs.c None;
          r
      in
      let done_t = Simclock.Clock.now st.clock in
      if res <> `Shed then service op.o_kind (done_t -. now);
      let d = done_t -. arrival in
      Metrics.observe lat d;
      Metrics.observe tenant_lat.(cs.tenant) d;
      (match res with
      | `Applied ->
        incr applied;
        Metrics.observe adm_lat d;
        if d <= st.cfg.slo_p99_s then incr slo_ok
      | `Skipped -> Metrics.observe adm_lat d
      | `Shed -> ());
      match Metrics.read "lock.wait_queue" with
      | Some wq when wq > !max_wq -> max_wq := wq
      | _ -> ())
    sched;
  (* Settle: any transaction the schedule left open aborts untimed, so
     the next level starts from committed state only. *)
  Array.iter
    (fun cs ->
      if cs.in_txn then begin
        (try Client.c_abort cs.c with _ -> ());
        st.aborts <- st.aborts + 1;
        clear_overlay cs
      end)
    st.clients;
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
  let server =
    Server.create ~fs ~lease_s:0. ~run_cap:config.run_cap
      ~park_cap:config.park_cap ~lock_wait_s:config.lock_wait_s ()
  in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let links = Array.init config.clients (fun _ -> Link.create net) in
  let mk_client id =
    {
      id;
      tenant = id * config.tenants / config.clients;
      c = Client.connect ~server ~link:links.(id) ~rng:(Rng.split rng) ();
      in_txn = false;
      ov_names = [];
      ov_files = OM.empty;
    }
  in
  let st =
    {
      cfg = config;
      db;
      fs;
      clock;
      clients = Array.init config.clients mk_client;
      zipf = zipf_create config.zipf_theta;
      pop = { entries = Array.make 64 ("", 0L); count = 0 };
      files = OM.empty;
      history = [];
      next_name = 0;
      next_oid = 1L;
      commits = 0;
      aborts = 0;
      lock_skips = 0;
      shed_deadline = 0;
      shed_overload = 0;
      time_travel_checks = 0;
      full_verifies = 0;
      mismatches = [];
    }
  in
  (* Tenant directories, then the seed population (written through the
     wire so client and server agree on every byte). *)
  for t = 0 to config.tenants - 1 do
    Client.c_mkdir st.clients.(0).c (Printf.sprintf "/t%d" t)
  done;
  for i = 0 to config.initial_files - 1 do
    let cs = st.clients.(i mod config.clients) in
    let n = st.next_name in
    st.next_name <- n + 1;
    let path = Printf.sprintf "/t%d/f%d" cs.tenant n in
    let oid = st.next_oid in
    st.next_oid <- Int64.add oid 1L;
    let data = Rng.bytes rng config.file_bytes in
    Client.write_file cs.c path data;
    popn_add st.pop path oid;
    zipf_add st.zipf;
    st.files <- OM.add oid data st.files
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
     can do, not what admission control would let through. *)
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
  trace st "calibration: %d ops in %.3fs -> capacity %.1f ops/s"
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
        take_snapshot st;
        reset_phase ();
        let sched = schedule ~config ~seed:level_seed ~rate ~ops:config.ops_per_level in
        let t_start = Simclock.Clock.now clock in
        let max_wq = ref 0 in
        let skips0 = st.lock_skips in
        let sd0 = st.shed_deadline and so0 = st.shed_overload in
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
        if config.verify_each_level then verify_full_state st ~phase:"post-level";
        {
          l_factor = factor;
          l_offered_ops_s = rate;
          l_offered_realized_ops_s = float_of_int n /. arrival_span;
          l_achieved_ops_s = float_of_int n /. duration;
          l_ops = n;
          l_applied = applied;
          l_lock_skips = st.lock_skips - skips0;
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
          l_shed_deadline = st.shed_deadline - sd0;
          l_shed_overload = st.shed_overload - so0;
          l_admitted = n - (st.shed_deadline - sd0) - (st.shed_overload - so0);
          l_admitted_p99_s = Metrics.percentile adm_lat 0.99;
          l_slo_goodput_ops_s = float_of_int slo_ok /. duration;
        })
      config.load_factors
  in
  verify_full_state st ~phase:"final";
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
    lock_skips = st.lock_skips;
    commits = st.commits;
    aborts = st.aborts;
    time_travel_checks = st.time_travel_checks;
    full_verifies = st.full_verifies;
    mismatches = List.rev st.mismatches;
    shed_deadline = st.shed_deadline;
    shed_overload = st.shed_overload;
  }
