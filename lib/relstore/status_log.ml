type state = In_progress | Committed of int64 | Aborted

type t = {
  clock : Simclock.Clock.t;
  table : (Xid.t, state) Hashtbl.t;
  mutable next_xid : Xid.t;
  mutable pending_force : int;
  mutable oldest_pending : float;
  (* Begin timestamps of in-progress transactions, µs.  The vacuum safe
     horizon must not pass the oldest active begin time; entries are
     dropped when the transaction settles. *)
  begin_times : (Xid.t, int64) Hashtbl.t;
}

(* Commit forces two tiny writes: the status (pg_log-style) page, and the
   commit-time record that makes time travel exact.  Each pays a short
   seek to the log area plus half a rotation on an RZ58-class disk. *)
let commit_force_cost = 2. *. (0.0007 +. 0.002 +. (60. /. 5400. /. 2.))

(* The commit group: a force covers up to [group_size] logged commits,
   and a partial batch waits at most [max_age_s] of simulated time.  The
   age bound must comfortably exceed the time a batch takes to fill, or
   the server pump's age trigger forces after every operation and the
   batch never forms: a client/server chunk write is ~50 ms of simulated
   time, so a batch of 8 fills in ~0.4 s.  It costs nothing in
   durability — the status area is NVRAM-backed, so a commit is stable
   the moment its entry is logged. *)
let group_size = 8
let max_age_s = 1.0

let m_durable = Obs.Metrics.counter "log.commit.durable"

(* Group sizes are counts, not latencies; we feed them to the log-2
   µs histogram as n µs so hist_sum × 1e6 recovers the total number of
   durable commits and hist_count the number of stable flushes.  The
   bench smoke check asserts flushes × mean group size = commits. *)
let h_group = Obs.Metrics.histogram "txn.commit.group_size"

let create ~clock =
  {
    clock;
    table = Hashtbl.create 256;
    next_xid = 1;
    pending_force = 0;
    oldest_pending = 0.;
    begin_times = Hashtbl.create 64;
  }

let pending_force t = t.pending_force

let begin_txn t =
  let xid = t.next_xid in
  t.next_xid <- xid + 1;
  Hashtbl.replace t.table xid In_progress;
  Hashtbl.replace t.begin_times xid (Simclock.Clock.timestamp t.clock);
  xid

let state t xid =
  match Hashtbl.find_opt t.table xid with
  | Some s -> s
  | None -> raise Not_found

let charge_force t = Simclock.Clock.advance t.clock ~account:"xlog.commit" commit_force_cost

let commit ?(force = true) t xid =
  match state t xid with
  | In_progress ->
    let ts = Simclock.Clock.timestamp t.clock in
    Hashtbl.replace t.table xid (Committed ts);
    Hashtbl.remove t.begin_times xid;
    if force then begin
      if t.pending_force = 0 then t.oldest_pending <- Simclock.Clock.now t.clock;
      t.pending_force <- t.pending_force + 1
    end;
    Simclock.Clock.tick t.clock "txn.commit";
    ts
  | Committed _ | Aborted ->
    invalid_arg (Printf.sprintf "Status_log.commit: xid %d not in progress" xid)

let force_pending t =
  let n = t.pending_force in
  if n > 0 then begin
    charge_force t;
    Obs.Metrics.incr ~by:n m_durable;
    Obs.Metrics.observe h_group (float_of_int n *. 1e-6);
    t.pending_force <- 0
  end;
  n

let age_due t =
  t.pending_force > 0 && Simclock.Clock.now t.clock -. t.oldest_pending >= max_age_s

let abort t xid =
  match state t xid with
  | In_progress | Aborted ->
    Hashtbl.replace t.table xid Aborted;
    Hashtbl.remove t.begin_times xid;
    Simclock.Clock.tick t.clock "txn.abort"
  | Committed _ ->
    invalid_arg (Printf.sprintf "Status_log.abort: xid %d already committed" xid)

(* [Hashtbl.find], not [find_opt]: a scan asks these of every record it
   passes, and the option would be its one allocation per record. *)
let is_committed t xid =
  match Hashtbl.find t.table xid with
  | Committed _ -> true
  | In_progress | Aborted | (exception Not_found) -> false

let commit_time t xid =
  match Hashtbl.find_opt t.table xid with Some (Committed ts) -> Some ts | _ -> None

let committed_before t xid horizon =
  match Hashtbl.find t.table xid with
  | Committed ts -> ts <= horizon
  | In_progress | Aborted | (exception Not_found) -> false

let active t =
  Hashtbl.fold (fun xid s acc -> if s = In_progress then xid :: acc else acc) t.table []
  |> List.sort Xid.compare

let oldest_active_start t =
  Hashtbl.fold
    (fun _ ts acc ->
      match acc with Some best when best <= ts -> acc | _ -> Some ts)
    t.begin_times None

let crash_recover t =
  List.iter (fun xid -> Hashtbl.replace t.table xid Aborted) (active t);
  Hashtbl.reset t.begin_times;
  (* [next_xid] is a volatile counter; rebuild it from the durable status
     table so a post-recovery transaction can never reuse a logged xid.
     Every begun transaction has a status entry, so the table's maximum is
     the high-water mark. *)
  let high = Hashtbl.fold (fun xid _ acc -> max acc xid) t.table 0 in
  t.next_xid <- max t.next_xid (high + 1);
  (* The status area is NVRAM-backed: enqueued-but-unforced entries are
     already stable, so nothing is pending after a crash — the batch
     force is purely an I/O-cost event, not a durability boundary. *)
  t.pending_force <- 0
