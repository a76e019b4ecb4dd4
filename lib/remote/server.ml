module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Link = Netsim.Link

type sess = {
  sid : int64;
  fsess : Fs.session;
  link : Link.t;
  mutable last_active : float;
  mutable max_rid : int64; (* highest request id executed *)
  mutable window : (int64 * string list) list; (* rid -> recorded reply frames *)
  inflight : (int64, unit) Hashtbl.t;
      (* rids admitted (queued or parked) but not yet answered: a
         retransmission of one is dropped, not enqueued twice *)
}

(* One admitted request: the unit of work on the run queue.  Parking
   turns it into the session's continuation — the request re-executes
   from scratch when the blocking lock is released, which is safe
   exactly for the restartable class ([parkable] below). *)
type task = {
  tk_link : Link.t;
  tk_sid : int64;
  tk_rid : int64;
  tk_req : Wire.req;
  tk_deadline : float; (* absolute seconds; infinity = none *)
  tk_enq : float;
  mutable tk_park_deadline : float; (* lock-wait timer, set when parked *)
  mutable tk_park_gen : int; (* lock release generation at last attempt *)
  mutable tk_blocked_on : string; (* what the last attempt blocked on *)
}

(* ---------------- cluster roles ---------------- *)

(* A shard's view of the placement map, learned from heartbeat replies.
   All of it is volatile: a crashed shard comes back with [sh_epoch = 0]
   and no lease, refusing every data op until the next heartbeat reply
   re-arms it — the conservative default that can never split-brain. *)
type shard_role = {
  shard_id : int;
  nbuckets : int;
  mutable sh_epoch : int; (* last learned placement epoch; 0 = unknown *)
  mutable sh_owner : int array; (* bucket -> owning shard id at sh_epoch *)
  mutable sh_handoff : int list; (* buckets mid-migration at sh_epoch *)
  mutable sh_lease_until : float; (* serving lease; self-fence past this *)
  mutable sh_stale_rejects : int; (* fenced data ops (the no-split-brain count) *)
}

(* The coordinator's authoritative placement map.  The epoch/owner pair
   is mirrored to a durable file by the cluster layer before any push,
   so a coordinator crash reloads the same map (and any handoff left in
   flight restarts idempotently). *)
type coord_role = {
  c_nbuckets : int;
  mutable c_epoch : int;
  mutable c_owner : int array; (* bucket -> owning shard id *)
  mutable c_handoff : (int * int * int) list; (* (bucket, src, dst) mid-migration *)
  mutable c_drops : (int * int) list; (* (bucket, shard) garbage awaiting Drop_bucket *)
  c_last_hb : (int, float) Hashtbl.t; (* shard id -> last heartbeat arrival *)
  mutable c_heartbeats : int;
  mutable c_fence_events : int; (* failovers declared *)
}

type role = Standalone | Coordinator of coord_role | Shard of shard_role

(* The data-plane fence refusal.  Raised inside [exec] with the shard's
   epoch and answered [Wrong_shard]: definitively-not-executed and never
   recorded in the dedup window, so a retry after a placement refresh
   may be admitted. *)
exception Stale_shard of int

type t = {
  fs : Fs.t;
  clock : Simclock.Clock.t;
  locks : Relstore.Lock_mgr.t;
  lease_s : float;
  lock_wait_s : float;
  (* Background incremental vacuum: every [vacuum_every_s] simulated
     seconds of pump time, run one budgeted [Fs.vacuum_step] increment
     (archive mode, [vacuum_pages] pages) before admitting requests.
     0. disables the timer. *)
  vacuum_every_s : float;
  vacuum_pages : int;
  mutable next_vacuum : float;
  mutable vacuum_steps : int;
  mutable on_crash : t -> unit;
  mutable role : role;
  mutable links : Link.t list;
  sessions : (int64, sess) Hashtbl.t;
  asm : Wire.Assembly.t;
  run_q : task Queue.t;
  mutable parked : task list; (* FIFO: oldest first *)
  mutable parked_n : int;
  mutable next_sid : int64;
  mutable hello_window : (int64 * string list) list; (* nonce -> reply frames *)
  mutable crashes : int;
  mutable replays : int;
  mutable leases_expired : int;
  mutable fenced : int;
  mutable requests : int;
  mutable sheds : int;
  mutable deadline_rejects : int;
  mutable parks : int;
  mutable park_resumes : int;
  mutable park_timeouts : int;
  mutable deadlock_aborts : int;
  mutable unsupported : int;
  (* Simulated seconds this machine spent inside [pump] — its share of
     the one global clock.  A cluster bench on a single simulated clock
     cannot observe parallelism directly, so scale-out throughput is
     modeled from the bottleneck member: T_par = max over machines of
     busy time (see DESIGN.md, "Sharding"). *)
  mutable busy_s : float;
  read_buf : Bytes.t; (* [read_head_len] bytes of scratch for [read_whole] *)
}

let read_head_len = 1 lsl 16

(* How every deadline refusal begins, the server's and the client's
   fail-fast alike: a lock wait that timed out says something else. *)
let deadline_expired = "deadline expired"

(* Replies remembered per session for retransmissions to replay. *)
let dedup_window = 16

let m_requests = Obs.Metrics.counter "net.server.requests"
let m_replays = Obs.Metrics.counter "net.server.replays"
let m_sheds = Obs.Metrics.counter "net.server.sheds"
let m_deadline_rejects = Obs.Metrics.counter "net.server.deadline_rejects"
let m_parks = Obs.Metrics.counter "net.server.parks"
let m_park_resumes = Obs.Metrics.counter "net.server.park_resumes"
let m_park_timeouts = Obs.Metrics.counter "net.server.park_timeouts"
let m_deadlock_aborts = Obs.Metrics.counter "net.server.deadlock_aborts"
let m_unsupported = Obs.Metrics.counter "net.server.unsupported"

let default_on_crash t = ignore (Fs.crash_and_recover t.fs : Fs.recovery)

let create ~fs ?(lease_s = 120.) ?(lock_wait_s = 0.) ?(vacuum_every_s = 0.)
    ?(vacuum_pages = 4) () =
  let t =
    {
      fs;
      clock = Fs.clock fs;
      locks = Relstore.Db.lock_mgr (Fs.db fs);
      lease_s;
      lock_wait_s;
      vacuum_every_s;
      vacuum_pages;
      next_vacuum = vacuum_every_s;
      vacuum_steps = 0;
      on_crash = default_on_crash;
      role = Standalone;
      links = [];
      sessions = Hashtbl.create 8;
      asm = Wire.Assembly.create ();
      run_q = Queue.create ();
      parked = [];
      parked_n = 0;
      next_sid = 1L;
      hello_window = [];
      crashes = 0;
      replays = 0;
      leases_expired = 0;
      fenced = 0;
      requests = 0;
      sheds = 0;
      deadline_rejects = 0;
      parks = 0;
      park_resumes = 0;
      park_timeouts = 0;
      deadlock_aborts = 0;
      unsupported = 0;
      busy_s = 0.;
      read_buf = Bytes.create read_head_len;
    }
  in
  (* Event-loop health as live probes (replace-on-register: the registry
     tracks the most recently built server, the singleton in practice). *)
  Obs.Metrics.probe "net.server.run_queue" (fun () -> Queue.length t.run_q);
  Obs.Metrics.probe "net.server.parked" (fun () -> t.parked_n);
  t

let fs t = t.fs
let set_on_crash t f = t.on_crash <- f
let set_role t role = t.role <- role
let role t = t.role
let crashes t = t.crashes
let replays t = t.replays
let leases_expired t = t.leases_expired
let fenced t = t.fenced
let requests t = t.requests
let sheds t = t.sheds
let deadline_rejects t = t.deadline_rejects
let parks t = t.parks
let park_resumes t = t.park_resumes
let park_timeouts t = t.park_timeouts
let deadlock_aborts t = t.deadlock_aborts
let unsupported t = t.unsupported
let parked_now t = t.parked_n

let fd_open t sid fd =
  match Hashtbl.find_opt t.sessions sid with
  | Some s -> (
    match Fs.fd_oid s.fsess fd with
    | _ -> true
    | exception Errors.Fs_error (Errors.EBADF, _) -> false)
  | None -> false

let txn_open t sid =
  match Hashtbl.find_opt t.sessions sid with
  | Some s -> Fs.in_transaction s.fsess
  | None -> false
let vacuum_steps t = t.vacuum_steps

let attach t link = if not (List.memq link t.links) then t.links <- link :: t.links

(* The machine dies: every connection, session, fd, dedup window,
   half-assembled request, queued task and parked continuation is
   volatile state and goes with it.  Then the crash handler (by default
   {!Fs.crash_and_recover}; harnesses install one that first clears
   their fault schedule and then verifies) brings the durable state
   back. *)
let crash_now t =
  t.crashes <- t.crashes + 1;
  (* Role state is volatile too.  A shard forgets the placement map and
     its lease (re-armed by the next heartbeat reply); the coordinator's
     map is reloaded from its durable mirror by the cluster's crash
     handler. *)
  (match t.role with
  | Shard sh ->
    sh.sh_epoch <- 0;
    sh.sh_handoff <- [];
    sh.sh_lease_until <- 0.
  | Coordinator c ->
    c.c_epoch <- 0;
    Hashtbl.reset c.c_last_hb
  | Standalone -> ());
  Hashtbl.reset t.sessions;
  t.hello_window <- [];
  Wire.Assembly.reset t.asm;
  Queue.clear t.run_q;
  t.parked <- [];
  t.parked_n <- 0;
  List.iter Link.clear t.links;
  t.on_crash t

(* Sessions whose client has gone silent past the lease are reaped, and a
   transaction left open by a dead client is aborted — so its locks
   cannot outlive the client that took them (the HopsFS-style lease
   discipline).  This is the first timer of every pump: a lease expiry
   is what can actually unblock a parked request whose holder died. *)
let expire_leases t =
  if t.lease_s > 0. then begin
    let now = Simclock.Clock.now t.clock in
    let stale =
      Hashtbl.fold
        (fun sid s acc -> if now -. s.last_active > t.lease_s then (sid, s) :: acc else acc)
        t.sessions []
    in
    List.iter
      (fun (sid, s) ->
        if Fs.in_transaction s.fsess then (try Fs.p_abort s.fsess with _ -> ());
        Hashtbl.remove t.sessions sid;
        t.leases_expired <- t.leases_expired + 1)
      stale
  end

(* Which blocked requests may park and re-execute later?  Re-execution
   must be a clean restart: read-only requests always are; an
   auto-commit mutation rolled its implicit transaction back when the
   lock wait surfaced, so it restarts from nothing; [Commit] re-runs
   its flushes idempotently ({!Invfs.Fs} keeps pending write buffers
   until they land).  A mutation {e inside} an open transaction is the
   exception: it may have made partial progress under locks it still
   holds (a creat that inserted before blocking would EEXIST itself on
   re-run), so it keeps the immediate-EAGAIN reply and the client
   decides. *)
let parkable s req =
  Wire.read_only req || Wire.carried req = Wire.Commit || not (Fs.in_transaction s.fsess)

(* A shard stores each global oid's chunk range as one local file; the
   shard's own Fs namespace is private to it, so a flat root works. *)
let shard_path oid = Printf.sprintf "/o%Ld" oid

(* Its inverse on a root-directory entry name: [None] for anything else. *)
let oid_of_shard_name name =
  if String.length name > 1 && name.[0] = 'o' then
    Int64.of_string_opt (String.sub name 1 (String.length name - 1))
  else None

(* Wire-supplied read lengths are untrusted: a negative one would make
   [Bytes.create] raise [Invalid_argument] — which is not an [Fs_error]
   and so would escape the reply path and kill the pump — and a huge one
   would size a real allocation from a single request.  Refuse the
   former, clamp the latter: a short read is already in-contract. *)
let checked_read_len len =
  if len < 0 then Errors.fail Errors.EINVAL "negative read length %d" len;
  min len Wire.max_read_len

let placement_of_coord (c : coord_role) =
  Wire.
    {
      p_epoch = c.c_epoch;
      p_owner = Array.copy c.c_owner;
      p_handoff = List.map (fun (b, _, _) -> b) c.c_handoff;
    }

(* The epoch fence, checked on every data-plane op.  Serving requires a
   live lease (self-fence: a shard that missed heartbeats refuses on its
   own before the coordinator could have reassigned its buckets), a
   placement map at the client's exact epoch, and current ownership of
   the oid's bucket.  Reads are fenced too — a stale read from a
   reassigned bucket would be as wrong as a stale write.  A bucket
   mid-handoff is refused the same way, and the client rides the
   handoff out as it rides out a failover: it refreshes its placement
   and retries.  That refusal is counted in [sheds], not in
   [sh_stale_rejects], which counts refusals of a placement gone
   stale. *)
let shard_fence t ~epoch ~oid =
  match t.role with
  | Shard sh ->
    let b = Wire.bucket_of ~nbuckets:sh.nbuckets oid in
    let now = Simclock.Clock.now t.clock in
    if
      sh.sh_epoch = 0 || now >= sh.sh_lease_until || epoch <> sh.sh_epoch
      || b >= Array.length sh.sh_owner
      || sh.sh_owner.(b) <> sh.shard_id
    then begin
      sh.sh_stale_rejects <- sh.sh_stale_rejects + 1;
      raise (Stale_shard sh.sh_epoch)
    end;
    if List.mem b sh.sh_handoff then begin
      t.sheds <- t.sheds + 1;
      Obs.Metrics.incr m_sheds;
      raise (Stale_shard sh.sh_epoch)
    end
  | Standalone | Coordinator _ -> Errors.fail Errors.ENOTSUP "not a shard server"

let shard_only t =
  match t.role with
  | Shard sh -> sh
  | Standalone | Coordinator _ -> Errors.fail Errors.ENOTSUP "not a shard server"

let with_fd fsess fd f =
  Fun.protect ~finally:(fun () -> try Fs.p_close fsess fd with _ -> ()) (fun () -> f fd)

let read_into fsess fd buf len = Bytes.sub_string buf 0 (Fs.p_read fsess fd buf len)

(* Up to [len] bytes of [fd] from [off], [len] checked as above. *)
let read_at fsess fd ~off ~len =
  let len = checked_read_len len in
  ignore (Fs.p_lseek fsess fd off Fs.Seek_set : int64);
  read_into fsess fd (Bytes.create len) len

(* [read_at] for a whole-file read, which asks for [Wire.max_read_len]
   bytes whatever the file's size.  The first [read_head_len] bytes go
   through the server's reused buffer, and only a file that fills it
   pays for a buffer sized to the rest — not a 4 MiB allocation per
   request.  No other request runs between the two reads, so both see
   the same version of the file. *)
let read_whole t fsess fd ~off ~len =
  let len = checked_read_len len in
  ignore (Fs.p_lseek fsess fd off Fs.Seek_set : int64);
  let head = min len read_head_len in
  let first = read_into fsess fd t.read_buf head in
  if String.length first < head || head = len then first
  else first ^ read_into fsess fd (Bytes.create (len - head)) (len - head)

let rec exec t (s : sess) (req : Wire.req) : Wire.result =
  let fsess = s.fsess in
  match req with
  | Wire.Hello | Wire.Ping | Wire.Crash_server ->
    (* handled before dispatch reaches here *)
    Errors.fail Errors.EINVAL "unexpected control request in session dispatch"
  | Wire.Bye ->
    if Fs.in_transaction fsess then (try Fs.p_abort fsess with _ -> ());
    Hashtbl.remove t.sessions s.sid;
    Wire.R_unit
  | Wire.Begin ->
    Fs.p_begin fsess;
    Wire.R_unit
  | Wire.Commit ->
    Fs.p_commit fsess;
    Wire.R_unit
  | Wire.Abort ->
    (* idempotent: an abort of a transaction that is already gone
       (rolled back by a crash, reaped by a lease) has happened *)
    if Fs.in_transaction fsess then Fs.p_abort fsess;
    Wire.R_unit
  | Wire.Creat { path; device; ftype; compressed } ->
    Wire.R_fd (Fs.p_creat fsess ?device ?ftype ~compressed path)
  | Wire.Open { path; mode; timestamp } ->
    let mode = if mode = 0 then Fs.Rdonly else Fs.Rdwr in
    Wire.R_fd (Fs.p_open fsess ?timestamp path mode)
  | Wire.Close { fd } ->
    Fs.p_close fsess fd;
    Wire.R_unit
  | Wire.Read { fd; off; len } -> Wire.R_data (read_at fsess fd ~off ~len)
  | Wire.Read_file { path; timestamp; off; len } ->
    (* open, read and close inside one dispatch: nothing else runs in
       between, so the bytes come from one snapshot of the file *)
    with_fd fsess (Fs.p_open fsess ?timestamp path Fs.Rdonly) (fun fd ->
        Wire.R_data (read_whole t fsess fd ~off ~len))
  | Wire.Write { fd; off; data } ->
    ignore (Fs.p_lseek fsess fd off Fs.Seek_set : int64);
    let b = Bytes.of_string data in
    Wire.R_int (Int64.of_int (Fs.p_write fsess fd b (Bytes.length b)))
  | Wire.Ftruncate { fd; size } ->
    Fs.ftruncate fsess fd size;
    Wire.R_unit
  | Wire.Filesize { fd } -> Wire.R_int (Fs.p_lseek fsess fd 0L Fs.Seek_end)
  | Wire.Mkdir { path } ->
    Fs.mkdir fsess path;
    Wire.R_unit
  | Wire.Readdir { path; timestamp } -> Wire.R_names (Fs.readdir fsess ?timestamp path)
  | Wire.Unlink { path } ->
    Fs.unlink fsess path;
    Wire.R_unit
  | Wire.Rmdir { path } ->
    Fs.rmdir fsess path;
    Wire.R_unit
  | Wire.Rename { src; dst } ->
    Fs.rename fsess src dst;
    Wire.R_unit
  | Wire.Stat { path; timestamp } -> Wire.R_att (Fs.stat fsess ?timestamp path)
  | Wire.Exists { path; timestamp } -> Wire.R_bool (Fs.exists fsess ?timestamp path)
  | Wire.Query { text; timestamp } ->
    Wire.R_rows (List.map (List.map Postquel.Value.to_string) (Fs.query fsess ?timestamp text))
  | Wire.Set_owner { path; owner } ->
    Fs.set_owner fsess path owner;
    Wire.R_unit
  | Wire.Set_type { path; ftype } ->
    Fs.set_type fsess path ftype;
    Wire.R_unit
  | Wire.Define_type { name } ->
    Fs.define_type t.fs name;
    Wire.R_unit
  | Wire.Heartbeat _ ->
    (* control plane; handled before dispatch reaches here *)
    Errors.fail Errors.EINVAL "unexpected control request in session dispatch"
  | Wire.Get_placement -> (
    match t.role with
    | Coordinator c -> Wire.R_placement (placement_of_coord c)
    | Standalone | Shard _ -> Errors.fail Errors.ENOTSUP "not a coordinator")
  | Wire.Shard_read { oid; off; len; epoch } ->
    shard_fence t ~epoch ~oid;
    let path = shard_path oid in
    if not (Fs.exists fsess path) then Wire.R_data "" (* never written: sparse-empty *)
    else
      with_fd fsess (Fs.p_open fsess path Fs.Rdonly) (fun fd ->
          Wire.R_data (read_at fsess fd ~off ~len))
  | Wire.Shard_write { oid; off; data; epoch } ->
    shard_fence t ~epoch ~oid;
    with_fd fsess (Fs.open_or_creat fsess (shard_path oid)) (fun fd ->
        ignore (Fs.p_lseek fsess fd off Fs.Seek_set : int64);
        let b = Bytes.of_string data in
        Wire.R_int (Int64.of_int (Fs.p_write fsess fd b (Bytes.length b))))
  | Wire.Shard_truncate { oid; size; epoch } ->
    shard_fence t ~epoch ~oid;
    with_fd fsess (Fs.open_or_creat fsess (shard_path oid)) (fun fd ->
        Fs.ftruncate fsess fd size;
        Wire.R_unit)
  | Wire.Fetch_chunks { oid } ->
    (* Handoff read, deliberately unfenced: the coordinator pulls a dead
       or draining shard's copy over the storage/admin network, which
       stays reachable when the client network partitions. *)
    ignore (shard_only t : shard_role);
    let path = shard_path oid in
    if Fs.exists fsess path then
      Wire.R_data (Bytes.to_string (Fs.read_whole_file fsess path))
    else Wire.R_data ""
  | Wire.Migrate_in { oid; epoch; data } ->
    let sh = shard_only t in
    (* Only the coordinator sends these; refuse pushes older than what
       we already learned, accept ones from epochs we have not seen yet
       (the handoff push usually precedes the heartbeat that would have
       taught us the epoch).  Whole-copy overwrite: idempotent, so a
       crash-restarted handoff just re-sends. *)
    if epoch < sh.sh_epoch then raise (Stale_shard sh.sh_epoch);
    Fs.write_file fsess (shard_path oid) (Bytes.of_string data);
    Wire.R_unit
  | Wire.Drop_bucket { bucket; epoch } ->
    let sh = shard_only t in
    if epoch < sh.sh_epoch then raise (Stale_shard sh.sh_epoch);
    (* Never discard a copy this shard currently serves.  If the latest
       placement we learned assigns us the bucket, the drop is a stale
       or misdirected plan — e.g. a delayed drop from before a failover
       handed the bucket back to us — and executing it would delete the
       authoritative copy.  Refusing is safe either way: a legitimate
       drop targets a shard that will learn it is no longer the owner
       from its next heartbeat reply, after which the retried drop is
       admitted. *)
    if
      sh.sh_epoch > 0
      && bucket < Array.length sh.sh_owner
      && sh.sh_owner.(bucket) = sh.shard_id
    then raise (Stale_shard sh.sh_epoch);
    List.iter
      (fun name ->
        match oid_of_shard_name name with
        | Some oid when Wire.bucket_of ~nbuckets:sh.nbuckets oid = bucket ->
          Fs.unlink fsess ("/" ^ name)
        | Some _ | None -> ())
      (Fs.readdir fsess "/");
    Wire.R_unit
  | Wire.Snapshot -> Wire.R_int (Fs.snapshot t.fs)
  | Wire.Clone { src; dst } ->
    ignore (Fs.clone fsess ~src ~dst : int64);
    Wire.R_unit
  | Wire.Vacuum_step { pages } ->
    let pages = if pages <= 0 then t.vacuum_pages else pages in
    (match Fs.vacuum_step t.fs ~pages ~mode:`Archive () with
    | Some (_, st) -> Wire.R_int (Int64.of_int st.Relstore.Vacuum.s_scanned)
    | None -> Wire.R_int 0L)
  | Wire.Carry { closes; begin_txn; req } ->
    (* Both halves of the prefix are idempotent, so a carrier that parks
       re-executes cleanly: fds are never reused within a session, so an
       fd already gone was closed by an earlier attempt, and a begin that
       finds its transaction open made it on an earlier attempt. *)
    List.iter
      (fun fd -> try Fs.p_close fsess fd with Errors.Fs_error (Errors.EBADF, _) -> ())
      closes;
    if begin_txn && not (Fs.in_transaction fsess) then Fs.p_begin fsess;
    exec t s req

(* Pure execution time per dispatched request (simulated clock around
   [exec], excluding wire time and dedup replays), over every server in
   the process, for observability. *)
let h_service = Obs.Metrics.histogram "net.server.service_us"

let send_frames link frames = List.iter (fun f -> Link.send link Link.To_client f) frames

let reply_now link ~sid ~rid reply = send_frames link (Wire.encode_reply ~sid ~rid reply)

(* Record the reply in the session's dedup window (the request id is
   settled: retries replay this answer, never re-execute) and send it. *)
let record_and_send (s : sess) ~rid reply =
  let frames = Wire.encode_reply ~sid:s.sid ~rid reply in
  s.max_rid <- max s.max_rid rid;
  s.window <- (rid, frames) :: s.window;
  (if List.length s.window > dedup_window then
     s.window <- List.filteri (fun i _ -> i < dedup_window) s.window);
  Hashtbl.remove s.inflight rid;
  send_frames s.link frames

let now_s t = Simclock.Clock.now t.clock

let deadline_of_us us = if us = 0L then infinity else Int64.to_float us /. 1e6

(* ---------------- execution ---------------- *)

(* Run one admitted task to an answer — or park it.  Returns [true] when
   the task reached a reply (or was dropped for a vanished session),
   [false] when it parked/stayed parked. *)
let run_task t (tk : task) ~(was_parked : bool) =
  match Hashtbl.find_opt t.sessions tk.tk_sid with
  | None ->
    (* the session died while the request waited (fence, lease, Bye) *)
    reply_now tk.tk_link ~sid:tk.tk_sid ~rid:tk.tk_rid Wire.Unknown_session;
    true
  | Some s ->
    let now = now_s t in
    if now > tk.tk_deadline && not (Wire.relief tk.tk_req) then begin
      (* the caller has given up: abort the work before doing any of it.
         Definitive (recorded): this request id will never execute. *)
      t.deadline_rejects <- t.deadline_rejects + 1;
      Obs.Metrics.incr m_deadline_rejects;
      record_and_send s ~rid:tk.tk_rid
        (Wire.Err_reply
           {
             txn_open = Fs.in_transaction s.fsess;
             code = Errors.ETIMEDOUT;
             msg =
               Printf.sprintf "%s %.3fs before execution" deadline_expired
                 (now -. tk.tk_deadline);
           });
      true
    end
    else begin
      (* whether this attempt's carried begin opened the transaction: an
         answer that reports the request as not executed must close it
         again, or the client's next begin would join a stale one *)
      let opens_txn =
        (match tk.tk_req with Wire.Carry { begin_txn; _ } -> begin_txn | _ -> false)
        && not (Fs.in_transaction s.fsess)
      in
      let unexecute () = if opens_txn && Fs.in_transaction s.fsess then Fs.p_abort s.fsess in
      let outcome =
        match exec t s tk.tk_req with
        | result -> `Reply (Wire.Ok_reply { txn_open = Fs.in_transaction s.fsess; result })
        | exception Errors.Fs_error (Errors.EAGAIN, msg) ->
          (* Park only work that can wait with its deadline intact: the
             remaining headroom must cover the whole lock wait. *)
          let can_park =
            parkable s tk.tk_req && tk.tk_deadline -. now >= t.lock_wait_s
          in
          if can_park then `Park msg
          else
            `Reply
              (Wire.Err_reply
                 { txn_open = Fs.in_transaction s.fsess; code = Errors.EAGAIN; msg })
        | exception Errors.Fs_error (Errors.EDEADLK, msg) ->
          (* Deadlock victim: break the cycle here, whether the request
             arrived fresh or resumed from parking.  The server aborts
             the victim's transaction itself — a parked victim's client
             is mid-retry and may never get the chance — so the other
             parties' wait-for edges clear and they can proceed. *)
          if Fs.in_transaction s.fsess then (try Fs.p_abort s.fsess with _ -> ());
          t.deadlock_aborts <- t.deadlock_aborts + 1;
          Obs.Metrics.incr m_deadlock_aborts;
          `Reply (Wire.Err_reply { txn_open = false; code = Errors.EDEADLK; msg })
        | exception Stale_shard epoch -> `Wrong_shard epoch
        | exception Errors.Fs_error (code, msg) ->
          `Reply (Wire.Err_reply { txn_open = Fs.in_transaction s.fsess; code; msg })
        | exception Pagestore.Device.Io_fault _ ->
          `Reply (Wire.Io_fault_reply { txn_open = Fs.in_transaction s.fsess })
        | exception Not_found ->
          `Reply
            (Wire.Err_reply
               {
                 txn_open = Fs.in_transaction s.fsess;
                 code = Errors.ENOENT;
                 msg = "raced with a concurrent unlink";
               })
      in
      Obs.Metrics.observe h_service (now_s t -. now);
      match outcome with
      | `Reply reply ->
        (if was_parked then begin
           t.park_resumes <- t.park_resumes + 1;
           Obs.Metrics.incr m_park_resumes
         end);
        record_and_send s ~rid:tk.tk_rid reply;
        true
      | `Wrong_shard epoch ->
        (* fence refusal: definitively not executed, never recorded —
           the client refreshes its placement cache and may retry this
           very request id at whichever shard now owns the bucket *)
        unexecute ();
        Hashtbl.remove s.inflight tk.tk_rid;
        reply_now tk.tk_link ~sid:tk.tk_sid ~rid:tk.tk_rid (Wire.Wrong_shard { epoch });
        true
      | `Park blocked_on ->
        tk.tk_blocked_on <- blocked_on;
        tk.tk_park_gen <- Relstore.Lock_mgr.release_generation t.locks;
        if not was_parked then begin
          tk.tk_park_deadline <- now +. min t.lock_wait_s (tk.tk_deadline -. now);
          t.parked <- t.parked @ [ tk ];
          t.parked_n <- t.parked_n + 1;
          t.parks <- t.parks + 1;
          Obs.Metrics.incr m_parks;
          if Obs.on Obs.Net then
            Obs.event Obs.Net "net.park"
              ~args:
                [ ("req", Obs.S (Wire.req_name tk.tk_req));
                  ("rid", Obs.I (Int64.to_int tk.tk_rid));
                ]
              ()
        end;
        false
    end

(* A parked request whose lock-wait timer fired: answer ETIMEDOUT (the
   bounded-lock-wait contract), keeping the transaction open just as the
   old bounded-backoff path did — the client decides whether to abort. *)
let park_timeout t (tk : task) =
  t.park_timeouts <- t.park_timeouts + 1;
  Obs.Metrics.incr m_park_timeouts;
  match Hashtbl.find_opt t.sessions tk.tk_sid with
  | None -> reply_now tk.tk_link ~sid:tk.tk_sid ~rid:tk.tk_rid Wire.Unknown_session
  | Some s ->
    record_and_send s ~rid:tk.tk_rid
      (Wire.Err_reply
         {
           txn_open = Fs.in_transaction s.fsess;
           code = Errors.ETIMEDOUT;
           msg =
             Printf.sprintf "lock wait timed out after %.3fs: %s"
               (now_s t -. tk.tk_enq) tk.tk_blocked_on;
         })

(* Drain the run queue, then give parked requests their shot: resume
   those whose world may have changed (a lock release happened since
   their last attempt), expire those whose lock-wait timer passed.
   Resumptions can release locks and unblock further parked requests
   (commit chains), so loop until a pass makes no progress. *)
let run_all t =
  let continue = ref true in
  while !continue do
    continue := false;
    while not (Queue.is_empty t.run_q) do
      let tk = Queue.pop t.run_q in
      ignore (run_task t tk ~was_parked:false : bool)
    done;
    if t.parked_n > 0 then begin
      let gen = Relstore.Lock_mgr.release_generation t.locks in
      let keep = ref [] in
      List.iter
        (fun tk ->
          let resumed =
            if gen > tk.tk_park_gen then run_task t tk ~was_parked:true else false
          in
          if resumed then continue := true
          else if now_s t >= tk.tk_park_deadline then begin
            park_timeout t tk;
            continue := true
          end
          else keep := tk :: !keep)
        t.parked;
      t.parked <- List.rev !keep;
      t.parked_n <- List.length t.parked
    end
  done

(* ---------------- admission ---------------- *)

(* The dedup window's verdict on a request id: a request that already
   executed replays its recorded reply instead of executing twice; a
   stale duplicate from before the window (the client has long since
   moved on and will discard any answer) and a retransmission of a
   request still queued or parked (the original will answer) are
   dropped; anything else goes on to [fresh]. *)
let dedup t link s rid fresh =
  match List.assoc_opt rid s.window with
  | Some frames ->
    t.replays <- t.replays + 1;
    Obs.Metrics.incr m_replays;
    send_frames link frames
  | None when rid <= s.max_rid || Hashtbl.mem s.inflight rid -> ()
  | None -> fresh ()

let handle t link ~(h : Wire.hdr) req =
  let sid = h.sid and rid = h.rid in
  t.requests <- t.requests + 1;
  Obs.Metrics.incr m_requests;
  if Obs.on Obs.Net then
    Obs.event Obs.Net "net.dispatch"
      ~args:[ ("req", Obs.S (Wire.req_name req)); ("rid", Obs.I (Int64.to_int rid)) ]
      ();
  match req with
  | Wire.Ping -> reply_now link ~sid ~rid (Wire.Ok_reply { txn_open = false; result = Wire.R_unit })
  | Wire.Heartbeat { shard; epoch = _ } -> (
    (* Control plane, no session: the reply is the shard's lease renewal
       and carries the authoritative placement map.  Answered
       immediately and never recorded — heartbeats are periodic, a lost
       one is simply superseded by the next. *)
    match t.role with
    | Coordinator c ->
      c.c_heartbeats <- c.c_heartbeats + 1;
      Hashtbl.replace c.c_last_hb shard (Simclock.Clock.now t.clock);
      reply_now link ~sid ~rid
        (Wire.Ok_reply { txn_open = false; result = Wire.R_placement (placement_of_coord c) })
    | Standalone | Shard _ ->
      reply_now link ~sid ~rid
        (Wire.Err_reply
           { txn_open = false; code = Errors.ENOTSUP; msg = "not a coordinator" }))
  | Wire.Crash_server ->
    (* crash the machine mid-flight, recover, and only then answer: the
       reply is the evidence recovery came back up *)
    crash_now t;
    reply_now link ~sid ~rid (Wire.Ok_reply { txn_open = false; result = Wire.R_unit })
  | Wire.Hello -> (
    (* the request id is the client's nonce: replaying a duplicate Hello
       must return the same session, not mint a second one *)
    match List.assoc_opt rid t.hello_window with
    | Some frames ->
      t.replays <- t.replays + 1;
      Obs.Metrics.incr m_replays;
      send_frames link frames
    | None ->
      (* one connection carries one session: a fresh handshake on this
         link supersedes whatever session was bound to it before, so a
         reconnecting client's abandoned transaction (and its locks)
         dies here rather than lingering until the lease expires *)
      let stale =
        Hashtbl.fold
          (fun old_sid s acc -> if s.link == link then (old_sid, s) :: acc else acc)
          t.sessions []
      in
      List.iter
        (fun (old_sid, s) ->
          if Fs.in_transaction s.fsess then (try Fs.p_abort s.fsess with _ -> ());
          Hashtbl.remove t.sessions old_sid;
          t.fenced <- t.fenced + 1)
        stale;
      let new_sid = t.next_sid in
      t.next_sid <- Int64.add t.next_sid 1L;
      let s =
        {
          sid = new_sid;
          fsess = Fs.new_session t.fs;
          link;
          last_active = Simclock.Clock.now t.clock;
          max_rid = 0L;
          window = [];
          inflight = Hashtbl.create 4;
        }
      in
      Hashtbl.replace t.sessions new_sid s;
      let frames =
        Wire.encode_reply ~sid ~rid (Wire.Ok_reply { txn_open = false; result = Wire.R_sid new_sid })
      in
      t.hello_window <- (rid, frames) :: t.hello_window;
      (if List.length t.hello_window > 32 then
         t.hello_window <- List.filteri (fun i _ -> i < 32) t.hello_window);
      send_frames link frames)
  | _ -> (
    match Hashtbl.find_opt t.sessions sid with
    | None -> reply_now link ~sid ~rid Wire.Unknown_session
    | Some s ->
      s.last_active <- Simclock.Clock.now t.clock;
      dedup t link s rid (fun () ->
          let now = Simclock.Clock.now t.clock in
          let deadline = deadline_of_us h.deadline_us in
          if now > deadline && not (Wire.relief req) then begin
            (* never admit work whose caller has already given up.
               Recorded: the rejection is definitive, so a racing retry
               deduplicates onto it instead of executing. *)
            t.deadline_rejects <- t.deadline_rejects + 1;
            Obs.Metrics.incr m_deadline_rejects;
            record_and_send s ~rid
              (Wire.Err_reply
                 {
                   txn_open = Fs.in_transaction s.fsess;
                   code = Errors.ETIMEDOUT;
                   msg =
                     Printf.sprintf "%s %.3fs before admission" deadline_expired
                       (now -. deadline);
                 })
          end
          else begin
            Hashtbl.replace s.inflight rid ();
            Queue.push
              {
                tk_link = link;
                tk_sid = sid;
                tk_rid = rid;
                tk_req = req;
                tk_deadline = deadline;
                tk_enq = now;
                tk_park_deadline = infinity;
                tk_park_gen = 0;
                tk_blocked_on = "";
              }
              t.run_q
          end))

let process t link frame =
  match Wire.decode_header frame with
  | None -> () (* failed CRC or malformed: the wire ate it *)
  | Some h when h.kind <> 0 -> ()
  | Some h -> (
    match Wire.Assembly.add t.asm h with
    | `Pending -> ()
    | `Complete payload -> (
      match Wire.decode_request_any payload with
      | `Malformed -> () (* damaged beyond recognition: the wire ate it *)
      | `Unknown opcode -> (
        (* version skew: a future client spoke an opcode we don't have.
           Answer structurally instead of going silent — the client must
           be able to tell "not supported" from "lost on the wire".  The
           verdict is definitive, so it dedups like any executed request:
           a retransmission replays the recorded answer instead of being
           judged (and counted) twice. *)
        match Hashtbl.find_opt t.sessions h.sid with
        | Some s ->
          dedup t link s h.rid (fun () ->
              t.unsupported <- t.unsupported + 1;
              Obs.Metrics.incr m_unsupported;
              record_and_send s ~rid:h.rid (Wire.Unsupported { opcode }))
        | None ->
          t.unsupported <- t.unsupported + 1;
          Obs.Metrics.incr m_unsupported;
          reply_now link ~sid:h.sid ~rid:h.rid (Wire.Unsupported { opcode }))
      | `Req req -> handle t link ~h req))

(* Group-commit service at the end of a pump turn: the age timer bounds
   how long a partial batch may sit unforced.  A commit is acknowledged
   as soon as its status entry is logged (the status area is NVRAM), so
   no reply ever waits here. *)
let flush_group t =
  let db = Fs.db t.fs in
  if Relstore.Status_log.age_due (Relstore.Db.status_log db) then
    Relstore.Txn.force_group (Relstore.Db.txn_manager db)

(* The event loop.  One pump is one turn: timers first (lease expiry),
   then admission — every link drained, each complete request either
   answered inline (control plane, dedup replays, deadline rejections)
   or placed on the run queue — then execution,
   which drains the run queue and drives the parked requests' lock-wait
   and resume timers.  Everything is driven by the shared simulated
   clock; a pump with nothing to do is free. *)
(* The background-vacuum timer slot.  Rides the event loop like lease
   expiry: one budgeted increment per due tick, never a long pause —
   the point of the incremental design is that foreground requests in
   the same turn see at most a few latched pages of interference.  A
   skipped step (writer held the relation) still counts as the tick;
   the cursor did not move, so the next tick retries the same window. *)
let vacuum_tick t =
  if t.vacuum_every_s > 0. then begin
    let now = Simclock.Clock.now t.clock in
    if now >= t.next_vacuum then begin
      t.next_vacuum <- now +. t.vacuum_every_s;
      (try
         (match Fs.vacuum_step t.fs ~pages:t.vacuum_pages ~mode:`Archive () with
         | Some _ -> t.vacuum_steps <- t.vacuum_steps + 1
         | None -> ())
       with Errors.Fs_error _ -> (* e.g. a foreground txn holds the heap *) ())
    end
  end

let pump_turn t =
  expire_leases t;
  let crashed = ref false in
  (try vacuum_tick t
   with Pagestore.Device.Crash_injected _ ->
     crash_now t;
     crashed := true);
  List.iter
    (fun link ->
      let rec drain () =
        if not !crashed then
          match Link.recv link Link.To_server with
          | None -> ()
          | Some (_, true) ->
            (* poisoned frame: the machine dies at the moment of receipt,
               mid-request — nothing executes, nothing is replied *)
            crash_now t;
            crashed := true
          | Some (frame, false) ->
            (try process t link frame
             with Pagestore.Device.Crash_injected _ ->
               crash_now t;
               crashed := true);
            drain ()
      in
      drain ())
    t.links;
  if not !crashed then (
    try
      run_all t;
      flush_group t
    with Pagestore.Device.Crash_injected _ -> crash_now t)

let pump t =
  let t0 = Simclock.Clock.now t.clock in
  pump_turn t;
  t.busy_s <- t.busy_s +. (Simclock.Clock.now t.clock -. t0)

let busy_s t = t.busy_s
