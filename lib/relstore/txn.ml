type manager = {
  clock : Simclock.Clock.t;
  log : Status_log.t;
  locks : Lock_mgr.t;
  cache : Pagestore.Bufcache.t;
  mutable deferred_index : bool;
  (* Apply hooks registered by indexes holding a deferred-insert overlay;
     run (sorted runs, one leaf touch each) right before the batch force. *)
  mutable pending_applies : (unit -> unit) list;
}

type state = Active | Committed | Aborted

type t = {
  mgr : manager;
  txn_xid : Xid.t;
  started : int64;
  mutable txn_state : state;
}

let create_manager ~clock ~log ~locks ~cache =
  { clock; log; locks; cache; deferred_index = false; pending_applies = [] }

let clock m = m.clock
let log m = m.log
let locks m = m.locks
let cache m = m.cache

let set_deferred_index m b = m.deferred_index <- b
let deferred_index m = m.deferred_index
let register_apply_hook m f = m.pending_applies <- f :: m.pending_applies

let m_begin = Obs.Metrics.counter "txn.begin"
let m_commit = Obs.Metrics.counter "txn.commit"
let m_abort = Obs.Metrics.counter "txn.abort"
let h_commit = Obs.Metrics.histogram "txn.commit.latency_us"

let run_apply_hooks m =
  match m.pending_applies with
  | [] -> ()
  | hooks ->
    m.pending_applies <- [];
    List.iter (fun f -> f ()) (List.rev hooks)

let with_flush_span f =
  if Obs.on Obs.Txn then begin
    Obs.span_begin Obs.Txn "log.flush" ();
    let n = f () in
    Obs.span_end Obs.Txn "log.flush" ~args:[ ("group", Obs.I n) ] ();
    n
  end
  else f ()

(* The accounting half of a batch force: one stable-write charge covers
   every pending status entry, and the settled intents become dead
   letters.  Pure clock charge — no device I/O happens here. *)
let settle_pending m =
  let n = Status_log.force_pending m.log in
  Status_log.clear_settled_intents m.log;
  n

let force_group m =
  if m.pending_applies <> [] || Status_log.pending_force m.log > 0 then
    ignore
      (with_flush_span (fun () ->
           (* Deferred index effects first, then the data flush that
              covers them, then one stable status write for the whole
              batch. *)
           run_apply_hooks m;
           Pagestore.Bufcache.flush m.cache;
           settle_pending m)
        : int)
  else begin
    (* Nothing enqueued and no overlay hooks: any settled intents still
       logged (recovery's eager REDO replay) are already applied in the
       buffer pool — put those pages down and retire the intents. *)
    Pagestore.Bufcache.flush m.cache;
    Status_log.clear_settled_intents m.log
  end

let crash_reset_manager m =
  (* Overlay contents are volatile; the indexes drop theirs in their own
     crash resets, so the hooks that would apply them must die too. *)
  m.pending_applies <- []

let begin_txn mgr =
  let txn_xid = Status_log.begin_txn mgr.log in
  Obs.Metrics.incr m_begin;
  (* Unscoped span: the transaction outlives this call, so the matching
     span_end lives in [commit] / [abort]. *)
  if Obs.on Obs.Txn then Obs.span_begin Obs.Txn "txn" ~args:[ ("xid", Obs.I txn_xid) ] ();
  { mgr; txn_xid; started = Simclock.Clock.timestamp mgr.clock; txn_state = Active }

let xid t = t.txn_xid
let state t = t.txn_state
let start_time t = t.started
let manager t = t.mgr
let snapshot t = Snapshot.Current t.txn_xid

let require_active t op =
  if t.txn_state <> Active then
    invalid_arg (Printf.sprintf "Txn.%s: xid %d is not active" op t.txn_xid)

let lock t ~resource mode =
  require_active t "lock";
  Lock_mgr.acquire t.mgr.locks t.txn_xid ~resource mode

let defers_index t = t.txn_state = Active && t.mgr.deferred_index

let log_index_intent t ~tree ~key ~value =
  Status_log.log_intent t.mgr.log t.txn_xid ~tree ~key ~value

let commit t =
  require_active t "commit";
  let mgr = t.mgr in
  let t0 = Simclock.Clock.now mgr.clock in
  (* A transaction that held no exclusive lock wrote nothing: its commit
     needs neither a data flush nor a forced status write. *)
  let wrote =
    List.exists
      (fun (_, mode) -> mode = Lock_mgr.Exclusive)
      (Lock_mgr.held_by t.mgr.locks t.txn_xid)
  in
  (* Will this commit fill the batch?  Decided before the status write:
     the force's real device I/O (deferred index apply + data flush) must
     run while this transaction is still active, so a crash injected
     mid-flush rolls it back cleanly — there must be no window where the
     status table says committed but the caller saw an exception. *)
  let fills_batch =
    wrote && Status_log.pending_force mgr.log + 1 >= Status_log.group_size
  in
  (* Data before status: a half-done flush without the status entry is a
     transaction that never happened. *)
  if wrote then begin
    Cpu_model.charge_txn_overhead mgr.clock;
    (* Deferred index effects ride the flush that covers the whole batch,
       so the pages land exactly where the eager inserts would have put
       them. *)
    if fills_batch then run_apply_hooks mgr;
    Pagestore.Bufcache.flush mgr.cache
  end;
  let ts = Status_log.commit ~force:wrote mgr.log t.txn_xid in
  (* The batch force itself is pure accounting — its device writes
     already happened above, while this transaction was still active.
     Locks are held across it. *)
  if fills_batch then ignore (with_flush_span (fun () -> settle_pending mgr) : int);
  Lock_mgr.release_all mgr.locks t.txn_xid;
  t.txn_state <- Committed;
  (* Counter and histogram move in lockstep unconditionally — the bench
     smoke check asserts hist_count(txn.commit.latency_us) = txn.commit. *)
  Obs.Metrics.incr m_commit;
  Obs.Metrics.observe h_commit (Simclock.Clock.now t.mgr.clock -. t0);
  (* The commit point is the last event inside the span: everything the
     transaction did (including lock release, which is traceless) happens
     before it, and the span closes right after. *)
  if Obs.on Obs.Txn then begin
    Obs.event Obs.Txn "txn.commit"
      ~args:[ ("xid", Obs.I t.txn_xid); ("wrote", Obs.I (if wrote then 1 else 0)) ]
      ();
    Obs.span_end Obs.Txn "txn" ()
  end;
  ts

let abort t =
  match t.txn_state with
  | Aborted -> ()
  | Committed -> invalid_arg "Txn.abort: already committed"
  | Active ->
    Status_log.abort t.mgr.log t.txn_xid;
    Lock_mgr.release_all t.mgr.locks t.txn_xid;
    t.txn_state <- Aborted;
    Obs.Metrics.incr m_abort;
    if Obs.on Obs.Txn then begin
      Obs.event Obs.Txn "txn.abort" ~args:[ ("xid", Obs.I t.txn_xid) ] ();
      Obs.span_end Obs.Txn "txn" ()
    end

let with_txn mgr f =
  let t = begin_txn mgr in
  match f t with
  | v ->
    if t.txn_state = Active then ignore (commit t : int64);
    v
  | exception e ->
    if t.txn_state = Active then abort t;
    raise e
