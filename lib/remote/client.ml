module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Link = Netsim.Link
module Clock = Simclock.Clock
module Rng = Simclock.Rng

type config = {
  timeout_s : float;
  max_retries : int;
  backoff_base_s : float;
  backoff_max_s : float;
  reconnect_attempts : int;
  retry_budget : int;
  retry_refill_per_s : float;
}

let default_config =
  {
    timeout_s = 0.35;
    max_retries = 6;
    backoff_base_s = 0.05;
    backoff_max_s = 1.0;
    reconnect_attempts = 4;
    retry_budget = 8;
    retry_refill_per_s = 2.0;
  }

(* Client-side state of one open fd.  [dirty]: a [c_write] inside a
   transaction may sit in the server's write buffer, so the close must
   flush it and cannot be deferred. *)
type fd_state = { mutable pos : int64; hist : bool; mutable dirty : bool }

type t = {
  server : Server.t;
  link : Link.t;
  net : Netsim.t;
  clock : Clock.t;
  rng : Rng.t;
  cfg : config;
  asm : Wire.Assembly.t;
  fds : (int, fd_state) Hashtbl.t;
  mutable sid : int64; (* 0 = no session *)
  mutable next_rid : int64;
  mutable in_txn : bool; (* the server's word, from the last reply *)
  mutable closes : int list; (* deferred closes, newest first *)
  mutable begin_pending : bool; (* c_begin not yet carried to the server *)
  mutable deadline : float; (* absolute seconds; infinity = none *)
  mutable tokens : float; (* retry-budget token bucket *)
  mutable tokens_at : float; (* clock time of the last refill *)
  mutable retries : int;
  mutable timeouts : int;
  mutable reconnects : int;
  mutable sessions_lost : int;
  mutable overloaded : int;
  mutable deadline_failfasts : int;
  mutable budget_denials : int;
  mutable piggybacked : int;
}

let sid t = t.sid
let in_txn t = t.in_txn || t.begin_pending
let begin_pending t = t.begin_pending
let link t = t.link
let retries t = t.retries
let timeouts t = t.timeouts
let reconnects t = t.reconnects
let sessions_lost t = t.sessions_lost
let overloaded t = t.overloaded
let deadline_failfasts t = t.deadline_failfasts
let budget_denials t = t.budget_denials
let piggybacked t = t.piggybacked

(* Deadline propagation is opt-in, per client: an installed deadline
   rides every request's frame header as an absolute simulated-clock
   timestamp, telling the server when this caller will have given up.
   [None] (the default) sends no deadline and changes nothing on the
   wire. *)
let set_deadline t d =
  t.deadline <- (match d with None -> infinity | Some s -> s)

let deadline t = if t.deadline = infinity then None else Some t.deadline

(* The retry budget: a token bucket refilled by simulated time.  Spent
   only on re-offering work a saturated server explicitly shed
   ([Overloaded]) — ordinary timeout retries keep their exponential
   backoff — so a herd of clients cannot hammer an overloaded server in
   a tight retry loop. *)
let take_token t =
  let now = Clock.now t.clock in
  t.tokens <-
    min
      (float_of_int t.cfg.retry_budget)
      (t.tokens +. ((now -. t.tokens_at) *. t.cfg.retry_refill_per_s));
  t.tokens_at <- now;
  if t.tokens >= 1. then begin
    t.tokens <- t.tokens -. 1.;
    true
  end
  else false

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- Int64.add rid 1L;
  rid

let conn_reset msg = raise (Errors.Fs_error (Errors.ECONNRESET, msg))

(* Bounded jitter on the server's retry-after hint: every shed client
   sleeping exactly [retry_after] would re-arrive as the same
   synchronized herd that was just shed.  0.75x-1.25x keeps the hint's
   magnitude (the server sized it to drain the backlog) while spreading
   the re-offers across half a hint-width. *)
let jitter_retry_after rng d = d *. (0.75 +. Rng.float rng 0.5)

let backoff_and_note t attempt =
  let d =
    min t.cfg.backoff_max_s (t.cfg.backoff_base_s *. (2. ** float_of_int attempt))
  in
  let d = d *. (0.5 +. Rng.float t.rng 1.0) in
  Clock.advance t.clock ~account:"net.backoff" d;
  Netsim.note_retry t.net;
  t.retries <- t.retries + 1;
  if Obs.on Obs.Net then
    Obs.event Obs.Net "net.retry" ~args:[ ("attempt", Obs.I attempt) ] ()

let charge_timeout t =
  Netsim.note_timeout t.net;
  t.timeouts <- t.timeouts + 1;
  if Obs.on Obs.Net then Obs.event Obs.Net "net.timeout" ();
  Clock.advance t.clock ~account:"net.timeout" t.cfg.timeout_s

(* Drain this connection's inbound queue looking for the reply to [rid].
   Frames that fail their CRC and fragments of stale replies fall on the
   floor; completed stale replies (a late duplicate of something already
   accepted) are discarded — the client only ever accepts the reply to
   the request id it is currently waiting on. *)
let drain_replies t ~rid =
  let found = ref None in
  let rec go () =
    match Link.recv t.link Link.To_client with
    | None -> ()
    | Some (frame, _poison) ->
      (match Wire.decode_header frame with
      | Some h when h.kind = 1 -> (
        match Wire.Assembly.add t.asm h with
        | `Pending -> ()
        | `Complete payload ->
          if h.rid = rid then
            match Wire.decode_reply payload with
            | Some reply -> found := Some reply
            | None -> ())
      | _ -> ());
      go ()
  in
  go ();
  !found

(* Send the request's frames.  Bulk writes go through the windowed
   pipeline: wire time overlaps the server's work, so only the
   non-overlapped remainder (plus an overlap-inefficiency tax) is
   charged — the model the paper's creation-vs-synchronous-write numbers
   require.  Everything else is a synchronous send. *)
let send_and_pump t ~pipelined frames =
  if pipelined then begin
    let t0 = Clock.now t.clock in
    List.iter (fun f -> Link.send ~charge:false t.link Link.To_server f) frames;
    Server.pump t.server;
    let server_dt = Clock.now t.clock -. t0 in
    let net_dt =
      List.fold_left
        (fun acc f -> acc +. Netsim.cost_of_send t.net ~bytes:(String.length f))
        0. frames
    in
    let stall = max 0. (net_dt -. server_dt) +. (0.3 *. min net_dt server_dt) in
    Clock.advance t.clock ~account:"net.pipeline" stall
  end
  else begin
    List.iter (fun f -> Link.send t.link Link.To_server f) frames;
    Server.pump t.server
  end

(* One request/reply exchange with bounded retries: at-least-once on the
   wire, exactly-once observed thanks to the server's dedup window (every
   retry reuses the same request id).  Frames are re-encoded per attempt
   so retransmissions carry the retry flag — admission control sheds
   flagged traffic first — and every attempt carries the caller's
   deadline.

   An [Overloaded] answer means the server shed the request before
   executing it: definitively nothing happened.  The client stands back
   for the server's hint and re-offers — if its retry budget and the
   deadline allow; otherwise the call fails cleanly with [EBUSY]. *)
let exchange t ~sid ~rid ~pipelined req =
  let deadline_us =
    if t.deadline = infinity then 0L else Int64.of_float (t.deadline *. 1e6)
  in
  let rec attempt k =
    let frames = Wire.encode_request ~retry:(k > 0) ~deadline_us ~sid ~rid req in
    send_and_pump t ~pipelined:(pipelined && k = 0) frames;
    match drain_replies t ~rid with
    | Some (Wire.Overloaded { retry_after_s }) ->
      t.overloaded <- t.overloaded + 1;
      if Obs.on Obs.Net then
        Obs.event Obs.Net "net.overloaded"
          ~args:[ ("retry_after_ms", Obs.I (int_of_float (retry_after_s *. 1e3))) ]
          ();
      let pause = jitter_retry_after t.rng retry_after_s in
      let headroom_after_wait = Clock.now t.clock +. pause <= t.deadline in
      if k >= t.cfg.max_retries || not headroom_after_wait then
        raise
          (Errors.Fs_error
             (Errors.EBUSY, Printf.sprintf "server overloaded; gave up after %d offers" (k + 1)))
      else if not (take_token t) then begin
        t.budget_denials <- t.budget_denials + 1;
        raise
          (Errors.Fs_error
             (Errors.EBUSY, "server overloaded and retry budget exhausted"))
      end
      else begin
        Clock.advance t.clock ~account:"net.retry_after" pause;
        Netsim.note_retry t.net;
        t.retries <- t.retries + 1;
        attempt (k + 1)
      end
    | Some reply -> Some reply
    | None ->
      charge_timeout t;
      if Clock.now t.clock > t.deadline then
        (* the caller's deadline passed while the request was in flight:
           stop re-offering; the outcome is whatever the usual lost-reply
           accounting concludes *)
        None
      else if k < t.cfg.max_retries then begin
        backoff_and_note t k;
        attempt (k + 1)
      end
      else None
  in
  attempt 0

(* Liveness probe used when retries run dry: is anybody there at all? *)
let probe_alive t =
  let rid = fresh_rid t in
  let frames = Wire.encode_request ~sid:0L ~rid Wire.Ping in
  let rec attempt k =
    List.iter (fun f -> Link.send t.link Link.To_server f) frames;
    Server.pump t.server;
    match drain_replies t ~rid with
    | Some _ -> true
    | None ->
      charge_timeout t;
      if k < t.cfg.reconnect_attempts then begin
        backoff_and_note t k;
        attempt (k + 1)
      end
      else false
  in
  attempt 0

let hello t =
  (* the nonce identifies this (re)connection attempt; retries reuse it so
     a duplicated Hello cannot mint two sessions *)
  let nonce = Int64.logor 1L (Int64.shift_right_logical (Rng.next t.rng) 1) in
  match exchange t ~sid:0L ~rid:nonce ~pipelined:false Wire.Hello with
  | Some (Wire.Ok_reply { result = Wire.R_sid sid; _ }) ->
    t.sid <- sid;
    t.in_txn <- false;
    true
  | _ -> false

let session_dead t =
  t.sessions_lost <- t.sessions_lost + 1;
  if Obs.on Obs.Net then
    Obs.event Obs.Net "net.session_lost" ~args:[ ("sid", Obs.I (Int64.to_int t.sid)) ] ();
  t.sid <- 0L;
  t.in_txn <- false;
  Hashtbl.reset t.fds;
  (* fd numbers restart at 3 in every session: a close deferred on this
     one must never ride a request on the next *)
  t.closes <- [];
  t.begin_pending <- false;
  (* connection teardown: like a TCP reset, abandoning the session also
     discards everything still in flight on the wire.  Without this a
     stale request from the dead session (delayed by a reorder or
     released from behind a partition) could arrive and execute after
     the client has already concluded it never would. *)
  Link.clear t.link

let reconnect t =
  t.reconnects <- t.reconnects + 1;
  if Obs.on Obs.Net then Obs.event Obs.Net "net.reconnect" ();
  hello t

(* Requests whose goal is already met once the session is gone: the dying
   session aborted the transaction, and an fd dies with its session, so
   an [Abort] — or a [Close] outside a transaction — reports success.
   ([Close] inside a transaction still surfaces the reset: the caller
   must learn its transaction died.) *)
let vacuous_after_loss ~was_txn req =
  match Wire.carried req with
  | Wire.Abort -> true
  | Wire.Close _ -> not was_txn
  | _ -> false

(* What a caller is told when the session died before [req]'s reply:
   nothing, if the loss already did what it asked; a clean abort, if a
   transaction was open (a [Commit] excepted); that the outcome is
   unknown, if it may have changed stored state; or that it was lost. *)
let loss_verdict ~was_txn req =
  if vacuous_after_loss ~was_txn req then `Vacuous
  else if was_txn && req <> Wire.Commit then `Aborted
  else if Wire.mutating req || req = Wire.Commit then `Indeterminate
  else `Lost

let indeterminate = "outcome indeterminate"

let report_loss verdict req =
  let name = Wire.req_name req in
  match verdict with
  | `Vacuous -> Wire.R_unit
  | `Aborted -> conn_reset (Printf.sprintf "session lost during %s; transaction aborted" name)
  | `Indeterminate -> conn_reset (Printf.sprintf "session lost; %s %s" name indeterminate)
  | `Lost -> conn_reset (Printf.sprintf "session lost during %s" name)

let outcome_indeterminate msg = String.ends_with ~suffix:indeterminate msg

let give_up t ~was_txn req =
  session_dead t;
  report_loss (loss_verdict ~was_txn req) req

(* Piggybacking: deferred closes and a pending begin ride the session's
   next request in one {!Wire.Carry}.  [Crash_server] is answered before
   session dispatch, so it carries nothing; its session dies anyway. *)
let with_carried t req =
  if (t.closes = [] && not t.begin_pending) || req = Wire.Crash_server then req
  else Wire.Carry { closes = List.rev t.closes; begin_txn = t.begin_pending; req }

let note_txn t txn_open =
  t.in_txn <- txn_open;
  if not (in_txn t) then Hashtbl.iter (fun _ f -> f.dirty <- false) t.fds

(* What a reply to a carrier says about its prefix.  Ok and I/O-fault
   answers come from a dispatch that ran it.  An error answer ran the
   carried begin when the transaction is open, or when the server closed
   it again as a deadlock victim; otherwise (a deadline refusal) the
   begin stays pending for the next request.  An error answer may not
   have run the closes either, so they stay queued: closing an fd the
   server no longer has is a no-op.  Answers without a transaction state
   (shed, unsupported, wrong shard, lost session) ran nothing. *)
let settle_carried t wreq reply =
  match wreq with
  | Wire.Carry { closes; begin_txn; _ } ->
    let closes_ran, begin_ran =
      match reply with
      | Wire.Ok_reply _ | Wire.Io_fault_reply _ -> (true, begin_txn)
      | Wire.Err_reply { txn_open; code; _ } ->
        (false, begin_txn && (txn_open || code = Errors.EDEADLK))
      | _ -> (false, false)
    in
    if closes_ran then begin
      t.closes <- [];
      t.piggybacked <- t.piggybacked + List.length closes
    end;
    if begin_ran then begin
      t.begin_pending <- false;
      t.piggybacked <- t.piggybacked + 1
    end
  | _ -> ()

let rec rpc ?(pipelined = false) ?(reissued = false) t req =
  (if
     t.deadline < infinity
     && Clock.now t.clock > t.deadline
     && not (Wire.deadline_exempt req)
   then begin
     (* fail fast: the deadline already passed, so don't spend wire time
        on work whose answer nobody wants.  Nothing was sent — the
        failure is definitive, and the transaction (if any) is intact. *)
     t.deadline_failfasts <- t.deadline_failfasts + 1;
     if Obs.on Obs.Net then Obs.event Obs.Net "net.deadline_failfast" ();
     raise
       (Errors.Fs_error
          ( Errors.ETIMEDOUT,
            Printf.sprintf "deadline expired before sending %s" (Wire.req_name req) ))
   end);
  (* a pending begin counts: losing the session before it reached the
     server still ends the caller's transaction *)
  let was_txn = in_txn t in
  if t.sid = 0L && not (reconnect t) then give_up t ~was_txn req
  else begin
    let wreq = with_carried t req in
    let rid = fresh_rid t in
    match exchange t ~sid:t.sid ~rid ~pipelined wreq with
    | None ->
      (* every retry timed out: the path or the server is gone.  If a probe
         gets through the server is up and our session state decides what
         this meant; otherwise the session is unrecoverable. *)
      if probe_alive t then
        match exchange t ~sid:t.sid ~rid ~pipelined:false wreq with
        | Some reply -> finish t ~was_txn ~reissued ~pipelined ~wreq req reply
        | None -> give_up t ~was_txn req
      else give_up t ~was_txn req
    | Some reply -> finish t ~was_txn ~reissued ~pipelined ~wreq req reply
  end

and finish t ~was_txn ~reissued ~pipelined ~wreq req reply =
  settle_carried t wreq reply;
  match reply with
  | Wire.Ok_reply { txn_open; result } ->
    note_txn t txn_open;
    result
  | Wire.Err_reply { txn_open; code; msg } ->
    note_txn t txn_open;
    raise (Errors.Fs_error (code, msg))
  | Wire.Io_fault_reply { txn_open } ->
    note_txn t txn_open;
    (* surface the injected transient fault under its own exception, as
       the local API does *)
    raise (Pagestore.Device.Io_fault { device = "remote"; segid = -1; blkno = -1 })
  | Wire.Overloaded _ ->
    (* normally intercepted inside [exchange]; a stray one (e.g. from the
       post-probe exchange) means the same thing: definitively shed *)
    raise (Errors.Fs_error (Errors.EBUSY, "server overloaded"))
  | Wire.Unsupported { opcode } ->
    (* version skew: this server predates the opcode.  Structural and
       definitive — nothing executed. *)
    raise
      (Errors.Fs_error
         ( Errors.ENOTSUP,
           Printf.sprintf "server does not support opcode %d (version skew)" opcode ))
  | Wire.Wrong_shard { epoch } ->
    (* the shard's epoch fence refused the op: definitively not
       executed.  The composite cluster client catches ESTALE, refreshes
       its placement cache from the coordinator and retries. *)
    raise
      (Errors.Fs_error
         ( Errors.ESTALE,
           Printf.sprintf "wrong shard for %s (shard placement epoch %d)"
             (Wire.req_name req) epoch ))
  | Wire.Unknown_session ->
    (* the server lost our session: it crashed, or our lease expired.
       Reconnect; then decide what the caller may be told. *)
    let only_begun =
      (match wreq with Wire.Carry { begin_txn; _ } -> begin_txn | _ -> false)
      && not t.in_txn
    in
    session_dead t;
    (* the transaction was no more than the begin this request carried,
       and whatever the carrier ran on the dead session died with it:
       the begin stays pending, to ride the request again on the fresh
       session (where a request on an old fd fails EBADF, as it would
       have client-side had the begin gone out on its own) *)
    let rebegin = only_begun && not reissued in
    if rebegin then t.begin_pending <- true;
    match loss_verdict ~was_txn req with
    | `Vacuous -> Wire.R_unit (* the dying session took the transaction (and every fd) with it *)
    | verdict ->
      if not (reconnect t) then give_up t ~was_txn req
      else if rebegin then rpc ~pipelined ~reissued:true t req
      else if verdict = `Lost && Wire.reissuable req && not reissued then
        rpc ~pipelined ~reissued:true t req
      else report_loss verdict req

(* ---------------- construction ---------------- *)

let connect ?(config = default_config) ~server ~link ~rng () =
  let net = Link.net link in
  let t =
    {
      server;
      link;
      net;
      clock = Netsim.clock net;
      rng;
      cfg = config;
      asm = Wire.Assembly.create ();
      fds = Hashtbl.create 8;
      sid = 0L;
      next_rid = 1L;
      in_txn = false;
      closes = [];
      begin_pending = false;
      deadline = infinity;
      tokens = float_of_int config.retry_budget;
      tokens_at = Clock.now (Netsim.clock net);
      retries = 0;
      timeouts = 0;
      reconnects = 0;
      sessions_lost = 0;
      overloaded = 0;
      deadline_failfasts = 0;
      budget_denials = 0;
      piggybacked = 0;
    }
  in
  Server.attach server link;
  (* Wire counters join the unified registry as live probes: the client's
     own tallies plus the Netsim aggregates underneath it.  Latest client
     wins, matching the registry's replace-on-register rule. *)
  Obs.Metrics.probe "net.client.retries" (fun () -> t.retries);
  Obs.Metrics.probe "net.client.piggybacked" (fun () -> t.piggybacked);
  Obs.Metrics.probe "net.client.timeouts" (fun () -> t.timeouts);
  Obs.Metrics.probe "net.client.reconnects" (fun () -> t.reconnects);
  Obs.Metrics.probe "net.client.sessions_lost" (fun () -> t.sessions_lost);
  Obs.Metrics.probe "net.client.overloaded" (fun () -> t.overloaded);
  Obs.Metrics.probe "net.client.deadline_failfasts" (fun () -> t.deadline_failfasts);
  Obs.Metrics.probe "net.client.budget_denials" (fun () -> t.budget_denials);
  Obs.Metrics.probe "net.messages" (fun () -> Netsim.messages net);
  Obs.Metrics.probe "net.bytes_sent" (fun () -> Netsim.bytes_sent net);
  if not (hello t) then conn_reset "could not establish a session";
  t

(* ---------------- typed wrappers ---------------- *)

let expect_unit = function
  | Wire.R_unit -> ()
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let expect_fd = function
  | Wire.R_fd fd -> fd
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let expect_int = function
  | Wire.R_int v -> v
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let fd_state t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some f -> f
  | None -> Errors.fail Errors.EBADF "stale fd %d (session was lost)" fd

(* [c_begin] sends nothing: the transaction begins on the server just
   before the next request, which carries it.  A transaction that ends
   before any request went out never reached the server at all. *)
let c_begin t =
  (* inside a transaction the server answers, as before: ETXN, or the
     lost session's abort if a crash or lease ended it unannounced *)
  if in_txn t then expect_unit (rpc t Wire.Begin) else t.begin_pending <- true

let end_txn t req =
  if t.begin_pending then begin
    t.begin_pending <- false;
    note_txn t false
  end
  else expect_unit (rpc t req)

let c_commit t = end_txn t Wire.Commit
let c_abort t = end_txn t Wire.Abort

let add_fd t fd ~hist =
  Hashtbl.replace t.fds fd { pos = 0L; hist; dirty = false };
  fd

let c_creat t ?device ?ftype ?(compressed = false) path =
  add_fd t (expect_fd (rpc t (Wire.Creat { path; device; ftype; compressed }))) ~hist:false

let c_open t ?timestamp path mode =
  let mode = match mode with Fs.Rdonly -> 0 | Fs.Rdwr -> 1 in
  add_fd t (expect_fd (rpc t (Wire.Open { path; mode; timestamp }))) ~hist:(timestamp <> None)

(* A close that changes nothing a client can observe — no write buffered
   on the server — rides the session's next request.  A dirty fd's close
   flushes its write and takes the data lock, and a historical fd's
   close releases a vacuum lease: both stay their own round trip. *)
let c_close t fd =
  let f = fd_state t fd in
  if f.hist || f.dirty || List.length t.closes >= Wire.max_carried_closes then
    expect_unit (rpc t (Wire.Close { fd }))
  else t.closes <- fd :: t.closes;
  Hashtbl.remove t.fds fd

(* As {!Fs.p_read} and {!Fs.p_write}: a length the buffer cannot hold
   fails before anything is sent. *)
let check_len buf len =
  if len < 0 || len > Bytes.length buf then Errors.fail Errors.EINVAL "bad length %d" len

(* Every request on an fd flushes its buffered write first (see
   {!Invfs.Fs.p_lseek}), so one that succeeds leaves the fd clean. *)
let c_read t fd buf len =
  let f = fd_state t fd in
  check_len buf len;
  match rpc t (Wire.Read { fd; off = f.pos; len }) with
  | Wire.R_data s ->
    let n = String.length s in
    Bytes.blit_string s 0 buf 0 n;
    f.pos <- Int64.add f.pos (Int64.of_int n);
    f.dirty <- false;
    n
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let c_write t fd buf len =
  let f = fd_state t fd in
  check_len buf len;
  let data = Bytes.sub_string buf 0 len in
  if in_txn t then f.dirty <- true;
  let n = expect_int (rpc ~pipelined:true t (Wire.Write { fd; off = f.pos; data })) in
  f.pos <- Int64.add f.pos (Int64.of_int len);
  Int64.to_int n

let c_lseek t fd off whence =
  let f = fd_state t fd in
  let base =
    match whence with
    | Fs.Seek_set -> 0L
    | Fs.Seek_cur -> f.pos
    | Fs.Seek_end ->
      let size = expect_int (rpc t (Wire.Filesize { fd })) in
      f.dirty <- false;
      size
  in
  let p = Int64.add base off in
  if p < 0L then Errors.fail Errors.EINVAL "seek before start of file";
  f.pos <- p;
  p

let c_tell t fd = (fd_state t fd).pos

let c_ftruncate t fd size =
  let f = fd_state t fd in
  expect_unit (rpc t (Wire.Ftruncate { fd; size }));
  f.dirty <- false

let c_mkdir t path = expect_unit (rpc t (Wire.Mkdir { path }))

let c_readdir t ?timestamp path =
  match rpc t (Wire.Readdir { path; timestamp }) with
  | Wire.R_names names -> names
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let c_unlink t path = expect_unit (rpc t (Wire.Unlink { path }))
let c_rmdir t path = expect_unit (rpc t (Wire.Rmdir { path }))
let c_rename t src dst = expect_unit (rpc t (Wire.Rename { src; dst }))

let c_stat t ?timestamp path =
  match rpc t (Wire.Stat { path; timestamp }) with
  | Wire.R_att att -> att
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let c_exists t ?timestamp path =
  match rpc t (Wire.Exists { path; timestamp }) with
  | Wire.R_bool v -> v
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let c_query t ?timestamp text =
  match rpc t (Wire.Query { text; timestamp }) with
  | Wire.R_rows rows -> rows
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let c_set_owner t path owner = expect_unit (rpc t (Wire.Set_owner { path; owner }))
let c_set_type t path ftype = expect_unit (rpc t (Wire.Set_type { path; ftype }))
let c_define_type t name = expect_unit (rpc t (Wire.Define_type { name }))

let c_crash_server t =
  match rpc t Wire.Crash_server with
  | Wire.R_unit ->
    (* our session died with the machine; reconnect lazily on next use *)
    session_dead t
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

(* ---------------- cluster (data-plane and admin) wrappers ---------------- *)

let expect_data = function
  | Wire.R_data s -> s
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let c_get_placement t =
  match rpc t Wire.Get_placement with
  | Wire.R_placement p -> p
  | _ -> Errors.fail Errors.EINVAL "remote: malformed reply"

let c_shard_read t ~oid ~off ~len ~epoch =
  expect_data (rpc t (Wire.Shard_read { oid; off; len; epoch }))

let c_shard_write t ~oid ~off ~data ~epoch =
  Int64.to_int (expect_int (rpc ~pipelined:true t (Wire.Shard_write { oid; off; data; epoch })))

let c_shard_truncate t ~oid ~size ~epoch =
  expect_unit (rpc t (Wire.Shard_truncate { oid; size; epoch }))

let c_fetch_chunks t ~oid = expect_data (rpc t (Wire.Fetch_chunks { oid }))

let c_migrate_in t ~oid ~epoch ~data =
  expect_unit (rpc ~pipelined:true t (Wire.Migrate_in { oid; epoch; data }))

let c_drop_bucket t ~bucket ~epoch =
  expect_unit (rpc t (Wire.Drop_bucket { bucket; epoch }))

let c_snapshot t = expect_int (rpc t Wire.Snapshot)
let c_clone t ~src ~dst = expect_unit (rpc t (Wire.Clone { src; dst }))

let c_vacuum_step t ?(pages = 0) () =
  Int64.to_int (expect_int (rpc t (Wire.Vacuum_step { pages })))

(* WTF-style multi-file atomicity: the paper's transaction interface
   ("a set of file operations can be batched inside a single
   transaction") as a client-side combinator.  All-or-nothing across
   faults: the commit acknowledgement is the only success signal, and
   an exception aborts the server-side transaction before re-raising. *)
let with_txn t f =
  if in_txn t then f t
  else begin
    c_begin t;
    match f t with
    | v ->
      c_commit t;
      v
    | exception e ->
      (if in_txn t then try c_abort t with _ -> ());
      raise e
  end

let write_file t path data =
  (* like Fs.write_file: join the caller's open transaction if any,
     otherwise wrap the whole replace in one of our own *)
  let own_txn = not (in_txn t) in
  if own_txn then c_begin t;
  try
    let fd = if c_exists t path then c_open t path Fs.Rdwr else c_creat t path in
    c_ftruncate t fd 0L;
    ignore (c_write t fd data (Bytes.length data) : int);
    c_close t fd;
    if own_txn then c_commit t
  with e ->
    (if own_txn && in_txn t then try c_abort t with _ -> ());
    raise e

(* One [Read_file] per [Wire.max_read_len] bytes, until a short reply:
   a file up to that size costs one round trip and comes from one
   snapshot.  A file whose size is an exact multiple pays one more
   request to learn it has ended. *)
let read_whole_file t ?timestamp path =
  let buf = Buffer.create 256 in
  let rec go off =
    let data =
      expect_data (rpc t (Wire.Read_file { path; timestamp; off; len = Wire.max_read_len }))
    in
    Buffer.add_string buf data;
    if String.length data = Wire.max_read_len then
      go (Int64.add off (Int64.of_int Wire.max_read_len))
  in
  go 0L;
  Buffer.to_bytes buf

let write_many t files =
  with_txn t (fun t -> List.iter (fun (path, data) -> write_file t path data) files)
