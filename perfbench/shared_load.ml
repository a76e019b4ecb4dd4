(* The [shared-load] workload: client/server, 64 sessions from one process,
   a few hundred 2 KB files in 8 tenant directories, Zipf (theta 1.1)
   popularity over each tenant's files, the load harness's mix (60% read, 25% write, 10% create, 5%
   time travel; one op in 12 opens a 3-mutation transaction), and the
   server's background archive vacuum onto a disk + WORM jukebox switch.

   Two phases over the same system: a closed loop (every op due at once)
   gives the simulated throughput; an open loop at one absolute offered
   rate, drawn up front from the seed with [Loadtest.schedule], gives every
   latency.  Each op is timed from its scheduled arrival.

   Sessions are applications: an op refused for a lock conflict (or shed)
   is retried by its session after a jittered backoff — a transaction is
   aborted and replayed from its begin — and the session's later ops wait
   behind it.  So no op is lost; contention shows as latency and as
   attempts per op. *)

open Bench
module Rng = Simclock.Rng
module Client = Remote.Client
module L = Benchlib.Loadtest
module Errors = Invfs.Errors

type cfg = {
  clients : int;
  tenants : int;
  files : int;
  file_bytes : int;
  closed_ops : int;
  open_ops : int;
}

let full = { clients = 64; tenants = 8; files = 256; file_bytes = 2048; closed_ops = 300; open_ops = 2400 }
let tiny = { clients = 8; tenants = 2; files = 16; file_bytes = 2048; closed_ops = 40; open_ops = 80 }

(* The open loop's offered rate, in ops per simulated second: about 3/4 of
   the closed-loop capacity measured when this benchmark was defined.  It is
   absolute on purpose — a faster system is offered the same load as its
   parent, not more. *)
let offered_rate = 10.
let max_file_bytes = 16 * 1024
let max_attempts = 64

let sched_config (cfg : cfg) =
  {
    L.default_config with
    clients = cfg.clients;
    tenants = cfg.tenants;
    zipf_theta = 1.1;
    write_pct = 25;
    create_pct = 10;
    time_travel_pct = 5;
    txn_every = 12;
    txn_len = 3;
  }

type sess = {
  tenant : int;
  c : Client.t;
  brng : Rng.t;  (** backoff jitter *)
  q : L.op Queue.t;  (** this session's due ops, in order *)
  mutable retry_at : float;
  mutable attempts : int;  (** of the head op *)
  mutable started : float;  (** first start of the head op; nan before *)
  mutable arrival : float;  (** when the head op was due, for its latency *)
  mutable txn_t : float;  (** when the open transaction's last step finished *)
  mutable in_txn : bool;
  mutable replay : bool;  (** the open transaction was aborted; re-run it *)
  mutable txn_log : L.op list;  (** mutations done in the open transaction, newest first *)
  ov : (string, bytes) Hashtbl.t;  (** uncommitted contents, by path *)
  mutable ov_new : string list;  (** uncommitted creates *)
}

(* A tenant's committed files in creation order (its Zipf rank order), with
   the cumulative Zipf weights the popularity draws are inverted against. *)
type popn = { mutable paths : string array; mutable n : int; mutable cums : float array }

type st = {
  cfg : cfg;
  sys : system;
  ck : checker;
  sess : sess array;
  files : (string, bytes) Hashtbl.t;  (** committed contents *)
  pops : popn array;  (** per tenant *)
  mutable history : (int64 * (string * bytes) array) list;
  mutable phase_id : int;
  mutable failed : int;
}

let add_file st ~tenant path data =
  Hashtbl.replace st.files path data;
  let p = st.pops.(tenant) in
  if p.n = Array.length p.paths then begin
    let grow a fill =
      let b = Array.make (2 * p.n) fill in
      Array.blit a 0 b 0 p.n;
      b
    in
    p.paths <- grow p.paths "";
    p.cums <- grow p.cums 0.
  end;
  let prev = if p.n = 0 then 0. else p.cums.(p.n - 1) in
  p.paths.(p.n) <- path;
  p.cums.(p.n) <- prev +. (1. /. (float_of_int (p.n + 1) ** 1.1));
  p.n <- p.n + 1

(* Popularity is per tenant: a session works on its own tenant's files. *)
let zipf_pick st se u =
  let p = st.pops.(se.tenant) in
  let target = u *. p.cums.(p.n - 1) in
  let lo = ref 0 and hi = ref (p.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.cums.(mid) > target then hi := mid else lo := mid + 1
  done;
  p.paths.(!lo)

let view st se path =
  match Hashtbl.find_opt se.ov path with
  | Some b -> b
  | None -> Hashtbl.find st.files path

let splice cur ~off data =
  let len = Bytes.length cur and dlen = Bytes.length data in
  let out = Bytes.make (max len (off + dlen)) '\000' in
  Bytes.blit cur 0 out 0 len;
  Bytes.blit data 0 out off dlen;
  out

let clear_txn se =
  se.in_txn <- false;
  se.replay <- false;
  se.txn_log <- [];
  Hashtbl.reset se.ov;
  se.ov_new <- []

(* ---------- the ops ---------- *)

let exec_read st se (op : L.op) =
  let path = zipf_pick st se op.o_u in
  let real = Client.read_whole_file se.c path in
  check_bytes st.ck ("read " ^ path) ~expect:(view st se path) real;
  Bytes.length real

let exec_write st se (op : L.op) =
  let path = zipf_pick st se op.o_u in
  let orng = Rng.create op.o_seed in
  let cur = view st se path in
  let len = Bytes.length cur in
  let dlen = 1 + Rng.int orng 1024 in
  let off =
    if len + dlen > max_file_bytes then Rng.int orng (max 1 (len - dlen + 1))
    else Rng.int orng (len + 1)
  in
  let data = Rng.bytes orng dlen in
  let fd = Client.c_open se.c path Fs.Rdwr in
  ignore (Client.c_lseek se.c fd (Int64.of_int off) Fs.Seek_set : int64);
  ignore (Client.c_write se.c fd data dlen : int);
  (* the write RPC is the commit point outside a transaction *)
  let after = splice cur ~off data in
  if se.in_txn then Hashtbl.replace se.ov path after else Hashtbl.replace st.files path after;
  Client.c_close se.c fd;
  dlen

let exec_create st se (op : L.op) =
  let path = Printf.sprintf "/t%d/p%d_%d" se.tenant st.phase_id op.o_idx in
  let fd = Client.c_creat se.c path in
  if se.in_txn then begin
    Hashtbl.replace se.ov path Bytes.empty;
    se.ov_new <- path :: se.ov_new
  end
  else add_file st ~tenant:se.tenant path Bytes.empty;
  Client.c_close se.c fd;
  0

let exec_time_travel st se (op : L.op) =
  let orng = Rng.create op.o_seed in
  let ts, snap = List.nth st.history (Rng.int orng (List.length st.history)) in
  let path, expect = snap.(Rng.int orng (Array.length snap)) in
  let real = Client.read_whole_file se.c ~timestamp:ts path in
  check_bytes st.ck (Printf.sprintf "read %s as of %Ld" path ts) ~expect real;
  Bytes.length real

let commit_overlay st se =
  List.iter (fun p -> add_file st ~tenant:se.tenant p (Hashtbl.find se.ov p)) (List.rev se.ov_new);
  Hashtbl.iter (fun p b -> if not (List.mem p se.ov_new) then Hashtbl.replace st.files p b) se.ov;
  clear_txn se

let exec_op st se (op : L.op) =
  match op.o_kind with
  | L.Read -> exec_read st se op
  | L.Write -> exec_write st se op
  | L.Create -> exec_create st se op
  | L.Time_travel -> exec_time_travel st se op
  | L.Begin ->
    if not se.in_txn then begin
      Client.c_begin se.c;
      se.in_txn <- true
    end;
    0
  | L.Commit ->
    if se.in_txn then begin
      Client.c_commit se.c;
      commit_overlay st se
    end;
    0

let cls_of (op : L.op) =
  match op.o_kind with L.Read | L.Time_travel -> Read | _ -> Write

let retryable = function
  | Errors.Fs_error ((Errors.EAGAIN | Errors.EDEADLK | Errors.ETIMEDOUT | Errors.EBUSY), _) -> true
  | _ -> false

(* One attempt at the session's head op.  A transaction aborted by an
   earlier conflict is first re-run from its begin. *)
let attempt st se (op : L.op) =
  if se.replay then begin
    se.replay <- false;
    Client.c_begin se.c;
    se.in_txn <- true;
    List.iter (fun o -> ignore (exec_op st se o : int)) (List.rev se.txn_log)
  end;
  let n = exec_op st se op in
  if se.in_txn && (op.o_kind = L.Write || op.o_kind = L.Create) then se.txn_log <- op :: se.txn_log;
  n

let backoff se =
  let base = 0.02 *. (2. ** float_of_int (min 4 (se.attempts - 1))) in
  base *. (0.5 +. Rng.float se.brng 1.0)

(* ---------- the engine ---------- *)

let in_txn_mode se = se.in_txn || se.replay

(* An op is due at its scheduled arrival, except inside a transaction: an
   application issues its transaction's statements back to back, so each
   step is due when the previous one finished. *)
let due_at se ~t0 (op : L.op) =
  let scheduled = t0 +. op.o_arrival in
  if in_txn_mode se then Float.min se.txn_t scheduled else scheduled

(* Run every op of [sched] to completion.  Sessions are served in order of
   when their head op is due (a retry: after its backoff), transaction
   steps first among ops due at the same instant; when nothing is due the
   simulated clock skips ahead. *)
let run_phase st tr ~t0 ~next_op sched =
  let clock = st.sys.clock in
  List.iter (fun (op : L.op) -> Queue.push op st.sess.(op.o_client).q) sched;
  let remaining = ref (List.length sched) in
  let samples = ref [] and user = ref 0 and written = ref 0 in
  while !remaining > 0 do
    let best = ref (-1) and best_key = ref (infinity, true, max_int) in
    Array.iteri
      (fun i se ->
        if not (Queue.is_empty se.q) then begin
          let op = Queue.peek se.q in
          let key = (Float.max (due_at se ~t0 op) se.retry_at, not (in_txn_mode se), op.L.o_idx) in
          if compare key !best_key < 0 then begin
            best := i;
            best_key := key
          end
        end)
      st.sess;
    let due, _, _ = !best_key in
    let se = st.sess.(!best) in
    let op = Queue.peek se.q in
    let now = Clock.now clock in
    if now < due then Clock.advance clock ~account:"bench.idle" (due -. now);
    let start = Clock.now clock in
    if Float.is_nan se.started then begin
      se.started <- start;
      se.arrival <- due_at se ~t0 op
    end;
    let arrival = se.arrival in
    se.attempts <- se.attempts + 1;
    let kind = L.kind_to_string op.o_kind and cls = cls_of op in
    let w0 = wall () in
    let outcome =
      match
        traced tr st.sys ~op:(next_op + op.o_idx) ~kind ~cls ~attempt:se.attempts (fun () ->
            attempt st se op)
      with
      | n -> `Done n
      | exception e when retryable e -> `Retry
    in
    let wall_us = (wall () -. w0) *. 1e6 in
    let finish () =
      let done_t = Clock.now clock in
      samples :=
        {
          kind;
          cls;
          wall_us;
          sim_ms = (done_t -. arrival) *. 1e3;
          queue_ms = (se.started -. arrival) *. 1e3;
          attempts = se.attempts;
        }
        :: !samples;
      ignore (Queue.pop se.q : L.op);
      se.attempts <- 0;
      se.started <- nan;
      se.retry_at <- neg_infinity;
      se.txn_t <- done_t;
      decr remaining;
      (* A transaction whose commit the schedule never brings would hold
         its locks to the end of the phase: abort it now, untimed. *)
      if Queue.is_empty se.q && in_txn_mode se then begin
        if se.in_txn then (try Client.c_abort se.c with Errors.Fs_error _ -> ());
        clear_txn se
      end
    in
    match outcome with
    | `Done n ->
      user := !user + n;
      if cls = Write then written := !written + n;
      finish ()
    | `Retry ->
      if se.in_txn then begin
        (try Client.c_abort se.c with Errors.Fs_error _ -> ());
        let log = se.txn_log in
        clear_txn se;
        se.txn_log <- log;
        se.replay <- true
      end;
      if se.attempts >= max_attempts then begin
        fail st.ck "%s op %d gave up after %d attempts" kind op.o_idx se.attempts;
        st.failed <- st.failed + 1;
        clear_txn se;
        finish ()
      end
      else se.retry_at <- Clock.now clock +. backoff se
  done;
  (List.rev !samples, !user, !written)

let take_snapshot st =
  let ts = Client.c_snapshot st.sess.(0).c in
  let snap =
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun p b acc -> (p, Bytes.copy b) :: acc) st.files []))
  in
  st.history <- (ts, snap) :: st.history;
  (* As_of visibility is <=, so no later commit may share the instant *)
  Clock.advance st.sys.clock ~account:"bench.mark" 1e-6

let setup (cfg : cfg) ~seed =
  let rng = Rng.create seed in
  let clock, db, fs = build_db ~jukebox:true () in
  let server =
    Remote.Server.create ~fs ~lease_s:0. ~lock_wait_s:0. ~vacuum_every_s:1.0 ~vacuum_pages:4 ()
  in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let sys = { clock; db; fs; net = Some net; server = Some server } in
  let mk id =
    {
      tenant = id * cfg.tenants / cfg.clients;
      c = Client.connect ~server ~link:(Netsim.Link.create net) ~rng:(Rng.split rng) ();
      brng = Rng.split rng;
      q = Queue.create ();
      retry_at = neg_infinity;
      attempts = 0;
      started = nan;
      arrival = nan;
      txn_t = nan;
      in_txn = false;
      replay = false;
      txn_log = [];
      ov = Hashtbl.create 8;
      ov_new = [];
    }
  in
  let st =
    {
      cfg;
      sys;
      ck = checker ();
      sess = Array.init cfg.clients mk;
      files = Hashtbl.create 1024;
      pops =
        Array.init cfg.tenants (fun _ -> { paths = Array.make 64 ""; n = 0; cums = Array.make 64 0. });
      history = [];
      phase_id = 0;
      failed = 0;
    }
  in
  for t = 0 to cfg.tenants - 1 do
    Client.c_mkdir st.sess.(0).c (Printf.sprintf "/t%d" t)
  done;
  for i = 0 to cfg.files - 1 do
    let se = st.sess.(i mod cfg.clients) in
    let path = Printf.sprintf "/t%d/f%d" se.tenant i in
    let data = Rng.bytes rng cfg.file_bytes in
    Client.write_file se.c path data;
    add_file st ~tenant:se.tenant path data
  done;
  (* Archive the populate's dead attribute versions now, so the jukebox
     platter is already in the drive when measurement starts: its one-time
     multi-second exchange would otherwise land on a random op. *)
  ignore (Fs.vacuum_all fs ~mode:`Archive () : Relstore.Vacuum.stats);
  take_snapshot st;
  (st, Rng.next rng, Rng.next rng)

let run (cfg : cfg) ~seed ~tracer:tr =
  let w0 = wall () in
  let st, closed_seed, open_seed = setup cfg ~seed in
  let setup_s = wall () -. w0 in
  let scfg = sched_config cfg in
  let a = snapshot st.sys in
  (* closed loop: every op due at once *)
  let closed = L.schedule ~config:scfg ~seed:closed_seed ~rate:1e12 ~ops:cfg.closed_ops in
  let t0 = Clock.now st.sys.clock in
  let c_samples, c_user, c_written = run_phase st tr ~t0 ~next_op:0 closed in
  let closed_sim_s = Clock.now st.sys.clock -. t0 in
  st.phase_id <- 1;
  take_snapshot st;
  (* open loop at the absolute offered rate *)
  let sched = L.schedule ~config:scfg ~seed:open_seed ~rate:offered_rate ~ops:cfg.open_ops in
  let t0 = Clock.now st.sys.clock in
  let o_samples, o_user, o_written = run_phase st tr ~t0 ~next_op:cfg.closed_ops sched in
  let last_arrival = List.fold_left (fun acc (o : L.op) -> Float.max acc o.o_arrival) 0. sched in
  let open_span_s = Float.max last_arrival (Clock.now st.sys.clock -. t0) in
  let phase = diff a (snapshot st.sys) in
  let space_amp = space_amp st.sys ~expect:st.files in
  let recovery_s, recovery_sim_s = crash_and_verify st.ck st.sys ~expect:st.files in
  ( {
      setup_s;
      samples = c_samples @ o_samples;
      lat = o_samples;
      phase;
      sim_ops_s = float_of_int cfg.closed_ops /. closed_sim_s;
      slo_goodput_ops_s = slo_goodput o_samples ~span_s:open_span_s;
      user_bytes = c_user + o_user;
      user_written = c_written + o_written;
      space_amp;
      recovery_s;
      recovery_sim_s;
      failed = st.failed;
      target =
        (let p = st.pops.(0) in
         { t_sys = st.sys; t_paths = Array.sub p.paths 0 (min 64 p.n); t_chunk_path = p.paths.(0) });
    },
    st.ck )
