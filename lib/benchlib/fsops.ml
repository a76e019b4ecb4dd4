(* The workload shared by the harnesses that drive Inversion sessions,
   local, remote or on a fleet; see fsops.mli. *)

module SM = Oracle.SM
module OM = Oracle.OM
module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Device = Pagestore.Device
module Client = Remote.Client
module Cluster = Remote.Cluster

module Conn = Remote.Conn

(* ---------- workload state ---------- *)

(* A probe answers "did this op's effects commit?" by reading the
   committed state As_of now through a fresh local session (a fleet's
   file content: its shard's authoritative copy).  Historical reads take
   no locks (other sessions may be mid-transaction) and see only
   committed data, which is exactly the question. *)
type probe = { describe : string; check : Fs.session -> int64 -> bool }

type sess = {
  id : int;
  mutable conn : Conn.t;
  ov : Oracle.overlay;
  mutable pending : (Oracle.updates * probe) option;
}

type t = {
  rng : Rng.t;
  ora : Oracle.t;
  fs : Fs.t;
  max_dirs : int;
  max_file_bytes : int;
  sessions : sess array;
  fleet_oids : (int64, int64) Hashtbl.t;
  mutable current : sess option;
  mutable ops_attempted : int;
  mutable ops_applied : int;
  mutable commits : int;
  mutable aborts : int;
  mutable lock_skips : int;
  mutable io_faults : int;
  mutable indeterminate : int;
  mutable landed : int;
  mutable time_travel_checks : int;
  mutable deadline_refusals : int;
}

let create ~rng ~ora ~max_dirs ~max_file_bytes fs conns =
  {
    rng;
    ora;
    fs;
    max_dirs;
    max_file_bytes;
    sessions =
      Array.mapi (fun id conn -> { id; conn; ov = Oracle.overlay (); pending = None }) conns;
    fleet_oids = Hashtbl.create 64;
    current = None;
    ops_attempted = 0;
    ops_applied = 0;
    commits = 0;
    aborts = 0;
    lock_skips = 0;
    io_faults = 0;
    indeterminate = 0;
    landed = 0;
    time_travel_checks = 0;
    deadline_refusals = 0;
  }

(* ---------- the fleet's data plane ---------- *)

(* A fleet session's file data is addressed by the oid the coordinator
   assigned: learn it by stat on the first data call that names the
   file, and keep it for every session of the workload.  Every other
   call goes through [Conn]. *)
let fleet = function Conn.Fleet f -> Some f | Conn.Local _ | Conn.Remote _ -> None

let fleet_oid w conn path oid =
  match fleet conn with
  | None -> None
  | Some f ->
    let real =
      match Hashtbl.find_opt w.fleet_oids oid with
      | Some real -> real
      | None ->
        let real = (Client.c_stat (Cluster.coord f) path).Invfs.Fileatt.file in
        Hashtbl.replace w.fleet_oids oid real;
        real
    in
    Some (f, real)

(* A fleet has no whole-file read: read the oracle's length plus 64
   bytes from the shard, so a file longer than the oracle's shows too. *)
let read_file w conn path ~oid =
  match fleet_oid w conn path oid with
  | None -> Conn.read_whole_file conn path
  | Some (f, real) ->
    let len = Bytes.length (Oracle.content w.ora oid) + 64 in
    Bytes.of_string (Cluster.shard_read f ~oid:real ~off:0L ~len)

let write_segs w conn path ~oid ~off segs =
  match fleet_oid w conn path oid with
  | None ->
    let fd = Conn.open_file conn path Fs.Rdwr in
    ignore (Conn.lseek conn fd (Int64.of_int off) Fs.Seek_set : int64);
    List.iter (fun seg -> ignore (Conn.write conn fd seg (Bytes.length seg) : int)) segs;
    Conn.close conn fd
  | Some (f, real) ->
    let data = Bytes.to_string (Bytes.concat Bytes.empty segs) in
    ignore (Cluster.shard_write f ~oid:real ~off:(Int64.of_int off) ~data : int)

let truncate_file w conn path ~oid len =
  match fleet_oid w conn path oid with
  | None ->
    let fd = Conn.open_file conn path Fs.Rdwr in
    Conn.ftruncate conn fd (Int64.of_int len);
    Conn.close conn fd
  | Some (f, real) -> Cluster.shard_truncate f ~oid:real ~size:(Int64.of_int len)

(* ---------- probes ---------- *)

(* A fleet's file content lives on its shards: the probe reads the
   authoritative copy.  An oid the fleet never learned never reached a
   data call, so nothing of it can have landed. *)
let probe_content w ss path oid expect =
  match fleet ss.conn with
  | None ->
    {
      describe = Printf.sprintf "content of %s" path;
      check =
        (fun s ts ->
          match Fs.read_whole_file s ~timestamp:ts path with
          | real -> Bytes.equal real expect
          | exception Errors.Fs_error _ -> false);
    }
  | Some f ->
    {
      describe = Printf.sprintf "shard content of %s" path;
      check =
        (fun _ _ ->
          match Hashtbl.find_opt w.fleet_oids oid with
          | Some real ->
            String.equal
              (Cluster.peek_data (Cluster.conn_cluster f) ~oid:real)
              (Bytes.to_string expect)
          | None -> false);
    }

let probe_exists path =
  {
    describe = Printf.sprintf "existence of %s" path;
    check = (fun s ts -> Fs.exists s ~timestamp:ts path);
  }

let probe_absent path =
  {
    describe = Printf.sprintf "absence of %s" path;
    check = (fun s ts -> not (Fs.exists s ~timestamp:ts path));
  }

let probe_always =
  { describe = "(no observable difference)"; check = (fun _ _ -> true) }

(* The first update whose committed-vs-new state differs decides the
   probe; if nothing distinguishes, landing and aborting produce the same
   state and "landed" is vacuously true.  Name changes probe first (a
   created or vacated path is the crispest signal); content updates need
   a path that would name the oid after the commit. *)
let probe_of_updates w ss (u : Oracle.updates) =
  let committed = Oracle.names w.ora in
  let tombstoned p = List.exists (fun (q, v) -> q = p && v = None) u.u_names in
  let path_of_oid oid =
    match List.find_opt (fun (_, v) -> v = Some oid) u.u_names with
    | Some (p, _) -> Some p
    | None ->
      SM.fold
        (fun p o acc ->
          if acc = None && o = oid && not (tombstoned p) then Some p else acc)
        committed None
  in
  let rec files = function
    | [] -> (
      match u.u_dirs with [] -> probe_always | d :: _ -> probe_exists d)
    | (oid, b) :: rest -> (
      match path_of_oid oid with
      | None -> files rest
      | Some path -> (
        match OM.find_opt oid (Oracle.files w.ora) with
        | Some cur when Bytes.equal b cur -> files rest
        | _ -> probe_content w ss path oid b))
  in
  let rec names = function
    | [] -> files u.u_files
    | (path, Some _) :: rest ->
      if SM.mem path committed then names rest else probe_exists path
    | (path, None) :: rest ->
      if SM.mem path committed then probe_absent path else names rest
  in
  names u.u_names

(* ---------- ops ----------

   Each mutating op registers [ss.pending] (its updates and the probe
   that would show whether they committed) before its first mutating
   call, and returns the updates on success.  Outside a transaction an
   op makes exactly one mutating call, so the pending record covers
   precisely the call whose outcome a lost session can leave unknown. *)

let create_at w ss path =
  let oid = Oracle.fresh_oid w.ora in
  Oracle.trace w.ora "s%d creat %s -> oid %Ld" ss.id path oid;
  let u =
    { Oracle.no_updates with u_names = [ (path, Some oid) ]; u_files = [ (oid, Bytes.empty) ] }
  in
  ss.pending <- Some (u, probe_exists path);
  Conn.create ss.conn path;
  u

let create_file w ss = create_at w ss (Oracle.fresh_path w.ora ss.ov w.rng "f")

let mkdir w ss =
  if List.length (Oracle.view_dirs w.ora ss.ov) >= w.max_dirs then create_file w ss
  else begin
    let path = Oracle.fresh_path w.ora ss.ov w.rng "d" in
    Oracle.trace w.ora "s%d mkdir %s" ss.id path;
    let u = { Oracle.no_updates with u_dirs = [ path ] } in
    ss.pending <- Some (u, probe_exists path);
    Conn.mkdir ss.conn path;
    u
  end

(* Anywhere up to the end of the file, or, when a write of [total] bytes
   there could outgrow [max_file_bytes], inside the existing extent. *)
let draw_offset w rng ~len total =
  if len + total > w.max_file_bytes then
    if len - total <= 0 then 0 else Rng.int rng (len - total + 1)
  else Rng.int rng (len + 1)

(* Every write ends here, whatever it drew: [segs] in turn from [off]
   of the file at [path], whose identity is [oid]. *)
let write_at w ss path ~oid ~off segs =
  let cur = Oracle.view_content w.ora ss.ov oid in
  let after = Oracle.splice cur ~off (Bytes.concat Bytes.empty segs) in
  let u = { Oracle.no_updates with u_files = [ (oid, after) ] } in
  ss.pending <- Some (u, probe_content w ss path oid after);
  write_segs w ss.conn path ~oid ~off segs;
  u

let write w ss =
  match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> create_file w ss
  | Some (path, oid) ->
    let len = Bytes.length (Oracle.view_content w.ora ss.ov oid) in
    (* Inside a transaction, several sequential writes exercise the
       write-coalescing path; outside, one write is one transaction so
       the op stays atomic (a single large write still spans chunks). *)
    let nseg = if Oracle.in_txn ss.ov then 1 + Rng.int w.rng 3 else 1 in
    let segs = List.init nseg (fun _ -> Rng.bytes w.rng (1 + Rng.int w.rng 6800)) in
    let total = List.fold_left (fun a s -> a + Bytes.length s) 0 segs in
    let off = draw_offset w w.rng ~len total in
    Oracle.trace w.ora "s%d write %s (oid %Ld) off=%d total=%d nseg=%d cur_len=%d" ss.id
      path oid off total nseg len;
    write_at w ss path ~oid ~off segs

let truncate w ~grow ss =
  match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> create_file w ss
  | Some (path, oid) ->
    let cur = Oracle.view_content w.ora ss.ov oid in
    let len = Bytes.length cur in
    let new_len = Rng.int w.rng (min (len + grow) w.max_file_bytes + 1) in
    Oracle.trace w.ora "s%d trunc %s (oid %Ld) %d -> %d" ss.id path oid len new_len;
    let after = Oracle.resize cur new_len in
    let u = { Oracle.no_updates with u_files = [ (oid, after) ] } in
    ss.pending <- Some (u, probe_content w ss path oid after);
    truncate_file w ss.conn path ~oid new_len;
    u

let unlink w ss =
  match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> create_file w ss
  | Some (path, _oid) ->
    Oracle.trace w.ora "s%d unlink %s" ss.id path;
    let u = { Oracle.no_updates with u_names = [ (path, None) ] } in
    ss.pending <- Some (u, probe_absent path);
    Conn.unlink ss.conn path;
    u

let rename w ss =
  match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> create_file w ss
  | Some (path, oid) ->
    let dst = Oracle.fresh_path w.ora ss.ov w.rng "r" in
    Oracle.trace w.ora "s%d rename %s -> %s (oid %Ld)" ss.id path dst oid;
    let u = { Oracle.no_updates with u_names = [ (path, None); (dst, Some oid) ] } in
    ss.pending <- Some (u, probe_exists dst);
    Conn.rename ss.conn path dst;
    u

let read_at w ss path ~oid =
  Oracle.trace w.ora "s%d read %s (oid %Ld)" ss.id path oid;
  let real = read_file w ss.conn path ~oid in
  let expect = Oracle.view_content w.ora ss.ov oid in
  (match Oracle.bytes_diff expect real with
  | None -> ()
  | Some d ->
    let nonzero b =
      let n = ref 0 in
      Bytes.iter (fun c -> if c <> '\000' then incr n) b;
      !n
    in
    Oracle.trace w.ora "  DIVERGED: expect nonzero=%d real nonzero=%d (len %d/%d)"
      (nonzero expect) (nonzero real) (Bytes.length expect) (Bytes.length real);
    Oracle.mismatch w.ora "read %s diverged mid-run: %s" path d);
  Oracle.no_updates

let read_check w ss =
  match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> Oracle.no_updates
  | Some (path, oid) -> read_at w ss path ~oid

let begin_txn w ss =
  Oracle.trace w.ora "s%d begin" ss.id;
  Conn.begin_txn ss.conn;
  Oracle.begin_txn ss.ov;
  Oracle.no_updates

let commit w ss =
  Oracle.trace w.ora "s%d commit" ss.id;
  let u = Oracle.overlay_updates ss.ov in
  ss.pending <- Some (u, probe_of_updates w ss u);
  Conn.commit ss.conn;
  (* merge only after the commit returned: if it raised, nothing lands *)
  Oracle.commit w.ora u;
  Oracle.clear ss.ov;
  w.commits <- w.commits + 1;
  Oracle.no_updates

let abort w ss =
  Oracle.trace w.ora "s%d abort" ss.id;
  Conn.abort ss.conn;
  Oracle.clear ss.ov;
  w.aborts <- w.aborts + 1;
  Oracle.no_updates

(* Weighted op choice.  In-transaction sessions must eventually commit or
   abort; sessions outside a transaction sometimes begin one. *)
let gen_op w ss =
  let r = Rng.int w.rng 100 in
  if Oracle.in_txn ss.ov then
    if r < 30 then write w
    else if r < 40 then create_file w
    else if r < 48 then truncate w ~grow:8000
    else if r < 54 then unlink w
    else if r < 60 then rename w
    else if r < 72 then read_check w
    else if r < 90 then commit w
    else abort w
  else if r < 28 then write w
  else if r < 40 then create_file w
  else if r < 46 then mkdir w
  else if r < 54 then truncate w ~grow:8000
  else if r < 62 then unlink w
  else if r < 70 then rename w
  else if r < 88 then read_check w
  else begin_txn w

(* ---------- running ops ---------- *)

(* Abort when the overlay has a transaction open.  An abort on a dead
   remote session reports success, since aborting is what the loss
   already did; one on a local session whose transaction already ended
   fails, and is ignored.  A fleet session never opens one. *)
let safe_abort w ss =
  if Oracle.in_txn ss.ov then begin
    (try Conn.abort ss.conn with _ -> ());
    w.aborts <- w.aborts + 1
  end;
  Oracle.clear ss.ov

let resolve_indeterminate w ss =
  w.indeterminate <- w.indeterminate + 1;
  match ss.pending with
  | None ->
    Oracle.mismatch w.ora "s%d: indeterminate outcome but no pending op to probe" ss.id
  | Some (u, probe) ->
    let s = Fs.new_session w.fs in
    let ts = Relstore.Db.now (Fs.db w.fs) in
    w.time_travel_checks <- w.time_travel_checks + 1;
    if probe.check s ts then begin
      Oracle.trace w.ora "s%d .. probe of %s: LANDED" ss.id probe.describe;
      w.landed <- w.landed + 1;
      Oracle.commit w.ora u;
      if Oracle.in_txn ss.ov then w.commits <- w.commits + 1
    end
    else begin
      Oracle.trace w.ora "s%d .. probe of %s: did not land" ss.id probe.describe;
      if Oracle.in_txn ss.ov then w.aborts <- w.aborts + 1
    end

type result = Applied | Skipped | Refused

(* The request was refused for its deadline and never executed: the
   session lives on, but the op's transaction cannot, so it aborts like
   a lock skip. *)
let refuse w ss why =
  Oracle.trace w.ora "s%d .. deadline refusal: %s" ss.id why;
  w.deadline_refusals <- w.deadline_refusals + 1;
  safe_abort w ss;
  Refused

let apply w ss op =
  ss.pending <- None;
  w.current <- Some ss;
  let result =
    match op ss with
    | u ->
      Oracle.record w.ora ss.ov u;
      w.ops_applied <- w.ops_applied + 1;
      Applied
    | exception Errors.Fs_error (Errors.ECONNRESET, msg) ->
      Oracle.trace w.ora "s%d .. ECONNRESET: %s" ss.id msg;
      (* the session died.  If the outcome is ambiguous (a commit or an
         auto-commit mutation may or may not have applied), probe the
         committed state; a clean "transaction aborted" just drops the
         overlay: the server rolled everything back. *)
      if Client.outcome_indeterminate msg then resolve_indeterminate w ss
      else if Oracle.in_txn ss.ov then w.aborts <- w.aborts + 1;
      Oracle.clear ss.ov;
      Skipped
    | exception Device.Io_fault _ ->
      Oracle.trace w.ora "s%d .. io fault" ss.id;
      w.io_faults <- w.io_faults + 1;
      safe_abort w ss;
      Skipped
    | exception Device.Media_failure { device; segid; blkno; reason } ->
      (* Retry and mirror failover must absorb every permanent media fault
         before an op sees it, so this is a finding. *)
      Oracle.mismatch w.ora "op hit media failure on %s/%d/%d: %s" device segid blkno
        reason;
      safe_abort w ss;
      Skipped
    | exception Not_found ->
      (* commit found a file unlinked by a concurrent session: the
         transaction cannot complete *)
      safe_abort w ss;
      Skipped
    | exception Errors.Fs_error (code, msg) -> (
      match (code, msg) with
      | _ when Client.deadline_refusal code msg -> refuse w ss msg
      | (Errors.EAGAIN | Errors.EDEADLK | Errors.ETIMEDOUT), _ ->
        Oracle.trace w.ora "s%d .. lock skip" ss.id;
        w.lock_skips <- w.lock_skips + 1;
        safe_abort w ss;
        Skipped
      | Errors.ENOENT, "raced with a concurrent unlink" ->
        (* the server's answer to the same Not_found *)
        Oracle.trace w.ora "s%d .. unlink race" ss.id;
        safe_abort w ss;
        Skipped
      | _ ->
        Oracle.mismatch w.ora "unexpected fs error %s: %s" (Errors.code_to_string code) msg;
        safe_abort w ss;
        Skipped)
  in
  ss.pending <- None;
  w.current <- None;
  result

let run_one w ~gen ~crash =
  w.ops_attempted <- w.ops_attempted + 1;
  Oracle.trace w.ora "-- op %d" w.ops_attempted;
  let ss = w.sessions.(Rng.int w.rng (Array.length w.sessions)) in
  let op = gen ss in
  match apply w ss op with
  | Applied | Skipped -> ()
  | Refused ->
    (* no harness that draws its own sessions sets a deadline *)
    Oracle.mismatch w.ora "s%d: request refused for its deadline" ss.id
  | exception Device.Crash_injected _ ->
    crash ();
    ss.pending <- None;
    w.current <- None

let recovered w =
  (* pre-crash sessions are dead: fresh ones, uncommitted overlays gone *)
  let fresh =
    Array.map
      (fun ss ->
        let s = Fs.new_session w.fs in
        ss.conn <- Conn.Local s;
        Oracle.clear ss.ov;
        s)
      w.sessions
  in
  Oracle.verify w.ora fresh.(0) ~phase:"post-crash";
  w.time_travel_checks <- w.time_travel_checks + Oracle.check_time_travel w.ora fresh.(0)
