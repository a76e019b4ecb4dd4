(* The local-session workload shared by Crashtest and Vacuumtest; see
   fsops.mli. *)

module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Device = Pagestore.Device

type sess = { id : int; mutable s : Fs.session; ov : Oracle.overlay }

type t = {
  rng : Rng.t;
  ora : Oracle.t;
  max_dirs : int;
  sessions : sess array;
  mutable ops_attempted : int;
  mutable ops_applied : int;
  mutable commits : int;
  mutable aborts : int;
  mutable lock_skips : int;
  mutable io_faults : int;
  mutable time_travel_checks : int;
}

let create ~rng ~ora ~max_dirs ~sessions fs =
  {
    rng;
    ora;
    max_dirs;
    sessions =
      Array.init sessions (fun id ->
          { id; s = Fs.new_session fs; ov = Oracle.overlay () });
    ops_attempted = 0;
    ops_applied = 0;
    commits = 0;
    aborts = 0;
    lock_skips = 0;
    io_faults = 0;
    time_travel_checks = 0;
  }

(* ---------- ops ---------- *)

let create_file w ss =
  let path = Oracle.fresh_path w.ora ss.ov w.rng "f" in
  let fd = Fs.p_creat ss.s path in
  let oid = Fs.fd_oid ss.s fd in
  Fs.p_close ss.s fd;
  Oracle.trace w.ora "s%d creat %s -> oid %Ld" ss.id path oid;
  let u_names = [ (path, Some oid) ] and u_files = [ (oid, Bytes.empty) ] in
  { Oracle.no_updates with u_names; u_files }

let mkdir w ss =
  if List.length (Oracle.view_dirs w.ora ss.ov) >= w.max_dirs then create_file w ss
  else begin
    let path = Oracle.fresh_path w.ora ss.ov w.rng "d" in
    Fs.mkdir ss.s path;
    Oracle.trace w.ora "s%d mkdir %s" ss.id path;
    { Oracle.no_updates with u_dirs = [ path ] }
  end

let unlink w ss =
  match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> create_file w ss
  | Some (path, _oid) ->
    Oracle.trace w.ora "s%d unlink %s" ss.id path;
    Fs.unlink ss.s path;
    { Oracle.no_updates with u_names = [ (path, None) ] }

let rename w ss =
  match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> create_file w ss
  | Some (path, oid) ->
    let dst = Oracle.fresh_path w.ora ss.ov w.rng "r" in
    Oracle.trace w.ora "s%d rename %s -> %s (oid %Ld)" ss.id path dst oid;
    Fs.rename ss.s path dst;
    { Oracle.no_updates with u_names = [ (path, None); (dst, Some oid) ] }

let read_check w ss =
  (match Oracle.pick_file w.ora ss.ov w.rng with
  | None -> ()
  | Some (path, oid) -> (
    Oracle.trace w.ora "s%d read %s (oid %Ld)" ss.id path oid;
    let real = Fs.read_whole_file ss.s path in
    let expect = Oracle.view_content w.ora ss.ov oid in
    match Oracle.bytes_diff expect real with
    | None -> ()
    | Some d ->
      let nonzero b =
        let n = ref 0 in
        Bytes.iter (fun c -> if c <> '\000' then incr n) b;
        !n
      in
      Oracle.trace w.ora "  DIVERGED: expect nonzero=%d real nonzero=%d (len %d/%d)"
        (nonzero expect) (nonzero real) (Bytes.length expect) (Bytes.length real);
      Oracle.mismatch w.ora "read %s diverged mid-run: %s" path d));
  Oracle.no_updates

let begin_txn w ss =
  Oracle.trace w.ora "s%d begin" ss.id;
  Fs.p_begin ss.s;
  Oracle.begin_txn ss.ov;
  Oracle.no_updates

let commit w ss =
  Oracle.trace w.ora "s%d commit" ss.id;
  Fs.p_commit ss.s;
  (* merge only after p_commit returned: if it raised, nothing lands *)
  Oracle.commit w.ora (Oracle.overlay_updates ss.ov);
  Oracle.clear ss.ov;
  w.commits <- w.commits + 1;
  Oracle.no_updates

let abort w ss =
  Oracle.trace w.ora "s%d abort" ss.id;
  Fs.p_abort ss.s;
  Oracle.clear ss.ov;
  w.aborts <- w.aborts + 1;
  Oracle.no_updates

(* ---------- running ops ---------- *)

let safe_abort w ss =
  if Fs.in_transaction ss.s then (try Fs.p_abort ss.s with _ -> ());
  if Oracle.in_txn ss.ov then w.aborts <- w.aborts + 1;
  Oracle.clear ss.ov

let run_one w ~gen ~crash =
  w.ops_attempted <- w.ops_attempted + 1;
  Oracle.trace w.ora "-- op %d" w.ops_attempted;
  let ss = w.sessions.(Rng.int w.rng (Array.length w.sessions)) in
  let op = gen ss in
  match op ss with
  | u ->
    Oracle.record w.ora ss.ov u;
    w.ops_applied <- w.ops_applied + 1
  | exception Device.Crash_injected _ -> crash ()
  | exception Device.Io_fault _ ->
    Oracle.trace w.ora "s%d .. io fault" ss.id;
    w.io_faults <- w.io_faults + 1;
    safe_abort w ss
  | exception Device.Media_failure { device; segid; blkno; reason } ->
    (* Retry and mirror failover must absorb every permanent media fault
       before an op sees it, so this is a finding. *)
    Oracle.mismatch w.ora "op hit media failure on %s/%d/%d: %s" device segid blkno
      reason;
    safe_abort w ss
  | exception Errors.Fs_error ((Errors.EAGAIN | Errors.EDEADLK), _) ->
    Oracle.trace w.ora "s%d .. lock skip" ss.id;
    w.lock_skips <- w.lock_skips + 1;
    safe_abort w ss
  | exception Not_found ->
    (* commit found a file unlinked by a concurrent session: the
       transaction cannot complete *)
    safe_abort w ss
  | exception Errors.Fs_error (code, msg) ->
    Oracle.mismatch w.ora "unexpected fs error %s: %s" (Errors.code_to_string code) msg;
    safe_abort w ss

let recovered w fs =
  (* pre-crash sessions are dead: fresh ones, uncommitted overlays gone *)
  Array.iter
    (fun ss ->
      ss.s <- Fs.new_session fs;
      Oracle.clear ss.ov)
    w.sessions;
  let s0 = w.sessions.(0).s in
  Oracle.verify w.ora s0 ~phase:"post-crash";
  w.time_travel_checks <- w.time_travel_checks + Oracle.check_time_travel w.ora s0
