(* The benchmark harness itself: system configurations behave, the
   workload produces sane results, the reports hold the paper's shape.
   A small (2 MB) file keeps this fast; shape assertions are the point. *)

module W = Benchlib.Workload
module S = Benchlib.Systems
module R = Benchlib.Report

let mb = 2

let run_cached =
  let memo = Hashtbl.create 4 in
  fun name mk ->
    match Hashtbl.find_opt memo name with
    | Some r -> r
    | None ->
      let r = W.run ~file_mb:mb (mk ()) in
      Hashtbl.replace memo name r;
      r

let inv_cs () = run_cached "cs" (fun () -> S.inversion_client_server ())
let nfs () = run_cached "nfs" (fun () -> S.ultrix_nfs ())
let inv_sp () = run_cached "sp" (fun () -> S.inversion_single_process ())

let test_all_ops_present () =
  let r = inv_sp () in
  List.iter
    (fun op ->
      let t = W.find r op in
      if t <= 0. then Alcotest.failf "%s has non-positive time %f" (W.op_label op) t)
    W.all_ops

let test_deterministic () =
  let a = W.run ~file_mb:mb (S.inversion_single_process ()) in
  let b = W.run ~file_mb:mb (S.inversion_single_process ()) in
  List.iter
    (fun op ->
      Alcotest.(check (float 1e-9)) (W.op_label op) (W.find a op) (W.find b op))
    W.all_ops

let test_file_contents_survive_workload () =
  (* the workload's own reads must return what its writes stored: run a
     verification read through the same system *)
  let sys = S.inversion_single_process () in
  let r = W.run ~file_mb:mb sys in
  ignore r;
  let f = sys.S.open_file "/bench.dat" in
  let n = sys.S.read f ~off:0L ~len:4096 in
  Alcotest.(check int) "file still readable" 4096 n

let test_shape_nfs_wins_create () =
  Alcotest.(check bool) "create ordering" true
    (W.find (nfs ()) W.Create_file < W.find (inv_sp ()) W.Create_file
    && W.find (inv_sp ()) W.Create_file < W.find (inv_cs ()) W.Create_file)

let test_shape_single_process_fastest_reads () =
  List.iter
    (fun op ->
      Alcotest.(check bool) (W.op_label op) true
        (W.find (inv_sp ()) op < W.find (nfs ()) op
        && W.find (inv_sp ()) op < W.find (inv_cs ()) op))
    [ W.Read_1mb_single; W.Read_1mb_seq ]

let test_shape_inversion_pct_of_nfs () =
  (* the paper's headline: between 30 and 80 percent of NFS throughput *)
  let pcts =
    List.map
      (fun op -> R.throughput_pct (inv_cs ()) (nfs ()) op)
      [ W.Read_1mb_single; W.Read_1mb_seq; W.Read_1mb_rand; W.Write_1mb_seq ]
  in
  List.iter
    (fun pct ->
      Alcotest.(check bool) (Printf.sprintf "%.0f%% within 15..110" pct) true
        (pct > 15. && pct < 110.))
    pcts

let test_shape_presto_random_writes () =
  let r = nfs () in
  Alcotest.(check bool) "random no worse than sequential" true
    (W.find r W.Write_1mb_rand <= W.find r W.Write_1mb_seq *. 1.15)

let test_no_presto_slower () =
  let bare = W.run ~file_mb:mb (S.ultrix_nfs ~presto:false ()) in
  Alcotest.(check bool) "writes slower without NVRAM" true
    (W.find bare W.Write_1mb_seq > W.find (nfs ()) W.Write_1mb_seq)

let test_cpu_scale_moves_times () =
  let fast = W.run ~file_mb:mb (S.inversion_single_process ~cpu_scale:0.0 ()) in
  Alcotest.(check bool) "free CPU is faster" true
    (W.find fast W.Create_file < W.find (inv_sp ()) W.Create_file)

let test_paper_numbers_complete () =
  List.iter
    (fun op ->
      let row = Benchlib.Paper.table3 op in
      Alcotest.(check bool) (W.op_label op) true
        (row.Benchlib.Paper.inv_cs > 0. && row.Benchlib.Paper.nfs > 0.
       && row.Benchlib.Paper.inv_sp > 0.))
    W.all_ops;
  (* figures partition a subset of table 3 *)
  let fig_ops =
    List.concat_map Benchlib.Paper.figure_ops [ `Fig3; `Fig4; `Fig5; `Fig6 ]
  in
  Alcotest.(check int) "figures cover all nine ops" 9 (List.length fig_ops)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_reports_render () =
  let t = R.table3 ~inv_cs:(inv_cs ()) ~nfs:(nfs ()) ~inv_sp:(inv_sp ()) in
  Alcotest.(check bool) "table mentions every op" true
    (List.for_all (fun op -> contains t (W.op_label op)) W.all_ops);
  let fig = R.figure `Fig5 ~inv_cs:(inv_cs ()) ~nfs:(nfs ()) () in
  Alcotest.(check bool) "figure has title" true (contains fig "Figure 5");
  let checks = R.shape_check ~inv_cs:(inv_cs ()) ~nfs:(nfs ()) ~inv_sp:(inv_sp ()) in
  Alcotest.(check bool) "shape checks pass at 2MB" true (not (contains checks "FAIL"))

let test_sequoia_workload () =
  let r = Benchlib.Sequoia.run ~images:8 ~image_kb:96 () in
  Alcotest.(check int) "seven phases" 7 (List.length r.Benchlib.Sequoia.phases);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s took time" p.Benchlib.Sequoia.phase_name)
        true
        (p.Benchlib.Sequoia.elapsed_s > 0.))
    r.Benchlib.Sequoia.phases;
  let vacuum = List.nth r.Benchlib.Sequoia.phases 6 in
  Alcotest.(check bool) "audit clean" true
    (contains vacuum.Benchlib.Sequoia.detail "audit clean");
  let migration = List.nth r.Benchlib.Sequoia.phases 4 in
  Alcotest.(check bool) "images migrated" true
    (contains migration.Benchlib.Sequoia.detail "moved 8 files")

let test_sequoia_deterministic () =
  let a = Benchlib.Sequoia.run ~images:5 ~image_kb:8 () in
  let b = Benchlib.Sequoia.run ~images:5 ~image_kb:8 () in
  List.iter2
    (fun (p : Benchlib.Sequoia.phase) (q : Benchlib.Sequoia.phase) ->
      Alcotest.(check (float 1e-9)) p.Benchlib.Sequoia.phase_name
        p.Benchlib.Sequoia.elapsed_s q.Benchlib.Sequoia.elapsed_s)
    a.Benchlib.Sequoia.phases b.Benchlib.Sequoia.phases

module Lt = Benchlib.Loadtest

(* Smaller than quick_config: these run on every `dune runtest` next to
   the 3-seed sweep, so they only need to prove replay identity. *)
let tiny_load =
  {
    Lt.quick_config with
    Lt.clients = 6;
    initial_files = 8;
    ops_per_level = 30;
    calibration_ops = 10;
    load_factors = [ 0.5; 1.5 ];
  }

let test_load_schedule_deterministic () =
  let digest seed = Lt.schedule_digest ~config:tiny_load ~seed ~rate:50. ~ops:30 in
  Alcotest.(check string) "same seed, byte-identical schedule" (digest 7L)
    (digest 7L);
  Alcotest.(check bool) "different seed, different schedule" true
    (digest 7L <> digest 8L);
  let render seed =
    Lt.schedule_render (Lt.schedule ~config:tiny_load ~seed ~rate:50. ~ops:30)
  in
  Alcotest.(check string) "render replays byte-identically" (render 7L)
    (render 7L)

let test_load_outcome_deterministic () =
  (* same seed must reproduce the whole outcome — throughput, quantiles,
     knee, commit/abort counts — and stay oracle-clean *)
  let o1 = Lt.run ~config:tiny_load ~seed:7L () in
  let o2 = Lt.run ~config:tiny_load ~seed:7L () in
  Alcotest.(check string) "identical outcome" (Lt.outcome_to_string o1)
    (Lt.outcome_to_string o2);
  Alcotest.(check (list string)) "no oracle mismatches" [] o1.Lt.mismatches


module O = Benchlib.Oracle

(* A transaction's rename moves the oid, not a frozen copy of its
   content: another session's write committed meanwhile survives. *)
let test_oracle_rename_keeps_concurrent_write () =
  let ora = O.create ~trace:false ~depth:8 in
  let v1 = Bytes.of_string "v1" in
  O.commit ora { O.no_updates with u_names = [ ("/a", Some 7L) ]; u_files = [ (7L, v1) ] };
  let txn = O.overlay () and other = O.overlay () in
  O.begin_txn txn;
  O.record ora txn { O.no_updates with u_names = [ ("/a", None); ("/b", Some 7L) ] };
  O.record ora other { O.no_updates with u_files = [ (7L, Bytes.of_string "v2") ] };
  Alcotest.(check string) "the renaming session sees the committed write" "v2"
    (Bytes.to_string (O.view_content ora txn 7L));
  O.commit ora (O.overlay_updates txn);
  O.clear txn;
  Alcotest.(check (list (pair string int64))) "only the new name" [ ("/b", 7L) ]
    (O.SM.bindings (O.names ora));
  Alcotest.(check string) "the write survives the rename" "v2"
    (Bytes.to_string (O.content ora 7L))

let test_oracle_unlink_drops_content () =
  let ora = O.create ~trace:false ~depth:8 in
  O.commit ora
    {
      O.no_updates with
      u_names = [ ("/a", Some 1L); ("/b", Some 1L) ];
      u_files = [ (1L, Bytes.of_string "x") ];
    };
  O.commit ora { O.no_updates with u_names = [ ("/a", None) ] };
  Alcotest.(check bool) "a second name keeps it" true (O.OM.mem 1L (O.files ora));
  O.commit ora { O.no_updates with u_names = [ ("/b", None) ] };
  Alcotest.(check bool) "the last unlink drops it" false (O.OM.mem 1L (O.files ora))

let test_oracle_history_depth () =
  let ora = O.create ~trace:false ~depth:2 in
  List.iter (O.remember ora) [ 10L; 20L; 30L ];
  Alcotest.(check (list int64)) "newest two, newest first" [ 30L; 20L ]
    (List.map (fun (ts, _, _) -> ts) (O.history ora))

let test_oracle_verify_real_fs () =
  let fs = Invfs.Fs.make (Relstore.Db.create ()) () in
  let s = Invfs.Fs.new_session fs in
  let data = Bytes.of_string "hello, inversion" in
  Invfs.Fs.write_file s "/a" data;
  let oid = (Invfs.Fs.stat s "/a").Invfs.Fileatt.file in
  let oracle () =
    let ora = O.create ~trace:false ~depth:8 in
    O.commit ora
      { O.no_updates with u_names = [ ("/a", Some oid) ]; u_files = [ (oid, data) ] };
    ora
  in
  let ora = oracle () in
  O.verify ora s ~phase:"clean";
  Alcotest.(check (list string)) "in step" [] (O.mismatches ora);
  let corrupt = Bytes.copy data in
  Bytes.set corrupt 3 'X';
  O.commit ora { O.no_updates with u_files = [ (oid, corrupt) ] };
  O.verify ora s ~phase:"corrupt";
  (match O.mismatches ora with
  | [ m ] -> Alcotest.(check bool) m true (contains m "/a content differs")
  | ms -> Alcotest.failf "expected one mismatch, got [%s]" (String.concat "; " ms));
  let ora = oracle () in
  O.commit ora { O.no_updates with u_names = [ ("/ghost", Some oid) ] };
  Invfs.Fs.write_file s "/stray" data;
  O.verify ora s ~phase:"names";
  Alcotest.(check (list string)) "missing and unexpected"
    [ "names: /ghost missing from real fs"; "names: real fs has unexpected file /stray" ]
    (O.mismatches ora)

module F = Benchlib.Fsops

(* Sessions of one kind on [fs]: local ones, or clients of one server. *)
let session_maker kind fs =
  match kind with
  | `Local -> fun _ -> Remote.Conn.Local (Invfs.Fs.new_session fs)
  | `Remote ->
    let server = Remote.Server.create ~fs () in
    let net = Netsim.create ~clock:(Invfs.Fs.clock fs) Netsim.tcp_1993 in
    let rng = Simclock.Rng.create 7L in
    fun _ ->
      Remote.Conn.Remote
        (Remote.Client.connect ~server ~link:(Netsim.Link.create net)
           ~rng:(Simclock.Rng.split rng) ())

(* One seeded history of the shared ops through three sessions of one
   kind, with every transaction left open aborted at the end; returns
   the oracle after checking the real tree against it. *)
let shared_ops_history kind =
  let fs = Invfs.Fs.make (Relstore.Db.create ()) () in
  let connect = session_maker kind fs in
  let w =
    F.create ~rng:(Simclock.Rng.create 42L) ~ora:(O.create ~trace:false ~depth:4)
      ~max_dirs:6 ~max_file_bytes:(32 * 1024) fs (Array.init 3 connect)
  in
  for _ = 1 to 150 do
    F.run_one w ~gen:(F.gen_op w) ~crash:(fun () -> Alcotest.fail "no crash was scheduled")
  done;
  Array.iter (F.safe_abort w) w.F.sessions;
  O.verify w.F.ora (Invfs.Fs.new_session fs) ~phase:"end";
  Alcotest.(check (list string)) "real tree equals the oracle" [] (O.mismatches w.F.ora);
  w

(* The shared ops with no transaction: what a fleet session can run. *)
let autocommit_op w _ =
  let r = Simclock.Rng.int w.F.rng 100 in
  if r < 28 then F.write w
  else if r < 40 then F.create_file w
  else if r < 46 then F.mkdir w
  else if r < 54 then F.truncate w ~grow:8000
  else if r < 62 then F.unlink w
  else if r < 70 then F.rename w
  else F.read_check w

(* A fault-free fleet of two shards, [n] fleet sessions on it, and the
   coordinator's file system, where probes read. *)
let fleet_sessions ?hb_interval n =
  let clock = Simclock.Clock.create () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let rng = Simclock.Rng.create 7L in
  let cluster =
    Remote.Cluster.create ~clock ~net ~rng:(Simclock.Rng.split rng) ~nshards:2 ?hb_interval ()
  in
  let conns =
    Array.init n (fun _ ->
        Remote.Conn.Fleet (Remote.Cluster.connect cluster ~rng:(Simclock.Rng.split rng) ()))
  in
  (cluster, Remote.Server.fs (Remote.Cluster.member_server cluster 0), conns)

(* The auto-commit history through three sessions of one kind; a fleet
   run is checked by the fleet's own walk. *)
let autocommit_history kind =
  let fs, conns, check =
    match kind with
    | `Fleet ->
      let cluster, fs, conns = fleet_sessions 3 in
      (fs, conns, fun w -> Benchlib.Shardtest.verify w cluster ~phase:"end")
    | (`Local | `Remote) as kind ->
      let fs = Invfs.Fs.make (Relstore.Db.create ()) () in
      ( fs,
        Array.init 3 (session_maker kind fs),
        fun w -> O.verify w.F.ora (Invfs.Fs.new_session fs) ~phase:"end" )
  in
  let w =
    F.create ~rng:(Simclock.Rng.create 43L) ~ora:(O.create ~trace:false ~depth:0)
      ~max_dirs:6 ~max_file_bytes:(24 * 1024) fs conns
  in
  for _ = 1 to 150 do
    F.run_one w ~gen:(autocommit_op w) ~crash:(fun () ->
        Alcotest.fail "no crash was scheduled")
  done;
  check w;
  Alcotest.(check (list string)) "real tree equals the oracle" [] (O.mismatches w.F.ora);
  w

let test_shared_ops_local_equals_remote () =
  let bytes_map m = List.map (fun (k, b) -> (k, Bytes.to_string b)) (O.OM.bindings m) in
  let agree what (a : F.t) (b : F.t) counters =
    Alcotest.(check (list (pair string int64))) (what ^ ": names")
      (O.SM.bindings (O.names a.ora)) (O.SM.bindings (O.names b.ora));
    Alcotest.(check (list (pair int64 string))) (what ^ ": contents")
      (bytes_map (O.files a.ora)) (bytes_map (O.files b.ora));
    Alcotest.(check (list string)) (what ^ ": directories") (O.dirs a.ora) (O.dirs b.ora);
    Alcotest.(check (list int)) (what ^ ": counters") (counters a) (counters b)
  in
  let l = shared_ops_history `Local and r = shared_ops_history `Remote in
  agree "with transactions, local vs remote" l r (fun w ->
      [ w.ops_applied; w.commits; w.aborts; w.lock_skips ]);
  let l = autocommit_history `Local in
  Alcotest.(check bool) "the auto-commit history writes" true
    (O.OM.cardinal (O.files l.ora) > 3);
  List.iter
    (fun (what, kind) ->
      agree ("auto-commit, local vs " ^ what) l (autocommit_history kind) (fun w ->
          [ w.ops_applied ]))
    [ ("remote", `Remote); ("fleet", `Fleet) ]

(* A fleet write that executes on its shard, loses its reply, and whose
   retry reaches a shard that crashed on receipt: the session is gone
   and the outcome unknown.  The probe must find the write on the shard
   and the oracle must take it. *)
let test_fleet_lost_write_lands () =
  let cluster, fs, _ = fleet_sessions 0 in
  let plan = Faultsim.create () in
  let conn =
    Remote.Cluster.connect cluster
      ~on_link:(fun tag link -> if tag > 0 then Faultsim.arm_link plan ~tag link)
      ~rng:(Simclock.Rng.create 9L) ()
  in
  let w =
    F.create ~rng:(Simclock.Rng.create 1L) ~ora:(O.create ~trace:false ~depth:0) ~max_dirs:2
      ~max_file_bytes:4096 fs [| Remote.Conn.Fleet conn |]
  in
  let run op =
    F.run_one w ~gen:(fun _ -> op) ~crash:(fun () -> Alcotest.fail "no device crash")
  in
  run (F.create_file w);
  let path, oid = List.hd (O.SM.bindings (O.names w.ora)) in
  run (fun ss -> F.write_at w ss path ~oid ~off:0 [ Bytes.of_string "first" ]);
  (* the shard links carry only the data plane: message 1 = the write;
     2 = its reply: drop it; 3 = the retry: the shard dies as it arrives *)
  Faultsim.schedule_net plan ~after:2 Faultsim.Net_drop;
  Faultsim.schedule_net plan ~after:3 Faultsim.Net_server_crash;
  run (fun ss -> F.write_at w ss path ~oid ~off:3 [ Bytes.of_string "landed" ]);
  Faultsim.disarm plan;
  Alcotest.(check (list int)) "indeterminate, landed, applied" [ 1; 1; 2 ]
    [ w.indeterminate; w.landed; w.ops_applied ];
  Alcotest.(check string) "the oracle took the write" "firlanded"
    (Bytes.to_string (O.content w.ora oid));
  Benchlib.Shardtest.verify w cluster ~phase:"after";
  Alcotest.(check (list string)) "the fleet walk agrees" [] (O.mismatches w.ora)

(* One remote session [c] on a fresh server; [connect] attaches
   more clients to the same server. *)
let remote_world ~lock_wait_s () =
  let fs = Invfs.Fs.make (Relstore.Db.create ()) () in
  let clock = Invfs.Fs.clock fs in
  let server = Remote.Server.create ~fs ~lock_wait_s () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let rng = Simclock.Rng.create 7L in
  let connect link = Remote.Client.connect ~server ~link ~rng:(Simclock.Rng.split rng) () in
  let c = connect (Netsim.Link.create net) in
  let w =
    F.create ~rng:(Simclock.Rng.create 1L) ~ora:(O.create ~trace:false ~depth:0) ~max_dirs:2
      ~max_file_bytes:4096 fs [| Remote.Conn.Remote c |]
  in
  (fs, (fun () -> connect (Netsim.Link.create net)), c, w)

(* A request refused because its deadline passed, or refused as
   overloaded (a fleet bucket mid-handoff past the conn's redirects),
   never executed: the op's transaction aborts, nothing reaches the
   oracle, and it counts as a refusal, not as a lock skip.  A lock wait
   that timed out on the same path still is one.  A harness that draws
   its own sessions sets no deadline, and a fleet rides out a handoff
   within its redirects, so there a refusal is a mismatch. *)
let test_refusal_is_not_a_lock_skip () =
  let fs, connect, c, w = remote_world ~lock_wait_s:2. () in
  let clock = Invfs.Fs.clock fs in
  let ss = w.F.sessions.(0) in
  let write_in w path data ss = F.write_at w ss path ~oid:1L ~off:0 [ Bytes.of_string data ] in
  let apply_in w what expect op =
    Alcotest.(check bool) what true (F.apply w w.F.sessions.(0) op = expect)
  in
  let write = write_in w "/f" and apply = apply_in w in
  let past () = Remote.Client.set_deadline c (Some (Simclock.Clock.now clock -. 1.)) in
  apply "create" F.Applied (fun ss -> F.create_at w ss "/f");
  apply "write" F.Applied (write "committed");
  apply "begin" F.Applied (F.begin_txn w);
  apply "write in the transaction" F.Applied (write "uncommitted");
  past ();
  apply "a write past its deadline is refused" F.Refused (write "refused");
  Remote.Client.set_deadline c None;
  Alcotest.(check (list int)) "deadline refusals, lock skips, aborts" [ 1; 0; 1 ]
    [ w.deadline_refusals; w.lock_skips; w.aborts ];
  Alcotest.(check bool) "the overlay is dropped" false (O.in_txn ss.ov);
  Alcotest.(check string) "the committed state is unchanged" "committed"
    (Bytes.to_string (O.content w.ora 1L));
  (* another session holds the file's lock past the 2 s lock wait *)
  let holder = connect () in
  Remote.Client.c_begin holder;
  Remote.Client.c_ftruncate holder (Remote.Client.c_open holder "/f" Invfs.Fs.Rdwr) 0L;
  apply "a write whose lock wait timed out is skipped" F.Skipped (write "blocked");
  Remote.Client.c_abort holder;
  Alcotest.(check (list int)) "deadline refusals, lock skips" [ 1; 1 ]
    [ w.deadline_refusals; w.lock_skips ];
  O.verify w.ora (Invfs.Fs.new_session fs) ~phase:"end";
  Alcotest.(check (list string)) "real tree equals the oracle" [] (O.mismatches w.ora);
  past ();
  F.run_one w ~gen:(fun _ -> write "refused") ~crash:(fun () -> Alcotest.fail "no crash");
  Alcotest.(check int) "run_one logs the refusal" 1 (List.length (O.mismatches w.ora));
  (* Overload: a fleet write whose bucket stays mid-handoff (its owner
     partitioned, the push to the new owner stalled) through all of
     the conn's redirects is refused.  A client's re-offers (about
     1.5 s) do not pump the cluster, so the new owner's lease (twice
     the heartbeat) must outlast them: at the default 0.5 s heartbeat
     the last offer would meet a lapsed lease and answer ESTALE. *)
  let cluster, fs, _ = fleet_sessions ~hb_interval:1.0 0 in
  let clock = Invfs.Fs.clock fs in
  let conn = Remote.Cluster.connect cluster ~rng:(Simclock.Rng.create 9L) () in
  let w =
    F.create ~rng:(Simclock.Rng.create 1L) ~ora:(O.create ~trace:false ~depth:0) ~max_dirs:2
      ~max_file_bytes:4096 fs [| Remote.Conn.Fleet conn |]
  in
  let write = write_in w "/g" and apply = apply_in w in
  apply "create" F.Applied (fun ss -> F.create_at w ss "/g");
  apply "write" F.Applied (write "committed");
  let coord = Remote.Cluster.coord conn in
  let oid = (Remote.Client.c_stat coord "/g").Invfs.Fileatt.file in
  let bucket = Remote.Wire.bucket_of ~nbuckets:(Remote.Cluster.nbuckets cluster) oid in
  let owner = (Remote.Client.c_get_placement coord).Remote.Wire.p_owner.(bucket) in
  Remote.Cluster.set_on_migrate cluster
    (Some (fun ~oid:_ ~bucket:b -> if b = bucket then raise Exit));
  Remote.Cluster.set_partitioned cluster ~shard:owner true;
  let rec stall k =
    if (Remote.Cluster.stats cluster).Remote.Cluster.handoffs_pending = 0 && k < 100 then begin
      Simclock.Clock.advance clock 0.1;
      Remote.Cluster.pump cluster;
      stall (k + 1)
    end
  in
  stall 0;
  Alcotest.(check int) "the handoff is stalled" 1
    (Remote.Cluster.stats cluster).Remote.Cluster.handoffs_pending;
  apply "a write mid-handoff is refused" F.Refused (write "refused");
  Alcotest.(check (list int)) "overload refusals, deadline refusals, lock skips"
    [ 1; 0; 0 ]
    [ w.overload_refusals; w.deadline_refusals; w.lock_skips ];
  Alcotest.(check bool) "the client was refused" true
    (List.exists (fun c -> Remote.Client.overloaded c > 0) (Remote.Cluster.conn_clients conn));
  Alcotest.(check string) "the committed state is unchanged" "committed"
    (Bytes.to_string (O.content w.ora 1L));
  (* let the handoff finish: the fleet holds what the oracle holds *)
  Remote.Cluster.set_on_migrate cluster None;
  Remote.Cluster.set_partitioned cluster ~shard:owner false;
  let rec settle k =
    Remote.Cluster.pump cluster;
    if (Remote.Cluster.stats cluster).Remote.Cluster.handoffs_pending > 0 && k < 200 then begin
      Simclock.Clock.advance clock 0.1;
      settle (k + 1)
    end
  in
  settle 0;
  Benchlib.Shardtest.verify w cluster ~phase:"end";
  Alcotest.(check (list string)) "the fleet walk agrees" [] (O.mismatches w.ora)

let () =
  Alcotest.run "benchlib"
    [
      ( "workload",
        [
          Alcotest.test_case "all ops measured" `Quick test_all_ops_present;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "contents survive" `Quick test_file_contents_survive_workload;
        ] );
      ( "paper shapes",
        [
          Alcotest.test_case "NFS wins create" `Quick test_shape_nfs_wins_create;
          Alcotest.test_case "single-process wins reads" `Quick
            test_shape_single_process_fastest_reads;
          Alcotest.test_case "30-80%% band" `Quick test_shape_inversion_pct_of_nfs;
          Alcotest.test_case "PRESTO random writes" `Quick test_shape_presto_random_writes;
          Alcotest.test_case "no-PRESTO ablation" `Quick test_no_presto_slower;
          Alcotest.test_case "cpu scale ablation" `Quick test_cpu_scale_moves_times;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "paper numbers complete" `Quick test_paper_numbers_complete;
          Alcotest.test_case "reports render" `Quick test_reports_render;
        ] );
      ( "sequoia workload",
        [
          Alcotest.test_case "runs clean" `Quick test_sequoia_workload;
          Alcotest.test_case "deterministic" `Quick test_sequoia_deterministic;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "rename keeps a concurrent write" `Quick
            test_oracle_rename_keeps_concurrent_write;
          Alcotest.test_case "last unlink drops content" `Quick
            test_oracle_unlink_drops_content;
          Alcotest.test_case "history depth" `Quick test_oracle_history_depth;
          Alcotest.test_case "verify against a real fs" `Quick test_oracle_verify_real_fs;
        ] );
      ( "fsops",
        [
          Alcotest.test_case "local and remote sessions agree" `Quick
            test_shared_ops_local_equals_remote;
          Alcotest.test_case "a fleet write whose reply was lost lands" `Quick
            test_fleet_lost_write_lands;
          Alcotest.test_case "a refusal is not a lock skip" `Quick
            test_refusal_is_not_a_lock_skip;
        ] );
      ( "load replay",
        [
          Alcotest.test_case "schedule deterministic" `Quick
            test_load_schedule_deterministic;
          Alcotest.test_case "outcome deterministic" `Quick
            test_load_outcome_deterministic;
        ] );
    ]
