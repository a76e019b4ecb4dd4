(* invsh — an interactive shell over the Inversion file system.

   Builds a fresh simulated machine (magnetic disk + NVRAM + WORM
   jukebox) and drops you into a shell where every command is a paper
   feature: transactions, time travel, queries, crash recovery,
   migration, vacuuming.

     dune exec bin/invsh.exe            # interactive
     dune exec bin/invsh.exe -- -c script.invsh
     echo 'help' | dune exec bin/invsh.exe

   The simulated clock advances one second per command so "a moment ago"
   is a meaningful timestamp. *)

module Fs = Invfs.Fs
module Conn = Remote.Conn
module Client = Remote.Client
module Cluster = Remote.Cluster

type shell = {
  clock : Simclock.Clock.t;
  db : Relstore.Db.t;
  fs : Fs.t;
      (* the data manager (with --shards, the coordinator's), where the
         admin commands (deffn, migrate, vacuum, fsck, ...) run *)
  mutable session : Fs.session;  (* their session on [fs] *)
  mutable conn : Conn.t;
      (* every file, namespace and transaction command: [session]
         itself, a wire-protocol client with --remote, or a fleet conn
         with --shards *)
  mutable marks : (string * int64) list; (* named timestamps *)
}

let make_shell ~cache_pages ~remote ~shards =
  if shards > 0 then begin
    if remote then failwith "--remote is implied by --shards; pass only one";
    let clock = Simclock.Clock.create () in
    let net = Netsim.create ~clock Netsim.tcp_1993 in
    let rng = Simclock.Rng.create 42L in
    let cluster = Cluster.create ~clock ~net ~rng ~nshards:shards () in
    let conn = Cluster.connect cluster ~rng:(Simclock.Rng.split rng) () in
    let fs = Remote.Server.fs (Cluster.member_server cluster 0) in
    { clock; db = Fs.db fs; fs; session = Fs.new_session fs; conn = Fleet conn; marks = [] }
  end
  else begin
    let clock = Simclock.Clock.create () in
    let switch = Pagestore.Switch.create ~clock in
    let add name kind =
      ignore (Pagestore.Switch.add_device switch ~name ~kind () : Pagestore.Device.t)
    in
    add "disk0" Pagestore.Device.Magnetic_disk;
    add "nvram0" Pagestore.Device.Nvram;
    add "jukebox" Pagestore.Device.Worm_jukebox;
    let db = Relstore.Db.create ~switch ~clock ~cache_capacity:cache_pages () in
    let fs = Fs.make db () in
    let session = Fs.new_session fs in
    let conn =
      if not remote then Conn.Local session
      else begin
        let server = Remote.Server.create ~fs () in
        let net = Netsim.create ~clock Netsim.tcp_1993 in
        let link = Netsim.Link.create net in
        Conn.Remote (Client.connect ~server ~link ~rng:(Simclock.Rng.create 42L) ())
      end
    in
    { clock; db; fs; session; conn; marks = [] }
  end

(* The client whose counters 'stats' prints: the remote one, or a
   fleet's coordinator. *)
let client shell =
  match shell.conn with
  | Local _ -> None
  | Remote c -> Some c
  | Fleet f -> Some (Cluster.coord f)

let fleet shell =
  match shell.conn with Fleet f -> Some f | Local _ | Remote _ -> None

let say fmt = Printf.printf (fmt ^^ "\n%!")

let help () =
  say
    "commands:\n\
    \  ls [PATH]                list a directory (default /)\n\
    \  mkdir PATH               create a directory\n\
    \  put PATH TEXT...         write TEXT to a file (create or replace)\n\
    \  cat PATH                 print a file\n\
    \  rm PATH | rmdir PATH     remove a file / empty directory\n\
    \  mv SRC DST               rename\n\
    \  stat PATH                attributes (owner, type, size, device, times)\n\
    \  chown PATH OWNER         set owner\n\
    \  settype PATH TYPE        assign a declared file type\n\
    \  deftype NAME             declare a file type\n\
    \  deffn NAME BODY...       store a POSTQUEL function (callable in queries)\n\
    \  fnsrc NAME               show a stored function's source\n\
    \  query RETRIEVE...        run a POSTQUEL retrieve\n\
    \  begin | commit | abort   transaction control (p_begin/p_commit/p_abort)\n\
    \  txbegin | txcommit | txabort   aliases: batch many file ops atomically\n\
    \  mark NAME                remember the current instant\n\
    \  marks                    list remembered instants\n\
    \  snapshot NAME            O(1) snapshot: sync, then mark the horizon\n\
    \  clone SRC DST            O(1) copy-on-write clone of a file\n\
    \  asof NAME ls|cat|stat ARG   run a read-only command in the past\n\
    \  undelete NAME PATH       restore PATH as it was at mark NAME\n\
    \  migrate PATH DEVICE      move a file's storage (disk0|nvram0|jukebox)\n\
    \  vacuum PATH archive|discard   full vacuum pass over one file's table\n\
    \  vacuumstep [PAGES]       one budgeted increment of the concurrent vacuum\n\
    \  crash                    crash the machine (instant recovery)\n\
    \  sync                     force the pending commit group\n\
    \  fsck                     run the audit that never finds anything\n\
    \  devices | clock | stats  inspect the simulated machine\n\
    \  trace on [SUB...]        enable tracing (all, or: device cache heap\n\
    \                           lock txn vacuum recovery net)\n\
    \  trace off                disable all tracing\n\
    \  trace show [N]           print the newest N trace events (default 40)\n\
    \  trace clear              empty the trace ring\n\
    \  trace export PATH        write Chrome trace_event JSON to PATH\n\
    \  help | quit"

let fmt_time us = Printf.sprintf "%.3fs" (Int64.to_float us /. 1e6)

let find_mark shell name =
  match List.assoc_opt name shell.marks with
  | Some ts -> ts
  | None -> failwith (Printf.sprintf "no mark named %s (see 'marks')" name)

let print_stat (a : Invfs.Fileatt.att) =
  say "  oid %Ld  owner %s  type %s  size %Ld  device %s%s" a.Invfs.Fileatt.file
    a.Invfs.Fileatt.owner a.Invfs.Fileatt.ftype a.Invfs.Fileatt.size
    (if a.Invfs.Fileatt.device = "" then "-" else a.Invfs.Fileatt.device)
    (if a.Invfs.Fileatt.compressed then "  (compressed)" else "");
  say "  ctime %s  mtime %s  atime %s" (fmt_time a.Invfs.Fileatt.ctime)
    (fmt_time a.Invfs.Fileatt.mtime) (fmt_time a.Invfs.Fileatt.atime)

let run_command shell line =
  let s = shell.session in
  let c = shell.conn in
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> ()
  | [ "help" ] -> help ()
  | [ "ls" ] -> List.iter (fun n -> say "  %s" n) (Conn.readdir c "/")
  | [ "ls"; path ] -> List.iter (fun n -> say "  %s" n) (Conn.readdir c path)
  | [ "mkdir"; path ] -> Conn.mkdir c path
  | "put" :: path :: rest ->
    Conn.write_file c path (Bytes.of_string (String.concat " " rest));
    say "wrote %s" path
  | [ "cat"; path ] -> say "%s" (Bytes.to_string (Conn.read_whole_file c path))
  | [ "rm"; path ] -> Conn.unlink c path
  | [ "rmdir"; path ] -> Conn.rmdir c path
  | [ "mv"; src; dst ] -> Conn.rename c src dst
  | [ "stat"; path ] -> print_stat (Conn.stat c path)
  | [ "chown"; path; owner ] -> Conn.set_owner c path owner
  | [ "settype"; path; ftype ] -> Conn.set_type c path ftype
  | [ "deftype"; name ] -> Conn.define_type c name
  | "deffn" :: name :: body ->
    Invfs.Stored_fn.define shell.fs s ~name ~body:(String.concat " " body) ();
    say "defined %s (stored at %s/%s)" name Invfs.Stored_fn.functions_dir name
  | [ "fnsrc"; name ] -> say "%s" (Invfs.Stored_fn.source s name)
  | [ "asof"; mark; "fnsrc"; name ] ->
    say "%s" (Invfs.Stored_fn.source s ~timestamp:(find_mark shell mark) name)
  | "query" :: rest ->
    let rows = Conn.query c (String.concat " " rest) in
    List.iter (fun row -> say "  %s" (String.concat ", " row)) rows;
    say "(%d rows)" (List.length rows)
  | [ "begin" ] | [ "txbegin" ] ->
    Conn.begin_txn c;
    say "transaction open"
  | [ "commit" ] | [ "txcommit" ] ->
    Conn.commit c;
    say "committed"
  | [ "abort" ] | [ "txabort" ] ->
    Conn.abort c;
    say "aborted"
  | [ "mark"; name ] ->
    shell.marks <- (name, Relstore.Db.now shell.db) :: shell.marks;
    say "marked %s at %s" name (fmt_time (Relstore.Db.now shell.db))
  | [ "marks" ] ->
    List.iter (fun (n, ts) -> say "  %-12s %s" n (fmt_time ts)) (List.rev shell.marks)
  | [ "snapshot"; name ] ->
    let ts = Conn.snapshot c in
    shell.marks <- (name, ts) :: shell.marks;
    say "snapshot %s at %s (use with 'asof %s ...')" name (fmt_time ts) name
  | [ "clone"; src; dst ] ->
    Conn.clone c ~src ~dst;
    say "cloned %s -> %s (copy-on-write)" src dst
  | [ "asof"; mark; "ls"; path ] ->
    List.iter (fun n -> say "  %s" n) (Conn.readdir c ~timestamp:(find_mark shell mark) path)
  | [ "asof"; mark; "cat"; path ] ->
    say "%s" (Bytes.to_string (Conn.read_whole_file c ~timestamp:(find_mark shell mark) path))
  | [ "asof"; mark; "stat"; path ] ->
    print_stat (Conn.stat c ~timestamp:(find_mark shell mark) path)
  | [ "undelete"; mark; path ] ->
    Conn.write_file c path (Conn.read_whole_file c ~timestamp:(find_mark shell mark) path);
    say "restored %s as of mark %s" path mark
  | [ "migrate"; path; device ] ->
    Fs.migrate_file shell.fs ~oid:(Fs.lookup_oid s path) ~device;
    say "moved %s to %s" path device
  | [ "vacuum"; path; mode ] ->
    let mode =
      match mode with
      | "archive" -> `Archive
      | "discard" -> `Discard
      | m -> failwith ("vacuum mode must be archive or discard, not " ^ m)
    in
    let stats = Fs.vacuum_file shell.fs ~oid:(Fs.lookup_oid s path) ~mode () in
    say "scanned %d, archived %d, discarded %d" stats.Relstore.Vacuum.scanned
      stats.Relstore.Vacuum.archived stats.Relstore.Vacuum.discarded
  | [ "vacuumstep" ] | [ "vacuumstep"; _ ] as cmd ->
    let pages =
      match cmd with
      | [ _; n ] -> (try int_of_string n with _ -> failwith "vacuumstep: PAGES must be an integer")
      | _ -> 4
    in
    (match client shell with
    | Some c ->
      let scanned = Client.c_vacuum_step c ~pages () in
      say "vacuum step: scanned %d version(s)" scanned
    | None -> (
      match Fs.vacuum_step shell.fs ~pages ~mode:`Archive () with
      | None -> say "vacuum step: nothing to vacuum"
      | Some (rel, st) ->
        say "vacuum step on %s: scanned %d, archived %d, discarded %d%s" rel
          st.Relstore.Vacuum.s_scanned st.Relstore.Vacuum.s_archived
          st.Relstore.Vacuum.s_discarded
          (if st.Relstore.Vacuum.s_skipped then " (skipped: relation busy)" else "")))
  | [ "crash" ] ->
    (* every machine restarts as a server does: crash, then audit and
       repair what the crash could have torn *)
    (match c with
    | Fleet f ->
      let cl = Cluster.conn_cluster f in
      for m = 0 to Cluster.nshards cl do
        Cluster.crash_member cl m
      done;
      Cluster.pump cl
    | Remote rc -> Client.c_crash_server rc
    | Local _ -> ignore (Fs.crash_and_recover shell.fs : Fs.recovery));
    shell.session <- Fs.new_session shell.fs;
    (match c with Local _ -> shell.conn <- Local shell.session | Remote _ | Fleet _ -> ());
    say "crashed and recovered (open transactions rolled back, no fsck needed)"
  | [ "sync" ] ->
    let pending =
      Relstore.Status_log.pending_force (Relstore.Db.status_log shell.db)
    in
    Fs.sync shell.fs;
    say "forced the pending commit group (%d commit%s settled)" pending
      (if pending = 1 then "" else "s")
  | [ "fsck" ] ->
    say "%s" (Invfs.Fsck.report_to_string (Invfs.Fsck.audit shell.fs));
    (match fleet shell with
    | None -> ()
    | Some f ->
      say "%s"
        (Invfs.Fsck.shard_report_to_string
           (Cluster.cross_shard_audit (Cluster.conn_cluster f))))
  | [ "devices" ] ->
    List.iter
      (fun d ->
        say "  %-8s %-14s %d reads, %d writes" (Pagestore.Device.name d)
          (Pagestore.Device.kind_to_string (Pagestore.Device.kind d))
          (Pagestore.Device.reads d) (Pagestore.Device.writes d))
      (Pagestore.Switch.devices (Relstore.Db.switch shell.db))
  | [ "clock" ] -> say "simulated time: %.3fs" (Simclock.Clock.now shell.clock)
  | [ "stats" ] ->
    List.iter
      (fun (k, v) -> say "  %-22s %8.3fs" k v)
      (Simclock.Clock.accounts shell.clock);
    List.iter (fun (k, v) -> say "  %-22s %8d" k v) (Simclock.Clock.counters shell.clock);
    (match client shell with
    | None -> ()
    | Some c ->
      let net = Netsim.Link.net (Client.link c) in
      say "  %-22s %8d" "net.messages" (Netsim.messages net);
      say "  %-22s %8d" "net.bytes_sent" (Netsim.bytes_sent net);
      say "  %-22s %8d" "client.retries" (Client.retries c);
      say "  %-22s %8d" "client.piggybacked" (Client.piggybacked c);
      say "  %-22s %8d" "client.timeouts" (Client.timeouts c);
      say "  %-22s %8d" "client.reconnects" (Client.reconnects c));
    (match fleet shell with
    | None -> ()
    | Some f ->
      let st = Cluster.stats (Cluster.conn_cluster f) in
      say "  %-22s %8d" "shard.epoch" st.Cluster.epoch;
      say "  %-22s %8d" "shard.fence_events" st.Cluster.fence_events;
      say "  %-22s %8d" "shard.heartbeats_seen" st.Cluster.heartbeats_seen;
      say "  %-22s %8d" "shard.stale_rejects" st.Cluster.stale_rejects;
      say "  %-22s %8d" "shard.migrations" st.Cluster.migrations;
      say "  %-22s %8d" "shard.handoffs_done" st.Cluster.handoffs_completed;
      say "  %-22s %8d" "shard.drops_done" st.Cluster.drops_done;
      say "  %-22s %8d" "shard.redirects" (Cluster.redirects f));
    say "metrics registry:";
    List.iter
      (fun (name, entry) ->
        match entry with
        | Obs.Metrics.Counter v | Obs.Metrics.Probe v ->
          if v <> 0 then say "  %-28s %10d" name v
        | Obs.Metrics.Histogram { count; sum; p50; p95; p99 } ->
          if count <> 0 then
            say "  %-28s %10d obs  sum %.4fs  p50 %.6fs  p95 %.6fs  p99 %.6fs" name
              count sum p50 p95 p99)
      (Obs.Metrics.snapshot ())
  | "trace" :: rest -> (
    match rest with
    | "on" :: subs ->
      let subs =
        match subs with
        | [] -> Obs.all_subsystems
        | names ->
          List.map
            (fun n ->
              match Obs.subsys_of_name n with
              | Some s -> s
              | None ->
                failwith
                  (Printf.sprintf "unknown subsystem %s (expected one of: %s)" n
                     (String.concat " " (List.map Obs.subsys_name Obs.all_subsystems))))
            names
      in
      List.iter Obs.enable subs;
      say "tracing: %s"
        (String.concat " " (List.map Obs.subsys_name (Obs.enabled_subsystems ())))
    | [ "off" ] ->
      Obs.disable_all ();
      say "tracing off"
    | [ "clear" ] ->
      Obs.Trace.clear ();
      say "trace ring cleared"
    | [ "show" ] | [ "show"; _ ] ->
      let limit =
        match rest with [ "show"; n ] -> int_of_string n | _ -> 40
      in
      let text = Obs.Trace.to_text ~limit () in
      if text = "" then
        say "(trace ring is empty — 'trace on' enables collection)"
      else print_string text;
      say "%d emitted, %d retained, %d dropped" (Obs.Trace.emitted ())
        (List.length (Obs.Trace.events ()))
        (Obs.Trace.dropped ())
    | [ "export"; path ] ->
      let oc = open_out path in
      output_string oc (Obs.Trace.to_chrome_json ());
      close_out oc;
      say "wrote %s (%d events; chrome://tracing or ui.perfetto.dev)" path
        (List.length (Obs.Trace.events ()))
    | _ -> say "usage: trace on [SUB...] | off | show [N] | clear | export PATH")
  | [ "quit" ] | [ "exit" ] -> raise Exit
  | cmd :: _ -> say "unknown command %s (try 'help')" cmd

let repl shell ~input ~interactive =
  (try
     while true do
       if interactive then (
         print_string "invsh> ";
         flush stdout);
       let line = input_line input in
       Simclock.Clock.advance shell.clock ~account:"shell.idle" 1.0;
       (* under --shards a second of idle time carries heartbeat rounds *)
       Option.iter (fun f -> Cluster.pump (Cluster.conn_cluster f)) (fleet shell);
       (try run_command shell line with
       | Exit -> raise Exit
       | Invfs.Errors.Fs_error (code, msg) ->
         say "error: %s (%s)" msg (Invfs.Errors.code_to_string code)
       | Failure msg -> say "error: %s" msg
       | Invalid_argument msg -> say "error: %s" msg
       | Postquel.Parser.Parse_error msg -> say "parse error: %s" msg
       | Postquel.Lexer.Lex_error (msg, pos) -> say "lex error at %d: %s" pos msg
       | Not_found -> say "error: not found")
     done
   with Exit | End_of_file -> ());
  if interactive then say "bye."

(* ---- cmdliner wiring ---- *)

let main script cache_pages remote shards =
  let shell = make_shell ~cache_pages ~remote ~shards in
  match script with
  | None ->
    say "Inversion file system shell — 'help' lists commands.%s"
      (if shards > 0 then
         Printf.sprintf " (sharded: coordinator + %d chunk servers)" shards
       else if remote then " (remote: commands cross the wire protocol)"
       else "");
    repl shell ~input:stdin ~interactive:(Unix.isatty Unix.stdin)
  | Some path ->
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> repl shell ~input:ic ~interactive:false)

let () =
  let open Cmdliner in
  let script =
    Arg.(
      value
      & opt (some file) None
      & info [ "c"; "script" ] ~docv:"FILE" ~doc:"Run commands from $(docv) instead of stdin.")
  in
  let cache_pages =
    Arg.(
      value & opt int 300
      & info [ "cache-pages" ] ~docv:"N" ~doc:"DBMS buffer cache size in 8 KB pages.")
  in
  let remote =
    Arg.(
      value & flag
      & info [ "remote" ]
          ~doc:
            "Drive the shell through the client/server protocol: every file \
             command becomes Remote.Client RPCs over a simulated 10 Mbit \
             TCP/IP link to the data manager (admin commands — deffn, \
             migrate, vacuum, fsck — still run server-side).  'stats' then \
             also shows wire and retry counters.")
  in
  let shards =
    Arg.(
      value & opt int 0
      & info [ "shards" ]
          ~docv:"N"
          ~doc:
            "Drive the shell against a sharded fleet: a coordinator owning \
             the namespace plus $(docv) chunk servers, each behind its own \
             simulated link.  Metadata commands go to the coordinator; put \
             and cat follow the epoch-numbered placement map to the owning \
             shard (retrying through fencing redirects).  Transactions, \
             clone and historical reads of file data are refused: the fleet \
             commits names and file data separately.  'stats' shows \
             fleet counters and 'fsck' adds the cross-shard placement \
             audit.  Implies the wire protocol; do not combine with \
             $(b,--remote).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "invsh" ~doc:"Interactive shell over the Inversion file system")
      Term.(
        const main $ script $ cache_pages $ remote $ shards)
  in
  exit (Cmd.eval cmd)
