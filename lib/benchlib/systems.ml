module Fs = Invfs.Fs

type file = {
  fread : off:int64 -> len:int -> int;
  fwrite : off:int64 -> bytes -> unit;
}

type t = {
  sys_name : string;
  clock : Simclock.Clock.t;
  io_unit : int;
  net_stats : unit -> (string * int) list;
  create : string -> file;
  open_file : string -> file;
  read : file -> off:int64 -> len:int -> int;
  write : file -> off:int64 -> bytes -> unit;
  begin_batch : unit -> unit;
  end_batch : unit -> unit;
  flush_caches : unit -> unit;
}

(* ---------------- Inversion ---------------- *)

let flush_db_caches db () =
  (* Settle the commit pipeline first: apply any staged index overlay and
     charge the pending batched force, so a phase boundary never leaves
     work (or cost) hanging into the next measurement. *)
  Relstore.Db.force_group db;
  let cache = Relstore.Db.cache db in
  Pagestore.Bufcache.flush cache;
  Pagestore.Bufcache.crash cache

(* Both Inversion columns run the benchmark through one session
   ([Remote.Conn.t]) on a fresh machine whose CPU charges are scaled by
   [cpu_scale].  Client/server drives every p_* call through the real
   wire protocol: Remote.Client framing requests over a Netsim.Link to a
   Remote.Server wrapping the data manager.  Each message is charged by
   the 10 Mbit TCP/IP cost model as it is actually sent: reads stream
   back one fragment per chunk, bulk writes overlap the wire with the
   server's work through the client's pipelined path.  Single process
   runs the benchmark inside the data manager, with no network. *)
let inversion ~remote ?(cpu_scale = 1.0) () =
  (* the data manager's default machine: one disk, its default pools *)
  let db = Relstore.Db.create () in
  let clock = Relstore.Db.clock db and fs = Fs.make db () in
  Simclock.Clock.set_cpu_scale clock cpu_scale;
  let conn, net_stats, sys_name =
    if remote then begin
      (* the benchmark connection is fault-free and some simulated ops
         are long (synchronous 1 MB writes take ~30 s), so lease reaping
         is off *)
      let server = Remote.Server.create ~fs ~lease_s:0. () in
      let net = Netsim.create ~clock Netsim.tcp_1993 in
      let client =
        Remote.Client.connect ~server ~link:(Netsim.Link.create net)
          ~rng:(Simclock.Rng.create 1993L) ()
      in
      ( Remote.Conn.Remote client,
        (fun () ->
          [
            ("messages", Netsim.messages net);
            ("bytes_sent", Netsim.bytes_sent net);
            ("retries", Remote.Client.retries client);
            ("timeouts", Remote.Client.timeouts client);
            ("reconnects", Remote.Client.reconnects client);
          ]),
        "Inversion client/server" )
    end
    else (Remote.Conn.Local (Fs.new_session fs), (fun () -> []), "Inversion single process")
  in
  let mk_file fd =
    {
      fread =
        (fun ~off ~len ->
          ignore (Remote.Conn.lseek conn fd off Fs.Seek_set : int64);
          let buf = Bytes.create len in
          Remote.Conn.read conn fd buf len);
      fwrite =
        (fun ~off data ->
          ignore (Remote.Conn.lseek conn fd off Fs.Seek_set : int64);
          ignore (Remote.Conn.write conn fd data (Bytes.length data) : int));
    }
  in
  {
    sys_name;
    clock;
    io_unit = Invfs.Chunk.capacity;
    net_stats;
    create = (fun path -> mk_file (Remote.Conn.creat conn path));
    open_file = (fun path -> mk_file (Remote.Conn.open_file conn path Fs.Rdwr));
    read = (fun f ~off ~len -> f.fread ~off ~len);
    write = (fun f ~off data -> f.fwrite ~off data);
    begin_batch = (fun () -> Remote.Conn.begin_txn conn);
    end_batch =
      (fun () ->
        Remote.Conn.commit conn;
        (* a single-process caller waits on its own commit: the batched
           force is charged here, not left pending into the next op *)
        if not remote then Fs.sync fs);
    flush_caches = flush_db_caches db;
  }

let inversion_client_server = inversion ~remote:true
let inversion_single_process = inversion ~remote:false

(* ---------------- ULTRIX NFS ---------------- *)

let ultrix_nfs ?(presto = true) () =
  let clock = Simclock.Clock.create () in
  let device =
    Pagestore.Device.create ~clock ~name:"rz58" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  let ffs = Nfsbaseline.Ffs.create ~device in
  let presto_board =
    if presto then Some (Nfsbaseline.Presto.create ~clock ()) else None
  in
  let server = Nfsbaseline.Nfs.make_server ~ffs ?presto:presto_board () in
  let net = Netsim.create ~clock Netsim.udp_rpc_1993 in
  let client = Nfsbaseline.Nfs.connect ~server ~net in
  let mk_file fh =
    {
      fread =
        (fun ~off ~len ->
          let buf = Bytes.create len in
          Nfsbaseline.Nfs.read client fh ~off ~buf ~len);
      fwrite = (fun ~off data -> Nfsbaseline.Nfs.write client fh ~off ~data);
    }
  in
  let name =
    if presto then "ULTRIX NFS (PRESTOserve)" else "ULTRIX NFS (no NVRAM)"
  in
  {
    sys_name = name;
    clock;
    io_unit = Nfsbaseline.Nfs.max_transfer;
    net_stats =
      (fun () ->
        [
          ("messages", Netsim.messages net);
          ("bytes_sent", Netsim.bytes_sent net);
          ("rpcs", Nfsbaseline.Nfs.rpc_count client);
        ]);
    create = (fun path -> mk_file (Nfsbaseline.Nfs.create client path));
    open_file =
      (fun path ->
        match Nfsbaseline.Nfs.lookup client path with
        | Some fh -> mk_file fh
        | None -> invalid_arg ("ultrix_nfs: no such file " ^ path));
    read = (fun f ~off ~len -> f.fread ~off ~len);
    write = (fun f ~off data -> f.fwrite ~off data);
    begin_batch = (fun () -> ());
    end_batch = (fun () -> ());
    flush_caches = (fun () -> Nfsbaseline.Nfs.drop_caches server);
  }
