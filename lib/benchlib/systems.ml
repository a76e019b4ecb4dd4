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

let inversion_machine ~cache_pages ~os_cache_pages ?deferred_index () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Pagestore.Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  let db =
    Relstore.Db.create ~switch ~clock ~cache_capacity:cache_pages
      ~os_cache_blocks:os_cache_pages ?deferred_index ()
  in
  let fs = Fs.make db () in
  (clock, db, fs)

let flush_db_caches db () =
  (* Settle the commit pipeline first: apply any staged index overlay and
     charge the pending batched force, so a phase boundary never leaves
     work (or cost) hanging into the next measurement. *)
  Relstore.Db.force_group db;
  let cache = Relstore.Db.cache db in
  Pagestore.Bufcache.flush cache;
  Pagestore.Bufcache.crash cache

(* The client/server configuration drives every p_* call through the real
   wire protocol: Remote.Client framing requests over a Netsim.Link to a
   Remote.Server wrapping the data manager.  Each message is charged by
   the 10 Mbit TCP/IP cost model as it is actually sent — reads stream
   back one fragment per chunk, bulk writes overlap the wire with the
   server's work through the client's pipelined path. *)
let inversion_remote ~cache_pages ~os_cache_pages ~index_write_through ~cpu_scale
    ~compressed ?deferred_index name =
  let clock, db, fs = inversion_machine ~cache_pages ~os_cache_pages ?deferred_index () in
  (* the benchmark connection is fault-free and some simulated ops are
     long (synchronous 1 MB writes take ~30 s), so lease reaping is off *)
  let server = Remote.Server.create ~fs ~lease_s:0. () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let link = Netsim.Link.create net in
  let client =
    Remote.Client.connect ~server ~link ~rng:(Simclock.Rng.create 1993L) ()
  in
  let apply_cpu_scale () = Relstore.Cpu_model.scale := cpu_scale in
  (* index write-through is a per-file server-side admin knob, set out of
     band (it models a server configuration, not a protocol feature) *)
  let set_write_through path =
    let att = Remote.Client.c_stat client path in
    match Fs.file_handle fs ~oid:att.Invfs.Fileatt.file with
    | Some inv -> Invfs.Inv_file.set_write_through inv index_write_through
    | None -> ()
  in
  let mk_file fd =
    {
      fread =
        (fun ~off ~len ->
          apply_cpu_scale ();
          ignore (Remote.Client.c_lseek client fd off Fs.Seek_set : int64);
          let buf = Bytes.create len in
          Remote.Client.c_read client fd buf len);
      fwrite =
        (fun ~off data ->
          apply_cpu_scale ();
          ignore (Remote.Client.c_lseek client fd off Fs.Seek_set : int64);
          ignore (Remote.Client.c_write client fd data (Bytes.length data) : int));
    }
  in
  let create path =
    apply_cpu_scale ();
    let fd = Remote.Client.c_creat client ~compressed path in
    set_write_through path;
    mk_file fd
  in
  let open_file path =
    apply_cpu_scale ();
    let fd = Remote.Client.c_open client path Fs.Rdwr in
    set_write_through path;
    mk_file fd
  in
  {
    sys_name = name;
    clock;
    io_unit = Invfs.Chunk.capacity;
    net_stats =
      (fun () ->
        [
          ("messages", Netsim.messages net);
          ("bytes_sent", Netsim.bytes_sent net);
          ("retries", Remote.Client.retries client);
          ("timeouts", Remote.Client.timeouts client);
          ("reconnects", Remote.Client.reconnects client);
        ]);
    create;
    open_file;
    read = (fun f ~off ~len -> f.fread ~off ~len);
    write = (fun f ~off data -> f.fwrite ~off data);
    begin_batch =
      (fun () ->
        apply_cpu_scale ();
        Remote.Client.c_begin client);
    end_batch =
      (fun () ->
        apply_cpu_scale ();
        Remote.Client.c_commit client);
    flush_caches = flush_db_caches db;
  }

(* Single process: the benchmark runs inside the data manager, no network. *)
let inversion_local ~cache_pages ~os_cache_pages ~index_write_through ~cpu_scale
    ~compressed ?deferred_index name =
  let clock, db, fs = inversion_machine ~cache_pages ~os_cache_pages ?deferred_index () in
  let session = Fs.new_session fs in
  let apply_cpu_scale () = Relstore.Cpu_model.scale := cpu_scale in
  let mk_file fd =
    {
      fread =
        (fun ~off ~len ->
          apply_cpu_scale ();
          ignore (Fs.p_lseek session fd off Fs.Seek_set : int64);
          let buf = Bytes.create len in
          Fs.p_read session fd buf len);
      fwrite =
        (fun ~off data ->
          apply_cpu_scale ();
          ignore (Fs.p_lseek session fd off Fs.Seek_set : int64);
          ignore (Fs.p_write session fd data (Bytes.length data) : int));
    }
  in
  let with_handle fd =
    match Fs.file_handle fs ~oid:(Fs.fd_oid session fd) with
    | Some inv -> Invfs.Inv_file.set_write_through inv index_write_through
    | None -> ()
  in
  let create path =
    apply_cpu_scale ();
    let fd = Fs.p_creat session ~compressed path in
    with_handle fd;
    mk_file fd
  in
  let open_file path =
    apply_cpu_scale ();
    let fd = Fs.p_open session path Fs.Rdwr in
    with_handle fd;
    mk_file fd
  in
  {
    sys_name = name;
    clock;
    io_unit = Invfs.Chunk.capacity;
    net_stats = (fun () -> []);
    create;
    open_file;
    read = (fun f ~off ~len -> f.fread ~off ~len);
    write = (fun f ~off data -> f.fwrite ~off data);
    begin_batch =
      (fun () ->
        apply_cpu_scale ();
        Fs.p_begin session);
    end_batch =
      (fun () ->
        apply_cpu_scale ();
        Fs.p_commit session;
        (* a single-process caller waits on its own commit: the batched
           force is charged here, not left pending into the next op *)
        Fs.sync fs);
    flush_caches = flush_db_caches db;
  }

let inversion_client_server ?(cache_pages = 300) ?(os_cache_pages = 16384)
    ?(index_write_through = false) ?(cpu_scale = 1.0) ?(compressed = false)
    ?deferred_index () =
  inversion_remote ~cache_pages ~os_cache_pages ~index_write_through ~cpu_scale
    ~compressed ?deferred_index "Inversion client/server"

let inversion_single_process ?(cache_pages = 300) ?(os_cache_pages = 16384)
    ?(index_write_through = false) ?(cpu_scale = 1.0) ?(compressed = false)
    ?deferred_index () =
  inversion_local ~cache_pages ~os_cache_pages ~index_write_through ~cpu_scale
    ~compressed ?deferred_index "Inversion single process"

(* ---------------- ULTRIX NFS ---------------- *)

let ultrix_nfs ?(presto = true) ?(cache_pages = 2048) () =
  let clock = Simclock.Clock.create () in
  let device =
    Pagestore.Device.create ~clock ~name:"rz58" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  let ffs = Nfsbaseline.Ffs.create ~device ~cache_pages () in
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
