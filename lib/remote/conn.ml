(* One session on Inversion, whatever carries it; see conn.mli. *)

module Fs = Invfs.Fs

type t = Local of Fs.session | Remote of Client.t | Fleet of Cluster.conn

let refuse what =
  invalid_arg
    (Printf.sprintf
       "a fleet session has no %s: its names and file data commit separately (ROADMAP \
        item 13(b))"
       what)

(* A namespace call: a fleet sends it to its coordinator, which holds
   every name and attribute. *)
let names t local remote =
  match t with Local s -> local s | Remote c -> remote c | Fleet f -> remote (Cluster.coord f)

(* A transaction, clone or fd call: no fleet session spans a name and
   its data, so a fleet refuses. *)
let session what t local remote =
  match t with Local s -> local s | Remote c -> remote c | Fleet _ -> refuse what

let fds t = session "file descriptors" t

let create t path =
  names t
    (fun s -> Fs.p_close s (Fs.p_creat s path))
    (fun c -> Client.c_close c (Client.c_creat c path))

let mkdir t path = names t (fun s -> Fs.mkdir s path) (fun c -> Client.c_mkdir c path)

let readdir t ?timestamp path =
  names t (fun s -> Fs.readdir s ?timestamp path) (fun c -> Client.c_readdir c ?timestamp path)

let unlink t path = names t (fun s -> Fs.unlink s path) (fun c -> Client.c_unlink c path)
let rmdir t path = names t (fun s -> Fs.rmdir s path) (fun c -> Client.c_rmdir c path)
let rename t src dst = names t (fun s -> Fs.rename s src dst) (fun c -> Client.c_rename c src dst)

let stat t ?timestamp path =
  names t (fun s -> Fs.stat s ?timestamp path) (fun c -> Client.c_stat c ?timestamp path)

let set_owner t path o =
  names t (fun s -> Fs.set_owner s path o) (fun c -> Client.c_set_owner c path o)

let set_type t path ty =
  names t (fun s -> Fs.set_type s path ty) (fun c -> Client.c_set_type c path ty)

let define_type t ty =
  names t (fun s -> Fs.define_type (Fs.fs s) ty) (fun c -> Client.c_define_type c ty)

let query t q =
  names t
    (fun s -> List.map (List.map Postquel.Value.to_string) (Fs.query s q))
    (fun c -> Client.c_query c q)

let snapshot t = names t (fun s -> Fs.snapshot (Fs.fs s)) Client.c_snapshot
let begin_txn t = session "transactions" t Fs.p_begin Client.c_begin
let commit t = session "transactions" t Fs.p_commit Client.c_commit
let abort t = session "transactions" t Fs.p_abort Client.c_abort

let clone t ~src ~dst =
  session "clone" t
    (fun s -> ignore (Fs.clone s ~src ~dst : int64))
    (fun c -> Client.c_clone c ~src ~dst)

let creat t ~compressed path =
  fds t (fun s -> Fs.p_creat s ~compressed path) (fun c -> Client.c_creat c ~compressed path)

let open_file t path m = fds t (fun s -> Fs.p_open s path m) (fun c -> Client.c_open c path m)
let close t fd = fds t (fun s -> Fs.p_close s fd) (fun c -> Client.c_close c fd)
let lseek t fd off w = fds t (fun s -> Fs.p_lseek s fd off w) (fun c -> Client.c_lseek c fd off w)
let read t fd buf n = fds t (fun s -> Fs.p_read s fd buf n) (fun c -> Client.c_read c fd buf n)
let write t fd buf n = fds t (fun s -> Fs.p_write s fd buf n) (fun c -> Client.c_write c fd buf n)
let ftruncate t fd n = fds t (fun s -> Fs.ftruncate s fd n) (fun c -> Client.c_ftruncate c fd n)

(* A fleet's file data lives on the shard that owns the oid the
   coordinator assigned. *)
let fleet_oid f path = (Client.c_stat (Cluster.coord f) path).Invfs.Fileatt.file

let write_file t path data =
  match t with
  | Local s -> Fs.write_file s path data
  | Remote c -> Client.write_file c path data
  | Fleet f ->
    if not (Client.c_exists (Cluster.coord f) path) then create t path;
    let oid = fleet_oid f path in
    ignore (Cluster.shard_write f ~oid ~off:0L ~data:(Bytes.to_string data) : int);
    Cluster.shard_truncate f ~oid ~size:(Int64.of_int (Bytes.length data))

let read_whole_file t ?timestamp path =
  match t with
  | Local s -> Fs.read_whole_file s ?timestamp path
  | Remote c -> Client.read_whole_file c ?timestamp path
  | Fleet f ->
    if timestamp <> None then refuse "historical data reads";
    let oid = fleet_oid f path in
    (* the coordinator does not know the length: read 1 MiB slices (a
       shard allocates what a read asks for) until a short one *)
    let slice = 1 lsl 20 in
    let buf = Buffer.create 256 in
    let rec go off =
      let data = Cluster.shard_read f ~oid ~off ~len:slice in
      Buffer.add_string buf data;
      if String.length data = slice then go (Int64.add off (Int64.of_int slice))
    in
    go 0L;
    Buffer.to_bytes buf
