module Db = Relstore.Db
module Txn = Relstore.Txn
module Snapshot = Relstore.Snapshot
module Value = Postquel.Value

(* An O(1) clone: the destination file starts life as a view of the
   source's committed state at [chorizon], up to [base_len] bytes.  Chunks
   the clone has not overwritten fault through to the base; the mapping
   holds a vacuum lease at [chorizon] so the base history stays
   readable. *)
type clone_base = {
  src_oid : int64;
  chorizon : int64;
  base_len : int64;
  lease : int;
}

(* A relation this file system made: a catalog or the clone map, or a
   file's table. *)
type owned = Table of Index.Indexed.t | File of Inv_file.t

type t = {
  db : Db.t;
  naming : Naming.t;
  fileatt : Fileatt.t;
  registry : Postquel.Registry.t;
  root_oid : int64;
  relations : (string, owned) Hashtbl.t;
      (* every relation made here, by name, from its create, clone or
         migration on; none is ever dropped *)
  mutable clonemap : Index.Indexed.t option; (* made by the first clone *)
  mutable qsnap : Snapshot.t; (* snapshot of the query being evaluated *)
  clone_bases : (int64, clone_base) Hashtbl.t; (* dst oid -> base view *)
  mutable clones_loaded : bool; (* lazy reload of the durable clonemap *)
  mutable vac_rr : int; (* incremental vacuum's round-robin position *)
}

type query_ctx = { qfs : t; snapshot : Snapshot.t }

type open_mode = Rdonly | Rdwr
type whence = Seek_set | Seek_cur | Seek_end
type fd = int

type pending = { mutable pstart : int64; pbuf : Buffer.t }

type open_file = {
  oid : int64;
  mode : open_mode;
  hist : int64 option;
  hist_lease : int; (* vacuum lease pinning [hist]; -1 when not historical *)
  mutable pos : int64;
  mutable pending : pending option;
}

type session = {
  owner_fs : t;
  fds : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
  mutable txn : Txn.t option;
  pending_att : (int64, Fileatt.att) Hashtbl.t;
  created : (int64, Relstore.Tid.t * Fileatt.att) Hashtbl.t;
      (* attribute rows the open transaction inserted, by oid: no other
         session can see them, so they cannot go stale before commit *)
}

let chunk_capacity = Chunk.capacity
let max_file_size = 17_600_000_000_000L (* the paper's 17.6 TB *)
let directory_type = "directory"

let db t = t.db
let clock t = Db.clock t.db
let registry t = t.registry
let root_oid t = t.root_oid
let fs s = s.owner_fs

(* ---------- transactions ---------- *)

let in_transaction s = s.txn <> None

let translate_locks f =
  try f () with
  | Relstore.Lock_mgr.Would_block { resource; holders; _ } ->
    Errors.fail Errors.EAGAIN "lock conflict on %s (held by xid %s)" resource
      (String.concat ", " (List.map Relstore.Xid.to_string holders))
  | Relstore.Lock_mgr.Deadlock xid -> Errors.fail Errors.EDEADLK "deadlock, victim xid %d" xid
  | Pagestore.Device.Media_failure { device; segid; blkno; reason } ->
    (* Permanent media fault that retry and mirror failover could not
       absorb: the operation fails with EIO, the file system stays up. *)
    Errors.fail Errors.EIO "media failure on %s (segment %d, block %d): %s" device segid
      blkno reason
  | Relstore.Heap.Append_only msg -> Errors.fail Errors.EROFS "%s" msg

let flush_pending_atts s txn =
  let fileatt = s.owner_fs.fileatt in
  Hashtbl.iter
    (fun oid att ->
      match Hashtbl.find_opt s.created oid with
      | Some (tid, _) -> Fileatt.update fileatt txn tid att
      | None -> Fileatt.set fileatt txn att)
    s.pending_att;
  Hashtbl.reset s.pending_att;
  Hashtbl.reset s.created

(* Run one operation in the session's transaction, or in a private
   auto-commit transaction when none is open. *)
let with_op s f =
  translate_locks (fun () ->
      match s.txn with
      | Some txn -> f txn
      | None ->
        Db.with_txn s.owner_fs.db (fun txn ->
            let r = f txn in
            flush_pending_atts s txn;
            r))

let p_begin s =
  if in_transaction s then Errors.fail Errors.ETXN "transaction already active";
  s.txn <- Some (Db.begin_txn s.owner_fs.db)

let discard_all_pending s =
  Hashtbl.iter (fun _ of_ -> of_.pending <- None) s.fds;
  Hashtbl.reset s.pending_att;
  Hashtbl.reset s.created

(* forward declared: flush_pending needs write_at defined below *)
let flush_pending_ref :
    (session -> Txn.t -> open_file -> unit) ref =
  ref (fun _ _ _ -> assert false)

let p_commit s =
  match s.txn with
  | None -> Errors.fail Errors.ETXN "no transaction active"
  | Some txn ->
    translate_locks (fun () ->
        Hashtbl.iter (fun _ of_ -> !flush_pending_ref s txn of_) s.fds;
        flush_pending_atts s txn;
        ignore (Txn.commit txn : int64);
        s.txn <- None)

let p_abort s =
  match s.txn with
  | None -> Errors.fail Errors.ETXN "no transaction active"
  | Some txn ->
    discard_all_pending s;
    Txn.abort txn;
    s.txn <- None

let with_transaction s f =
  p_begin s;
  match f () with
  | v ->
    p_commit s;
    v
  | exception e ->
    if in_transaction s then p_abort s;
    raise e

(* ---------- attribute access with session-pending overlay ---------- *)

let session_att s txn ~oid =
  match Hashtbl.find_opt s.pending_att oid with
  | Some att -> Some att
  | None -> (
    match Hashtbl.find_opt s.created oid with
    | Some (_, att) -> Some att
    | None -> Fileatt.get s.owner_fs.fileatt (Txn.snapshot txn) ~file:oid)

let stage_att s txn att =
  match s.txn with
  | Some _ -> Hashtbl.replace s.pending_att att.Fileatt.file att
  | None -> Fileatt.set s.owner_fs.fileatt txn att

(* ---------- path resolution ---------- *)

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then
    Errors.fail Errors.EINVAL "path must be absolute: %S" path;
  String.split_on_char '/' path
  |> List.filter (fun c -> c <> "")
  |> List.map (fun c ->
         if c = "." || c = ".." then
           Errors.fail Errors.EINVAL "path component %S not supported" c
         else c)

let is_dir (att : Fileatt.att) = String.equal att.ftype directory_type

let row_of t snap oid =
  match Fileatt.locate t.fileatt snap ~file:oid with
  | Some row -> row
  | None -> Errors.fail Errors.ENOENT "dangling oid %Ld" oid

let att_of t snap oid = snd (row_of t snap oid)

(* Walk to the oid of the directory containing the last component;
   returns (parent oid, basename).  "/" itself has no parent. *)
let resolve_parent t snap path =
  match List.rev (split_path path) with
  | [] -> Errors.fail Errors.EINVAL "path %S has no basename" path
  | base :: rev_dirs ->
    let walk parent comp =
      match Naming.lookup t.naming snap ~parentid:parent ~name:comp with
      | None -> Errors.fail Errors.ENOENT "%s (component %s)" path comp
      | Some e ->
        if not (is_dir (att_of t snap e.Naming.file)) then
          Errors.fail Errors.ENOTDIR "%s (component %s)" path comp
        else e.Naming.file
    in
    (List.fold_left walk t.root_oid (List.rev rev_dirs), base)

let resolve_entry t snap path =
  match split_path path with
  | [] -> None (* "/" the root *)
  | _ ->
    let parent, base = resolve_parent t snap path in
    Naming.lookup t.naming snap ~parentid:parent ~name:base

let resolve_oid t snap path =
  match resolve_entry t snap path with
  | None -> if split_path path = [] then Some t.root_oid else None
  | Some e -> Some e.Naming.file

(* ---------- construction ---------- *)

let now_ts t = Db.now t.db

let dir_att t ~oid ~owner =
  {
    Fileatt.file = oid;
    size = 0L;
    owner;
    ftype = directory_type;
    device = "";
    index_segid = -1;
    compressed = false;
    ctime = now_ts t;
    mtime = now_ts t;
    atime = now_ts t;
  }

let relation_of = function Table rel -> rel | File inv -> Inv_file.relation inv

let register t owned =
  let heap = Index.Indexed.heap (relation_of owned) in
  Hashtbl.replace t.relations (Relstore.Heap.name heap) owned

let file_handle t ~oid =
  match Hashtbl.find_opt t.relations (Inv_file.relname oid) with
  | Some (File inv) -> Some inv
  | Some (Table _) | None -> None

(* ---------- clones ---------- *)

(* The clone map is a raw catalog relation: one record per live clone,
   oid = the clone, payload = (base oid, base horizon, base length) as
   three big-endian int64s.  It is ordinary transactional storage, so the
   mapping is exactly as durable as the clone's directory entry.  An
   indexed relation with no trees, so that it owns its archive. *)
let clonemap t =
  match t.clonemap with
  | Some cm -> cm
  | None ->
    let heap = Db.create_relation t.db ~name:"clonemap" () in
    let cm = Index.Indexed.create heap ~archive:(Db.archive t.db heap) [] in
    t.clonemap <- Some cm;
    register t (Table cm);
    cm

let encode_clone ~src_oid ~horizon ~base_len =
  let b = Bytes.create 24 in
  Bytes.set_int64_be b 0 src_oid;
  Bytes.set_int64_be b 8 horizon;
  Bytes.set_int64_be b 16 base_len;
  b

(* A clone's map record, tested in place by a scan's key test (see
   [Relstore.Heap.scan]). *)
let maps_clone oid v =
  Relstore.Heap_page.oid_is v oid && Relstore.Heap_page.payload_length v = 24

(* In-memory clone bases (and their vacuum leases) are a volatile cache
   of the clonemap; they reload lazily from durable state, which is also
   how they come back after a crash. *)
let drop_clone_cache t =
  Hashtbl.iter (fun _ cb -> Db.release_lease t.db cb.lease) t.clone_bases;
  Hashtbl.reset t.clone_bases;
  t.clones_loaded <- false

let load_clone_bases t =
  if not t.clones_loaded then begin
    t.clones_loaded <- true;
    match t.clonemap with
    | None -> ()
    | Some cm ->
      Index.Indexed.scan cm (Snapshot.As_of (now_ts t)) (fun r ->
          if Bytes.length r.Relstore.Heap.payload = 24 then begin
            let src_oid = Bytes.get_int64_be r.Relstore.Heap.payload 0 in
            let chorizon = Bytes.get_int64_be r.Relstore.Heap.payload 8 in
            let base_len = Bytes.get_int64_be r.Relstore.Heap.payload 16 in
            let lease = Db.acquire_lease t.db ~horizon:chorizon in
            Hashtbl.replace t.clone_bases r.Relstore.Heap.oid
              { src_oid; chorizon; base_len; lease }
          end)
  end

let clone_base_of t oid =
  load_clone_bases t;
  Hashtbl.find_opt t.clone_bases oid

(* The mapping as of a past instant.  A clone severed later (truncating
   below the base materializes the copied range and deletes the map
   record) must still read through its base for time travel at instants
   before the severance — so [As_of] reads consult the durable clonemap
   at the read timestamp, never the current cache.  The scan reads
   through the archive tier like any other, so even a vacuumed-away map
   record keeps answering. *)
let clone_base_at t ~ts oid =
  match t.clonemap with
  | None -> None
  | Some cm ->
    let found = ref None in
    Index.Indexed.scan ~where:(maps_clone oid) cm (Snapshot.As_of ts) (fun r ->
        found :=
          Some
            {
              src_oid = Bytes.get_int64_be r.Relstore.Heap.payload 0;
              chorizon = Bytes.get_int64_be r.Relstore.Heap.payload 8;
              base_len = Bytes.get_int64_be r.Relstore.Heap.payload 16;
              lease = -1;
            });
    !found

let clone_base_for t snap oid =
  match snap with
  | Snapshot.As_of ts -> clone_base_at t ~ts oid
  | _ -> clone_base_of t oid

(* Read one chunk of [oid], faulting through to the clone base when the
   file has not overwritten it.  Bases chain (a clone of a clone), each
   level read as of its own horizon and clipped to its base length. *)
let rec chunk_read t snap inv ~oid ~chunkno =
  match Inv_file.read_chunk inv snap ~chunkno with
  | Some data -> Some data
  | None -> (
    match clone_base_for t snap oid with
    | None -> None
    | Some cb ->
      let cap = Int64.of_int chunk_capacity in
      let chunk_start = Int64.mul chunkno cap in
      if Int64.compare chunk_start cb.base_len >= 0 then None
      else
        let bsnap = Snapshot.As_of cb.chorizon in
        (match file_handle t ~oid:cb.src_oid with
        | None -> None
        | Some binv -> (
          match chunk_read t bsnap binv ~oid:cb.src_oid ~chunkno with
          | None -> None
          | Some d ->
            let avail = Int64.sub cb.base_len chunk_start in
            if Int64.compare (Int64.of_int (Bytes.length d)) avail > 0 then
              Some (Bytes.sub d 0 (Int64.to_int avail))
            else Some d)))

let read_file_at t snap ~oid =
  match file_handle t ~oid with
  | None -> Bytes.create 0
  | Some inv ->
    let att =
      match Fileatt.get t.fileatt snap ~file:oid with
      | Some a -> a
      | None -> Errors.fail Errors.ENOENT "no attributes for oid %Ld" oid
    in
    let size = Int64.to_int att.Fileatt.size in
    let out = Bytes.make size '\000' in
    let cap = chunk_capacity in
    let nchunks = (size + cap - 1) / cap in
    for c = 0 to nchunks - 1 do
      match chunk_read t snap inv ~oid ~chunkno:(Int64.of_int c) with
      | Some data ->
        let off = c * cap in
        let len = min (Bytes.length data) (size - off) in
        Bytes.blit data 0 out off len
      | None -> ()
    done;
    out

let read_file_snapshot t snap path =
  match resolve_oid t snap path with
  | Some oid -> Some (read_file_at t snap ~oid)
  | None -> None
  | exception Errors.Fs_error ((Errors.ENOENT | Errors.ENOTDIR), _) ->
    None (* an intermediate directory did not exist at that moment *)

let file_type_at t snap oid =
  Option.map (fun a -> a.Fileatt.ftype) (Fileatt.get t.fileatt snap ~file:oid)

let iter_files t snap f =
  Naming.iter_all t.naming snap (fun entry ->
      match Fileatt.get t.fileatt snap ~file:entry.Naming.file with
      | Some att -> f entry att
      | None -> ())

let rec path_of_oid_snap t snap oid =
  if Int64.equal oid t.root_oid then Some "/"
  else
    match Naming.by_oid t.naming snap ~file:oid with
    | None -> None
    | Some e -> (
      match path_of_oid_snap t snap e.Naming.parentid with
      | Some "/" -> Some ("/" ^ e.Naming.name)
      | Some parent -> Some (parent ^ "/" ^ e.Naming.name)
      | None -> None)

(* Months of the simulated calendar: the clock starts at the Sequoia-era
   epoch 1993-01-01T00:00Z (not a leap year). *)
let month_names =
  [| "January"; "February"; "March"; "April"; "May"; "June"; "July"; "August";
     "September"; "October"; "November"; "December" |]

let month_lengths = [| 31; 28; 31; 30; 31; 30; 31; 31; 30; 31; 30; 31 |]

let month_of_timestamp us =
  let day = Int64.to_int (Int64.div us 86_400_000_000L) mod 365 in
  let rec pick m acc = if day < acc + month_lengths.(m) then m else pick (m + 1) (acc + month_lengths.(m)) in
  month_names.(pick 0 0)

let register_function t ~name ?file_type ?arity f =
  let impl args = f { qfs = t; snapshot = t.qsnap } args in
  Postquel.Registry.register t.registry ~name ?file_type ?arity impl

let builtin_att_fn t extract ctx args =
  match args with
  | [ Value.Int oid ] -> (
    match Fileatt.get t.fileatt ctx.snapshot ~file:oid with
    | Some att -> extract att
    | None -> Value.Null)
  | _ -> Value.Null

let register_builtins t =
  let reg name extract =
    register_function t ~name ~arity:1 (fun ctx args -> builtin_att_fn t extract ctx args)
  in
  reg "owner" (fun a -> Value.Str a.Fileatt.owner);
  reg "filetype" (fun a -> Value.Str a.Fileatt.ftype);
  reg "size" (fun a -> Value.Int a.Fileatt.size);
  reg "ctime" (fun a -> Value.Int a.Fileatt.ctime);
  reg "mtime" (fun a -> Value.Int a.Fileatt.mtime);
  reg "atime" (fun a -> Value.Int a.Fileatt.atime);
  reg "month_of" (fun a -> Value.Str (month_of_timestamp a.Fileatt.mtime));
  register_function t ~name:"name" ~arity:1 (fun ctx args ->
      match args with
      | [ Value.Int oid ] -> (
        match Naming.by_oid t.naming ctx.snapshot ~file:oid with
        | Some e -> Value.Str e.Naming.name
        | None -> Value.Null)
      | _ -> Value.Null);
  register_function t ~name:"dir" ~arity:1 (fun ctx args ->
      match args with
      | [ Value.Int oid ] -> (
        match Naming.by_oid t.naming ctx.snapshot ~file:oid with
        | Some e -> (
          match path_of_oid_snap t ctx.snapshot e.Naming.parentid with
          | Some p -> Value.Str p
          | None -> Value.Null)
        | None -> Value.Null)
      | _ -> Value.Null)

let make db () =
  let naming = Naming.create db in
  let fileatt = Fileatt.create db in
  let registry = Postquel.Registry.create () in
  let root_oid = Db.allocate_oid db in
  let t =
    {
      db;
      naming;
      fileatt;
      registry;
      root_oid;
      relations = Hashtbl.create 64;
      clonemap = None;
      qsnap = Snapshot.As_of 0L;
      clone_bases = Hashtbl.create 16;
      clones_loaded = false;
      vac_rr = 0;
    }
  in
  register t (Table (Naming.relation naming));
  register t (Table (Fileatt.relation fileatt));
  Postquel.Registry.define_type registry directory_type;
  Db.with_txn db (fun txn ->
      ignore
        (Naming.insert naming txn ~parentid:Naming.root_parent ~file:root_oid ~name:"/"
          : Naming.entry);
      ignore
        (Fileatt.insert fileatt txn (dir_att t ~oid:root_oid ~owner:"root") : Relstore.Tid.t));
  register_builtins t;
  t

let define_type t name = Postquel.Registry.define_type t.registry name

(* ---------- sessions ---------- *)

let new_session t =
  {
    owner_fs = t;
    fds = Hashtbl.create 16;
    next_fd = 3;
    txn = None;
    pending_att = Hashtbl.create 8;
    created = Hashtbl.create 8;
  }

let alloc_fd s of_ =
  let fd = s.next_fd in
  s.next_fd <- fd + 1;
  Hashtbl.replace s.fds fd of_;
  fd

let find_fd s fd =
  match Hashtbl.find_opt s.fds fd with
  | Some of_ -> of_
  | None -> Errors.fail Errors.EBADF "fd %d not open" fd

(* ---------- data path ---------- *)

(* The fd's storage handle, looked up on every use: migration replaces
   it. *)
let require_inv t of_ =
  match file_handle t ~oid:of_.oid with
  | Some inv -> inv
  | None -> Errors.fail Errors.EBADF "file storage unavailable"

(* Write [data] at [offset], chunk by chunk (read-modify-write at the
   edges), and stage the size/mtime update. *)
let write_at s txn of_ ~offset data =
  let t = s.owner_fs in
  let inv = require_inv t of_ in
  let len = Bytes.length data in
  if len > 0 then begin
    if Int64.add offset (Int64.of_int len) > max_file_size then
      Errors.fail Errors.EINVAL "write past the 17.6 TB limit";
    let cap = Int64.of_int chunk_capacity in
    let att =
      match session_att s txn ~oid:of_.oid with
      | Some a -> a
      | None -> Errors.fail Errors.ENOENT "file oid %Ld has no attributes" of_.oid
    in
    let snap = Txn.snapshot txn in
    let first = Int64.div offset cap in
    let last = Int64.div (Int64.add offset (Int64.of_int (len - 1))) cap in
    let c = ref first in
    while Int64.compare !c last <= 0 do
      let chunk_start = Int64.mul !c cap in
      let lo = max offset chunk_start in
      let hi = min (Int64.add offset (Int64.of_int len)) (Int64.add chunk_start cap) in
      let in_chunk_off = Int64.to_int (Int64.sub lo chunk_start) in
      let slice_len = Int64.to_int (Int64.sub hi lo) in
      let src_off = Int64.to_int (Int64.sub lo offset) in
      let payload =
        if in_chunk_off = 0 && slice_len = chunk_capacity then Bytes.sub data src_off slice_len
        else begin
          let existing =
            match chunk_read t snap inv ~oid:of_.oid ~chunkno:!c with
            | Some d -> d
            | None -> Bytes.create 0
          in
          let need = max (Bytes.length existing) (in_chunk_off + slice_len) in
          let buf = Bytes.make need '\000' in
          Bytes.blit existing 0 buf 0 (Bytes.length existing);
          Bytes.blit data src_off buf in_chunk_off slice_len;
          buf
        end
      in
      Inv_file.write_chunk inv txn ~chunkno:!c payload;
      c := Int64.add !c 1L
    done;
    let new_size = max att.Fileatt.size (Int64.add offset (Int64.of_int len)) in
    stage_att s txn { att with Fileatt.size = new_size; mtime = now_ts t }
  end

(* The buffer is cleared only after the write lands: a flush that blocks
   on a lock (Would_block out of [write_at]) leaves [pending] intact, so
   a re-issued commit re-runs the same write — same offset, same bytes,
   idempotent within the transaction — instead of silently dropping it.
   The remote server relies on this to park-and-re-execute a [Commit]
   that lost a lock race. *)
let flush_pending s txn of_ =
  match of_.pending with
  | None -> ()
  | Some p ->
    write_at s txn of_ ~offset:p.pstart (Buffer.to_bytes p.pbuf);
    of_.pending <- None

let () = flush_pending_ref := flush_pending

let read_at t snap inv ~oid ~size ~pos buf len =
  let avail = Int64.sub size pos in
  let n = min (Int64.of_int len) (max 0L avail) in
  let n = Int64.to_int n in
  if n > 0 then begin
    Bytes.fill buf 0 n '\000';
    let cap = Int64.of_int chunk_capacity in
    let first = Int64.div pos cap in
    let last = Int64.div (Int64.add pos (Int64.of_int (n - 1))) cap in
    (* A multi-chunk read walks the file's heap segment in ascending
       block order — tell the buffer cache so read-ahead arms now. *)
    if Int64.compare last first > 0 then Inv_file.hint_sequential inv;
    let c = ref first in
    while Int64.compare !c last <= 0 do
      let chunk_start = Int64.mul !c cap in
      (match chunk_read t snap inv ~oid ~chunkno:!c with
      | Some data ->
        let lo = max pos chunk_start in
        let hi =
          min (Int64.add pos (Int64.of_int n)) (Int64.add chunk_start cap)
        in
        let in_chunk = Int64.to_int (Int64.sub lo chunk_start) in
        let want = Int64.to_int (Int64.sub hi lo) in
        let have = max 0 (min want (Bytes.length data - in_chunk)) in
        if have > 0 then
          Bytes.blit data in_chunk buf (Int64.to_int (Int64.sub lo pos)) have
      | None -> () (* sparse: already zeroed *));
      c := Int64.add !c 1L
    done
  end;
  n

(* ---------- the p_* interface ---------- *)

let default_device_name t =
  Pagestore.Device.name (Pagestore.Switch.default_device (Db.switch t.db))

(* Create [base] in directory [parent], whose lookup of [base] came back
   empty under [txn]'s snapshot; returns the oid.
   Inside an explicit transaction the new attribute row stays in the
   session, so the file's writes and the commit need not fetch it back. *)
let create_file s txn ~parent ~base ?device ?(ftype = "unknown") ?(owner = "user")
    ?(compressed = false) () =
  let t = s.owner_fs in
  let oid = Db.allocate_oid t.db in
  let device = match device with Some d -> d | None -> default_device_name t in
  if Pagestore.Switch.find_opt (Db.switch t.db) device = None then
    Errors.fail Errors.EINVAL "no device named %s on the switch" device;
  let inv = Inv_file.create t.db ~oid ~device ~compressed in
  register t (File inv);
  ignore (Naming.insert t.naming txn ~parentid:parent ~file:oid ~name:base : Naming.entry);
  let att =
    {
      Fileatt.file = oid;
      size = 0L;
      owner;
      ftype;
      device;
      index_segid = Inv_file.index_segid inv;
      compressed;
      ctime = now_ts t;
      mtime = now_ts t;
      atime = now_ts t;
    }
  in
  let tid = Fileatt.insert t.fileatt txn att in
  if in_transaction s then Hashtbl.replace s.created oid (tid, att);
  oid

let open_rdwr s oid =
  alloc_fd s { oid; mode = Rdwr; hist = None; hist_lease = -1; pos = 0L; pending = None }

let p_creat s ?device ?ftype ?owner ?compressed path =
  let t = s.owner_fs in
  with_op s (fun txn ->
      let snap = Txn.snapshot txn in
      let parent, base = resolve_parent t snap path in
      (match Naming.lookup t.naming snap ~parentid:parent ~name:base with
      | Some _ -> Errors.fail Errors.EEXIST "%s" path
      | None -> ());
      create_file s txn ~parent ~base ?device ?ftype ?owner ?compressed ())
  |> open_rdwr s

let open_or_creat s path =
  let t = s.owner_fs in
  if split_path path = [] then Errors.fail Errors.EISDIR "%s" path;
  with_op s (fun txn ->
      let snap = Txn.snapshot txn in
      let parent, base = resolve_parent t snap path in
      match Naming.lookup t.naming snap ~parentid:parent ~name:base with
      | None -> create_file s txn ~parent ~base ()
      | Some e ->
        let oid = e.Naming.file in
        if is_dir (att_of t snap oid) then Errors.fail Errors.EISDIR "%s" path;
        oid)
  |> open_rdwr s

let p_open s ?timestamp path mode =
  let t = s.owner_fs in
  (match (timestamp, mode) with
  | Some _, Rdwr -> Errors.fail Errors.EROFS "historical files may not be opened for writing"
  | _ -> ());
  let snap =
    match (timestamp, s.txn) with
    | Some ts, _ -> Snapshot.As_of ts
    | None, Some txn -> Txn.snapshot txn (* own uncommitted creates are visible *)
    | None, None -> Snapshot.As_of (now_ts t)
  in
  let oid =
    match resolve_oid t snap path with
    | Some oid -> oid
    | None -> Errors.fail Errors.ENOENT "%s" path
  in
  let att = att_of t snap oid in
  if is_dir att then Errors.fail Errors.EISDIR "%s" path;
  (* A historical open leases its horizon so the incremental vacuum
     cannot discard versions this fd may still read. *)
  let hist_lease =
    match timestamp with
    | Some ts -> Db.acquire_lease t.db ~horizon:ts
    | None -> -1
  in
  alloc_fd s { oid; mode; hist = timestamp; hist_lease; pos = 0L; pending = None }

let p_close s fd =
  let of_ = find_fd s fd in
  if of_.pending <> None then with_op s (fun txn -> flush_pending s txn of_);
  if of_.hist_lease >= 0 then Db.release_lease s.owner_fs.db of_.hist_lease;
  Hashtbl.remove s.fds fd

(* One read at the fd's position into the buffer [alloc] picks from the
   file's attribute row, which is read once: under the open's snapshot
   for a historical fd, else in one transaction that flushes the fd's
   pending write and share-locks the file's data.
   Returns the buffer and the count, which advances the position. *)
let read_fd s of_ alloc =
  let t = s.owner_fs in
  let inv = require_inv t of_ in
  let read snap (att : Fileatt.att) =
    let buf, len = alloc att in
    (buf, read_at t snap inv ~oid:of_.oid ~size:att.Fileatt.size ~pos:of_.pos buf len)
  in
  let buf, n =
    match of_.hist with
    | Some ts ->
      let snap = Snapshot.As_of ts in
      read snap (att_of t snap of_.oid)
    | None ->
      with_op s (fun txn ->
          flush_pending s txn of_;
          Relstore.Heap.read_lock (Inv_file.heap inv) txn;
          let att =
            match session_att s txn ~oid:of_.oid with
            | Some a -> a
            | None -> Errors.fail Errors.ENOENT "file oid %Ld vanished" of_.oid
          in
          read (Txn.snapshot txn) att)
  in
  of_.pos <- Int64.add of_.pos (Int64.of_int n);
  (buf, n)

let p_read s fd buf len =
  let of_ = find_fd s fd in
  if len < 0 || len > Bytes.length buf then Errors.fail Errors.EINVAL "bad length %d" len;
  snd (read_fd s of_ (fun _ -> (buf, len)))

let p_write s fd buf len =
  let of_ = find_fd s fd in
  if of_.hist <> None then Errors.fail Errors.EROFS "historical open";
  if of_.mode <> Rdwr then Errors.fail Errors.EROFS "fd %d is read-only" fd;
  if len < 0 || len > Bytes.length buf then Errors.fail Errors.EINVAL "bad length %d" len;
  let data = Bytes.sub buf 0 len in
  (match s.txn with
  | None ->
    (* auto-commit: each write is its own transaction, nothing coalesces *)
    with_op s (fun txn -> write_at s txn of_ ~offset:of_.pos data)
  | Some txn ->
    (* coalesce sequential writes within the transaction *)
    let appended =
      match of_.pending with
      | Some p
        when Int64.add p.pstart (Int64.of_int (Buffer.length p.pbuf)) = of_.pos
             && Buffer.length p.pbuf < chunk_capacity ->
        Buffer.add_bytes p.pbuf data;
        true
      | _ -> false
    in
    if not appended then begin
      translate_locks (fun () -> flush_pending s txn of_);
      let p = { pstart = of_.pos; pbuf = Buffer.create (min len chunk_capacity) } in
      Buffer.add_bytes p.pbuf data;
      of_.pending <- Some p
    end;
    (match of_.pending with
    | Some p when Buffer.length p.pbuf >= chunk_capacity ->
      translate_locks (fun () -> flush_pending s txn of_)
    | _ -> ()));
  of_.pos <- Int64.add of_.pos (Int64.of_int len);
  len

let ftruncate s fd new_size =
  let t = s.owner_fs in
  let of_ = find_fd s fd in
  if of_.hist <> None then Errors.fail Errors.EROFS "historical open";
  if of_.mode <> Rdwr then Errors.fail Errors.EROFS "fd %d is read-only" fd;
  if Int64.compare new_size 0L < 0 then Errors.fail Errors.EINVAL "negative length";
  with_op s (fun txn ->
      flush_pending s txn of_;
      let inv = require_inv t of_ in
      (* Truncation mutates file data even when it only grows the size
         attribute: the new tail reads as zeros, so concurrent chunk
         writes must serialize against it.  Take the data heap's
         exclusive lock unconditionally — the shrink path below would
         acquire it anyway, but a pure extension otherwise stages only
         the attribute and slips past writers. *)
      Relstore.Heap.write_lock (Inv_file.heap inv) txn;
      let att =
        match session_att s txn ~oid:of_.oid with
        | Some a -> a
        | None -> Errors.fail Errors.ENOENT "file oid %Ld vanished" of_.oid
      in
      (match clone_base_of t of_.oid with
      | Some cb when Int64.compare new_size cb.base_len < 0 ->
        (* Shrinking below the base view would let a later growth
           resurrect base bytes where zeros belong.  Materialize the
           surviving base chunks into the clone and sever the mapping —
           the file owns its bytes from here on. *)
        let cap = Int64.of_int chunk_capacity in
        let nchunks = Int64.div (Int64.add new_size (Int64.sub cap 1L)) cap in
        let c = ref 0L in
        while Int64.compare !c nchunks < 0 do
          (match Inv_file.read_chunk inv (Txn.snapshot txn) ~chunkno:!c with
          | Some _ -> ()
          | None -> (
            match chunk_read t (Txn.snapshot txn) inv ~oid:of_.oid ~chunkno:!c with
            | Some d -> Inv_file.write_chunk inv txn ~chunkno:!c d
            | None -> ()));
          c := Int64.add !c 1L
        done;
        let cm = clonemap t in
        let tids = ref [] in
        Index.Indexed.scan cm (Txn.snapshot txn) (fun r ->
            if Int64.equal r.Relstore.Heap.oid of_.oid then
              tids := r.Relstore.Heap.tid :: !tids);
        List.iter (fun tid -> Relstore.Heap.delete (Index.Indexed.heap cm) txn tid) !tids;
        drop_clone_cache t
      | _ -> ());
      if Int64.compare new_size att.Fileatt.size < 0 then begin
        let cap = Int64.of_int chunk_capacity in
        let boundary = Int64.div new_size cap in
        let keep = Int64.to_int (Int64.rem new_size cap) in
        (* trim the boundary chunk, drop everything after it *)
        (match chunk_read t (Txn.snapshot txn) inv ~oid:of_.oid ~chunkno:boundary with
        | Some data when Bytes.length data > keep ->
          Inv_file.delete_chunks_from inv txn ~chunkno:boundary;
          if keep > 0 then
            Inv_file.write_chunk inv txn ~chunkno:boundary (Bytes.sub data 0 keep)
        | Some _ | None ->
          Inv_file.delete_chunks_from inv txn ~chunkno:(Int64.add boundary 1L))
      end;
      stage_att s txn { att with Fileatt.size = new_size; mtime = now_ts t })

let file_size_now s of_ =
  let t = s.owner_fs in
  match of_.hist with
  | Some ts -> (att_of t (Snapshot.As_of ts) of_.oid).Fileatt.size
  | None ->
    with_op s (fun txn ->
        match session_att s txn ~oid:of_.oid with
        | Some a -> a.Fileatt.size
        | None -> 0L)

let p_lseek s fd offset whence =
  let of_ = find_fd s fd in
  if of_.pending <> None then
    (match s.txn with
    | Some txn -> translate_locks (fun () -> flush_pending s txn of_)
    | None -> ());
  let base =
    match whence with
    | Seek_set -> 0L
    | Seek_cur -> of_.pos
    | Seek_end -> file_size_now s of_
  in
  let target = Int64.add base offset in
  if Int64.compare target 0L < 0 then Errors.fail Errors.EINVAL "negative seek";
  of_.pos <- target;
  target

let p_tell s fd = (find_fd s fd).pos
let fd_oid s fd = (find_fd s fd).oid

(* ---------- namespace operations ---------- *)

let snapshot_for s timestamp =
  match timestamp with
  | Some ts -> Snapshot.As_of ts
  | None -> (
    match s.txn with
    | Some txn -> Txn.snapshot txn
    | None -> Snapshot.As_of (now_ts s.owner_fs))

let mkdir s ?(owner = "user") path =
  let t = s.owner_fs in
  with_op s (fun txn ->
      let snap = Txn.snapshot txn in
      let parent, base = resolve_parent t snap path in
      (match Naming.lookup t.naming snap ~parentid:parent ~name:base with
      | Some _ -> Errors.fail Errors.EEXIST "%s" path
      | None -> ());
      let oid = Db.allocate_oid t.db in
      ignore (Naming.insert t.naming txn ~parentid:parent ~file:oid ~name:base : Naming.entry);
      ignore (Fileatt.insert t.fileatt txn (dir_att t ~oid ~owner) : Relstore.Tid.t))

let readdir s ?timestamp path =
  let t = s.owner_fs in
  let snap = snapshot_for s timestamp in
  match resolve_oid t snap path with
  | None -> Errors.fail Errors.ENOENT "%s" path
  | Some oid ->
    if not (is_dir (att_of t snap oid)) then Errors.fail Errors.ENOTDIR "%s" path;
    List.map (fun e -> e.Naming.name) (Naming.list_dir t.naming snap ~parentid:oid)

let stat s ?timestamp path =
  let t = s.owner_fs in
  let snap = snapshot_for s timestamp in
  match resolve_oid t snap path with
  | None -> Errors.fail Errors.ENOENT "%s" path
  | Some oid -> (
    match (timestamp, s.txn) with
    | None, Some _ -> (
      match Hashtbl.find_opt s.pending_att oid with
      | Some att -> att
      | None -> att_of t snap oid)
    | _ -> att_of t snap oid)

let exists s ?timestamp path =
  let t = s.owner_fs in
  let snap = snapshot_for s timestamp in
  match resolve_oid t snap path with Some _ -> true | None -> false

let lookup_oid s ?timestamp path =
  let t = s.owner_fs in
  let snap = snapshot_for s timestamp in
  match resolve_oid t snap path with
  | Some oid -> oid
  | None -> Errors.fail Errors.ENOENT "%s" path

let resolve_oid_opt s ?timestamp path =
  resolve_oid s.owner_fs (snapshot_for s timestamp) path

let path_of_oid s ?timestamp oid =
  path_of_oid_snap s.owner_fs (snapshot_for s timestamp) oid

let unlink s path =
  let t = s.owner_fs in
  with_op s (fun txn ->
      let snap = Txn.snapshot txn in
      match resolve_entry t snap path with
      | None -> Errors.fail Errors.ENOENT "%s" path
      | Some e ->
        let tid, att = row_of t snap e.Naming.file in
        if is_dir att then Errors.fail Errors.EISDIR "%s" path;
        Naming.remove t.naming txn e;
        Fileatt.remove t.fileatt txn tid;
        Hashtbl.remove s.pending_att e.Naming.file;
        Hashtbl.remove s.created e.Naming.file)

let rmdir s path =
  let t = s.owner_fs in
  with_op s (fun txn ->
      let snap = Txn.snapshot txn in
      match resolve_entry t snap path with
      | None -> Errors.fail Errors.ENOENT "%s" path
      | Some e ->
        let tid, att = row_of t snap e.Naming.file in
        if not (is_dir att) then Errors.fail Errors.ENOTDIR "%s" path;
        if Naming.list_dir t.naming snap ~parentid:e.Naming.file <> [] then
          Errors.fail Errors.ENOTEMPTY "%s" path;
        Naming.remove t.naming txn e;
        Fileatt.remove t.fileatt txn tid)

let rename s src dst =
  let t = s.owner_fs in
  with_op s (fun txn ->
      let snap = Txn.snapshot txn in
      match resolve_entry t snap src with
      | None -> Errors.fail Errors.ENOENT "%s" src
      | Some e ->
        let dparent, dbase = resolve_parent t snap dst in
        (match Naming.lookup t.naming snap ~parentid:dparent ~name:dbase with
        | Some _ -> Errors.fail Errors.EEXIST "%s" dst
        | None -> ());
        Naming.remove t.naming txn e;
        ignore
          (Naming.insert t.naming txn ~parentid:dparent ~file:e.Naming.file ~name:dbase
            : Naming.entry))

let set_att_field s path f =
  let t = s.owner_fs in
  with_op s (fun txn ->
      let snap = Txn.snapshot txn in
      match resolve_oid t snap path with
      | None -> Errors.fail Errors.ENOENT "%s" path
      | Some oid -> (
        match session_att s txn ~oid with
        | Some att -> stage_att s txn (f att)
        | None -> Errors.fail Errors.ENOENT "%s" path))

let set_owner s path owner = set_att_field s path (fun a -> { a with Fileatt.owner })

let set_type s path ftype =
  if not (Postquel.Registry.type_exists s.owner_fs.registry ftype) then
    Errors.fail Errors.EINVAL "type %s not defined" ftype;
  set_att_field s path (fun a -> { a with Fileatt.ftype })

(* ---------- queries ---------- *)

let run_query s ?timestamp text =
  let t = s.owner_fs in
  match Postquel.Parser.parse_statement text with
  | Postquel.Ast.Define_type name ->
    define_type t name;
    []
  | Postquel.Ast.Retrieve { targets; where } ->
    let snap = snapshot_for s timestamp in
    t.qsnap <- snap;
    let rows = ref [] in
    (* System files (stored functions, large objects) live in
       dot-directories and stay out of user queries, like catalogs. *)
    let hidden (entry : Naming.entry) =
      (String.length entry.Naming.name > 0 && entry.Naming.name.[0] = '.')
      ||
      match Naming.by_oid t.naming snap ~file:entry.Naming.parentid with
      | Some parent -> String.length parent.Naming.name > 0 && parent.Naming.name.[0] = '.'
      | None -> false
    in
    let run_row (entry : Naming.entry) (att : Fileatt.att) =
      if (not (Int64.equal entry.Naming.file t.root_oid)) && not (hidden entry) then begin
        let lookup = function
          | "file" -> Some (Value.Int entry.Naming.file)
          | "filename" -> Some (Value.Str entry.Naming.name)
          | _ -> None
        in
        let type_of = function
          | Value.Int oid when Int64.equal oid entry.Naming.file -> Some att.Fileatt.ftype
          | Value.Int oid ->
            Option.map (fun a -> a.Fileatt.ftype) (Fileatt.get t.fileatt snap ~file:oid)
          | _ -> None
        in
        let env = { Postquel.Eval.lookup; type_of } in
        if Postquel.Eval.eval_predicate t.registry env where then
          rows := List.map (Postquel.Eval.eval t.registry env) targets :: !rows
      end
    in
    iter_files t snap run_row;
    List.rev !rows

(* Query text is the caller's: a statement that does not parse or
   evaluate is its error, reported as one. *)
let query s ?timestamp text =
  try run_query s ?timestamp text with
  | Postquel.Parser.Parse_error msg | Postquel.Lexer.Lex_error (msg, _) ->
    Errors.fail Errors.EINVAL "query: %s" msg
  | Postquel.Eval.Unknown_function f -> Errors.fail Errors.EINVAL "query: no function %s" f
  | Postquel.Eval.Arity_mismatch (f, _, _) ->
    Errors.fail Errors.EINVAL "query: wrong argument count for %s" f

let with_query_snapshot t snap f =
  let saved = t.qsnap in
  t.qsnap <- snap;
  Fun.protect ~finally:(fun () -> t.qsnap <- saved) f

(* ---------- maintenance ---------- *)

let iter_file_handles t f =
  Hashtbl.fold
    (fun _ owned acc ->
      match owned with File inv -> (Inv_file.oid inv, inv) :: acc | Table _ -> acc)
    t.relations []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  |> List.iter (fun (oid, inv) -> f oid inv)

let relations t =
  Hashtbl.fold (fun name owned acc -> (name, relation_of owned) :: acc) t.relations []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

let naming_catalog t = t.naming
let fileatt_catalog t = t.fileatt

let sync t = Db.force_group t.db

(* The indexed catalogs, in the order restart rebuilds them. *)
let catalogs t = [ Naming.relation t.naming; Fileatt.relation t.fileatt ]

let crash t =
  Db.crash t.db;
  (* Volatile per-index state (cached entry counts, a file's chunk memo)
     died with the machine. *)
  Hashtbl.iter
    (fun _ -> function Table rel -> Index.Indexed.crash rel | File inv -> Inv_file.crash inv)
    t.relations;
  (* Clone bases (and the leases they held) are a cache of the durable
     clonemap; they reload lazily, re-registering their leases. *)
  Hashtbl.reset t.clone_bases;
  t.clones_loaded <- false;
  t.vac_rr <- 0

type recovery = {
  rolled_back : Relstore.Xid.t list;
  page_problems : (string * string) list;
  catalogs_rebuilt : string list;
  file_indexes_rebuilt : int64 list;
  degraded : string list;
  relations_audited : string list;
}

let on_vacuum = function
  | Table rel -> Index.Indexed.on_vacuum rel
  | File inv -> Inv_file.on_vacuum inv

(* Verify the pages of every relation [only] admits.  A relation this
   file system made is verified by its index audit, whose one read of
   each heap page also feeds the check of its B-trees ({!Index.Audit});
   the rest (the archives) get the plain page check. *)
let audit_some t ~only =
  let verdicts = Hashtbl.create 64 and audited = ref [] in
  let audit_one heap =
    let name = Relstore.Heap.name heap in
    audited := name :: !audited;
    match Hashtbl.find_opt t.relations name with
    | None -> Relstore.Heap.verify heap
    | Some owned ->
      let v = Index.Indexed.audit (relation_of owned) in
      Hashtbl.replace verdicts name v.Index.Audit.indexes;
      v.Index.Audit.pages
  in
  let check heap = if only heap then audit_one heap else Ok () in
  let page_problems = Db.verify_relations t.db ~check in
  (page_problems, Hashtbl.find_opt verdicts, List.rev !audited)

let audit_relations t = audit_some t ~only:(fun _ -> true)

(* Restart's filter: a relation needs auditing only if a store since the
   last complete flush could have torn it, that is if its heap segment or
   any of its trees' segments carries a dirty mark on either mirror copy.
   The mark tables are read once per device. *)
let torn_by_crash t =
  let marks = Hashtbl.create 16 in
  List.iter
    (fun dev ->
      List.iter
        (fun segid -> Hashtbl.replace marks (Pagestore.Device.id dev, segid) ())
        (Pagestore.Device.read_marks dev))
    (Pagestore.Switch.devices (Db.switch t.db));
  let marked dev segid =
    Hashtbl.mem marks (Pagestore.Device.id dev, segid)
    ||
    match Pagestore.Device.segment_mirror dev ~segid with
    | Some (m, msegid) -> Hashtbl.mem marks (Pagestore.Device.id m, msegid)
    | None -> false
  in
  let tree_marked (ix : Index.Audit.index) =
    marked (Index.Btree.device ix.tree) (Index.Btree.segid ix.tree)
  in
  fun heap ->
    marked (Relstore.Heap.device heap) (Relstore.Heap.segid heap)
    ||
    match Hashtbl.find_opt t.relations (Relstore.Heap.name heap) with
    | Some owned -> List.exists tree_marked (Index.Indexed.indexes (relation_of owned))
    | None -> false

let crash_and_recover t =
  let rolled_back = Relstore.Status_log.active (Db.status_log t.db) in
  crash t;
  let degraded = Db.degraded_relations t.db in
  (* The heaps are no-overwrite and self-identifying, so they come back
     intact (verified here).  The B-tree indexes are update-in-place and
     can be torn mid-flush by a crash; the same pass audits them, and a
     damaged one is rebuilt from its heap.  Degraded relations cannot
     answer index reads (or rebuilds — the index lives on the same device
     as its heap), and a heap that cannot be read leaves nothing to
     rebuild from: neither gets a verdict, so neither is rebuilt — they
     are reported in [degraded] and [page_problems] instead. *)
  let page_problems, index_verdict, relations_audited =
    audit_some t ~only:(torn_by_crash t)
  in
  (* Only what the audit found damaged reaches the dispatch and is
     rebuilt, the catalogs first, then files by oid: restart costs no
     work per clean file. *)
  let damaged =
    List.filter
      (fun name ->
        match index_verdict name with Some (Error _) -> true | Some (Ok ()) | None -> false)
      relations_audited
  in
  let catalogs_rebuilt =
    List.filter_map
      (fun rel ->
        let name = Relstore.Heap.name (Index.Indexed.heap rel) in
        if List.mem name damaged then begin
          Index.Indexed.rebuild rel;
          Some name
        end
        else None)
      (catalogs t)
  in
  let file_indexes_rebuilt =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt t.relations name with
        | Some (File inv) -> Some inv
        | Some (Table _) | None -> None)
      damaged
    |> List.sort (fun a b -> Int64.compare (Inv_file.oid a) (Inv_file.oid b))
    |> List.map (fun inv ->
           Index.Indexed.rebuild (Inv_file.relation inv);
           Inv_file.oid inv)
  in
  {
    rolled_back;
    page_problems;
    catalogs_rebuilt;
    file_indexes_rebuilt;
    degraded;
    relations_audited;
  }

(* ---------- snapshots and clones ---------- *)

(* An O(1) snapshot: settle everything pending, advance the clock a tick
   so the returned horizon is strictly after every settled commit, and
   hand back the timestamp.  Reading the file system [As_of] that
   horizon IS the snapshot — no data is copied, no state is created. *)
let snapshot t =
  sync t;
  Simclock.Clock.tick (clock t) "fs.snapshot";
  now_ts t

let clone s ~src ~dst =
  let t = s.owner_fs in
  if in_transaction s then
    Errors.fail Errors.ETXN "clone runs in its own transaction";
  load_clone_bases t;
  (* The base view is the source's committed state as of now; settle
     pending commits so "committed state" means what the caller sees. *)
  sync t;
  let oid, src_oid, chorizon, base_len =
    translate_locks (fun () ->
        Db.with_txn t.db (fun txn ->
            let snap = Txn.snapshot txn in
            let src_oid =
              match resolve_oid t snap src with
              | Some o -> o
              | None -> Errors.fail Errors.ENOENT "%s" src
            in
            let src_att = att_of t snap src_oid in
            if is_dir src_att then Errors.fail Errors.EISDIR "%s" src;
            let parent, base = resolve_parent t snap dst in
            (match Naming.lookup t.naming snap ~parentid:parent ~name:base with
            | Some _ -> Errors.fail Errors.EEXIST "%s" dst
            | None -> ());
            let chorizon = now_ts t in
            let oid = Db.allocate_oid t.db in
            let device =
              if String.equal src_att.Fileatt.device "" then default_device_name t
              else src_att.Fileatt.device
            in
            let inv =
              Inv_file.create t.db ~oid ~device
                ~compressed:src_att.Fileatt.compressed
            in
            register t (File inv);
            ignore
              (Naming.insert t.naming txn ~parentid:parent ~file:oid ~name:base
                : Naming.entry);
            ignore
              (Fileatt.insert t.fileatt txn
                 {
                   src_att with
                   Fileatt.file = oid;
                   index_segid = Inv_file.index_segid inv;
                   ctime = now_ts t;
                   mtime = now_ts t;
                   atime = now_ts t;
                 }
                : Relstore.Tid.t);
            ignore
              (Index.Indexed.insert (clonemap t) txn ~oid
                 (encode_clone ~src_oid ~horizon:chorizon
                    ~base_len:src_att.Fileatt.size)
                : Relstore.Tid.t);
            (oid, src_oid, chorizon, src_att.Fileatt.size)))
  in
  let lease = Db.acquire_lease t.db ~horizon:chorizon in
  Hashtbl.replace t.clone_bases oid { src_oid; chorizon; base_len; lease };
  oid

(* ---------- vacuum ---------- *)

(* What the vacuum cleans, in relation-name order: every relation this
   file system made (every file table, named or unlinked, the catalogs
   and the clone map).  Archive relations are the destination, not a
   source. *)
let vacuum_targets t =
  List.filter_map
    (fun name -> Option.map (fun owned -> (name, owned)) (Hashtbl.find_opt t.relations name))
    (Db.relations t.db)

(* [`Archive] moves a relation's dead versions to the archive it owns. *)
let vacuum_mode owned = function
  | `Discard -> `Discard
  | `Archive -> `Archive (Index.Indexed.archive (relation_of owned))

let vacuum_target t ~mode (name, owned) =
  translate_locks (fun () ->
      Db.vacuum t.db ~relation:name ~mode:(vacuum_mode owned mode)
        ~on_remove:(on_vacuum owned) ())

let vacuum_file t ~oid ~mode () =
  match file_handle t ~oid with
  | None -> Errors.fail Errors.ENOENT "no file with oid %Ld" oid
  | Some inv -> vacuum_target t ~mode (Inv_file.relname oid, File inv)

let vacuum_all t ~mode () =
  List.fold_left
    (fun (acc : Relstore.Vacuum.stats) target ->
      let st = vacuum_target t ~mode target in
      {
        Relstore.Vacuum.scanned = acc.scanned + st.Relstore.Vacuum.scanned;
        archived = acc.archived + st.archived;
        discarded = acc.discarded + st.discarded;
        pages_compacted = acc.pages_compacted + st.pages_compacted;
      })
    { Relstore.Vacuum.scanned = 0; archived = 0; discarded = 0; pages_compacted = 0 }
    (vacuum_targets t)

(* One budgeted increment of the concurrent vacuum, round-robin over
   [vacuum_targets]: each call steps ONE relation's window; the cursor
   stays on a relation until its pass wraps (or it skipped for a writer),
   then moves on.  Returns the relation stepped and its stats, or [None]
   when there is nothing to vacuum. *)
let vacuum_step t ?pages ~mode () =
  match vacuum_targets t with
  | [] -> None
  | targets ->
    let idx = t.vac_rr mod List.length targets in
    let rel, owned = List.nth targets idx in
    let st =
      translate_locks (fun () ->
          Db.vacuum_step t.db ~relation:rel ~mode:(vacuum_mode owned mode) ?pages
            ~on_remove:(on_vacuum owned) ())
    in
    if st.Relstore.Vacuum.s_wrapped || st.Relstore.Vacuum.s_skipped then
      t.vac_rr <- (idx + 1) mod List.length targets;
    Some (rel, st)

let migrate_file t ~oid ~device =
  match file_handle t ~oid with
  | None -> Errors.fail Errors.ENOENT "no file with oid %Ld" oid
  | Some old_inv ->
    if String.equal (Inv_file.device_name old_inv) device then ()
    else begin
      (* A durability point before the copy: the pool is flushed and
         the pending commit batch forced. *)
      sync t;
      let dst = Inv_file.migrate old_inv ~device in
      register t (File dst);
      Db.with_txn t.db (fun txn ->
          match Fileatt.get t.fileatt (Txn.snapshot txn) ~file:oid with
          | Some att ->
            Fileatt.set t.fileatt txn
              { att with Fileatt.device; index_segid = Inv_file.index_segid dst }
          | None -> ())
    end

(* ---------- convenience ---------- *)

let write_file s path data =
  let run () =
    let fd = open_or_creat s path in
    match
      ignore (p_write s fd data (Bytes.length data) : int);
      ftruncate s fd (Int64.of_int (Bytes.length data))
    with
    | () -> p_close s fd
    | exception e ->
      (* The write failed (typically a lock conflict): drop the buffered
         data — [flush_pending] keeps it across a blocked flush — so
         releasing the fd cannot block on the same lock and mask [e]. *)
      (match Hashtbl.find_opt s.fds fd with
      | Some of_ -> of_.pending <- None
      | None -> ());
      (try p_close s fd with _ -> ());
      raise e
  in
  if in_transaction s then run () else with_transaction s run

let read_whole_file s ?timestamp path =
  let fd = p_open s ?timestamp path Rdonly in
  Fun.protect
    ~finally:(fun () -> p_close s fd)
    (fun () ->
      let buf, n =
        read_fd s (find_fd s fd) (fun att ->
            let size = Int64.to_int att.Fileatt.size in
            (Bytes.create size, size))
      in
      if n = Bytes.length buf then buf else Bytes.sub buf 0 n)
