module H = Relstore.Heap

type att = {
  file : int64;
  size : int64;
  owner : string;
  ftype : string;
  device : string;
  index_segid : int;
  compressed : bool;
  ctime : int64;
  mtime : int64;
  atime : int64;
}

type t = {
  heap : H.t;
  by_oid : Index.Btree.t;
}

let put_str buf s =
  let b = Bytes.create (2 + String.length s) in
  Bytes.set_uint16_le b 0 (String.length s);
  Bytes.blit_string s 0 b 2 (String.length s);
  Buffer.add_bytes buf b

let encode a =
  let buf = Buffer.create 96 in
  let fixed = Bytes.create 46 in
  Bytes.set_int64_le fixed 0 a.file;
  Bytes.set_int64_le fixed 8 a.size;
  Bytes.set_int64_le fixed 16 a.ctime;
  Bytes.set_int64_le fixed 24 a.mtime;
  Bytes.set_int64_le fixed 32 a.atime;
  Bytes.set_int32_le fixed 40 (Int32.of_int a.index_segid);
  Bytes.set_uint16_le fixed 44 (if a.compressed then 1 else 0);
  Buffer.add_bytes buf fixed;
  put_str buf a.owner;
  put_str buf a.ftype;
  put_str buf a.device;
  Buffer.to_bytes buf

let decode payload =
  let get_str off =
    let len = Bytes.get_uint16_le payload off in
    (Bytes.sub_string payload (off + 2) len, off + 2 + len)
  in
  let owner, off = get_str 46 in
  let ftype, off = get_str off in
  let device, _ = get_str off in
  {
    file = Bytes.get_int64_le payload 0;
    size = Bytes.get_int64_le payload 8;
    ctime = Bytes.get_int64_le payload 16;
    mtime = Bytes.get_int64_le payload 24;
    atime = Bytes.get_int64_le payload 32;
    index_segid = Int32.to_int (Bytes.get_int32_le payload 40);
    compressed = Bytes.get_uint16_le payload 44 = 1;
    owner;
    ftype;
    device;
  }

let create db ?device () =
  let heap = Relstore.Db.create_relation db ~name:"fileatt" ?device () in
  let cache = Relstore.Db.cache db in
  { heap; by_oid = Index.Btree.create ~cache ~device:(H.device heap) ~klen:8 }

let heap t = t.heap

let indexes t = [ t.by_oid ]

let insert t txn a =
  let tid = H.insert t.heap txn ~oid:a.file (encode a) in
  Index.Btree.insert t.by_oid ~key:(Index.Key.of_int64 a.file)
    ~value:(Relstore.Tid.encode tid);
  tid

let historical = function Relstore.Snapshot.As_of _ -> true | _ -> false

(* A current snapshot sees at most one version of a file's attribute
   row, and every auto-committed write adds a version: probe the indexed
   versions newest (highest TID) first, as [Inv_file] does for chunks,
   so the lookup finds the live row on the first fetch instead of
   walking the whole version chain. *)
let find_record t snap ~file =
  if historical snap then begin
    let hit = ref None in
    H.scan t.heap snap (fun r -> if r.oid = file then hit := Some r);
    !hit
  end
  else
    List.find_map
      (fun v ->
        match H.fetch t.heap snap (Relstore.Tid.decode v) with
        | Some r when r.oid = file -> Some r
        | Some _ | None -> None)
      (List.rev (Index.Btree.lookup t.by_oid ~key:(Index.Key.of_int64 file)))

let locate t snap ~file =
  Option.map (fun (r : H.record) -> (r.tid, decode r.payload)) (find_record t snap ~file)

let get t snap ~file = Option.map snd (locate t snap ~file)

let update t txn tid a =
  let tid = H.update t.heap txn tid (encode a) in
  Index.Btree.insert t.by_oid ~key:(Index.Key.of_int64 a.file)
    ~value:(Relstore.Tid.encode tid)

let set t txn a =
  match find_record t (Relstore.Txn.snapshot txn) ~file:a.file with
  | None -> raise Not_found
  | Some r -> update t txn r.tid a

let remove t txn tid = H.delete t.heap txn tid

let find_any t ~file =
  let hit = ref None in
  H.scan_raw t.heap (fun r -> if Int64.equal r.H.oid file then hit := Some (decode r.H.payload));
  !hit

let iter_all t snap f = H.scan t.heap snap (fun r -> f (decode r.payload))

let crash_reset t = Index.Btree.crash t.by_oid

let audit_indexes t =
  [ { Index.Audit.name = "by_oid"; tree = t.by_oid;
      key_of = (fun r -> Index.Key.of_int64 r.H.oid) } ]

let audit t = Index.Audit.run t.heap (audit_indexes t)

let rebuild_indexes t =
  Index.Btree.reinit t.by_oid;
  H.scan_raw t.heap (fun r ->
      Index.Btree.insert t.by_oid ~key:(Index.Key.of_int64 r.oid)
        ~value:(Relstore.Tid.encode r.tid))

let index_maintenance_on_vacuum t (r : H.record) =
  let a = decode r.payload in
  ignore
    (Index.Btree.delete t.by_oid ~key:(Index.Key.of_int64 a.file)
       ~value:(Relstore.Tid.encode r.tid)
      : bool)
