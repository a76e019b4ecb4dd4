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

type t = { rel : Index.Indexed.t; by_oid : Index.Audit.index }

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

(* A row's key, tested in place by a historical scan (see
   [Relstore.Heap.scan]): the record oid, which [insert] sets to the
   file. *)
let for_file ~file v = Relstore.Heap_page.oid_is v file

let create db =
  let heap = Relstore.Db.create_relation db ~name:"fileatt" () in
  let by_oid =
    { Index.Audit.name = "by_oid";
      tree = Index.Btree.create ~cache:(Relstore.Db.cache db) ~device:(H.device heap) ~klen:8;
      key_of = (fun r -> Index.Key.of_int64 r.H.oid) }
  in
  { rel = Index.Indexed.create heap ~archive:(Relstore.Db.archive db heap) [ by_oid ]; by_oid }

let heap t = Index.Indexed.heap t.rel
let relation t = t.rel

let insert t txn a = Index.Indexed.insert t.rel txn ~oid:a.file (encode a)

(* A current snapshot sees at most one version of a file's attribute
   row, and every auto-committed write adds a version: the index probe
   finds the live row on the first fetch instead of walking the whole
   version chain.  Historical snapshots scan. *)
let find_record t snap ~file =
  if Index.Indexed.historical snap then begin
    let hit = ref None in
    Index.Indexed.scan ~where:(for_file ~file) t.rel snap (fun r -> hit := Some r);
    !hit
  end
  else Index.Indexed.probe t.rel t.by_oid snap ~key:(Index.Key.of_int64 file) Option.some

let locate t snap ~file =
  Option.map (fun (r : H.record) -> (r.tid, decode r.payload)) (find_record t snap ~file)

let get t snap ~file = Option.map snd (locate t snap ~file)

let update t txn tid a =
  ignore (Index.Indexed.update t.rel txn tid ~oid:a.file (encode a) : Relstore.Tid.t)

let set t txn a =
  match find_record t (Relstore.Txn.snapshot txn) ~file:a.file with
  | None -> raise Not_found
  | Some r -> update t txn r.tid a

let remove t txn tid = H.delete (heap t) txn tid

let iter_all t snap f = Index.Indexed.scan t.rel snap (fun r -> f (decode r.payload))
