module H = Relstore.Heap

(* Last-chunk memo: sequential readers and the read-modify-write in
   [Fs.write_at] touch the same chunk repeatedly; remembering where its
   visible version lives skips the B-tree probe and the payload
   decode/decompress.  The memo is validated before use — a fetch of the
   remembered TID must be visible under the caller's snapshot and carry
   the remembered bytes — so vacuum slot reuse and snapshot changes can
   never serve stale data. *)
type memo = {
  m_chunkno : int64;
  m_tid : Relstore.Tid.t;
  m_payload : bytes;
  m_data : bytes; (* decoded (decompressed) chunk data *)
}

type t = {
  db : Relstore.Db.t;
  oid : int64;
  rel : Index.Indexed.t;
  chunks : Index.Audit.index; (* chunk number -> tid, every version *)
  compressed : bool;
  mutable memo : memo option;
}

let relname oid = "inv" ^ Int64.to_string oid

let make db ~oid heap ~archive ~compressed =
  let chunks =
    { Index.Audit.name = "chunks";
      tree = Index.Btree.create ~cache:(Relstore.Db.cache db) ~device:(H.device heap) ~klen:8;
      key_of = (fun r -> Index.Key.of_int64 (Chunk.peek_chunkno r.H.payload)) }
  in
  { db; oid; rel = Index.Indexed.create heap ~archive [ chunks ]; chunks; compressed;
    memo = None }

let create db ~oid ~device ~compressed =
  let heap = Relstore.Db.create_relation db ~name:(relname oid) ~device () in
  make db ~oid heap ~archive:(Relstore.Db.archive db heap) ~compressed

let oid t = t.oid
let heap t = Index.Indexed.heap t.rel
let relation t = t.rel
let index t = t.chunks.tree
let index_segid t = Index.Btree.segid (index t)
let device_name t = Pagestore.Device.name (H.device (heap t))

let decode_chunk payload =
  let c = Chunk.decode payload in
  if c.Chunk.compressed then begin
    let data = Compress.decompress c.Chunk.data in
    if Bytes.length data <> c.Chunk.uncompressed_len then
      invalid_arg "Inv_file: compressed chunk length mismatch";
    data
  end
  else c.Chunk.data

(* The visible version of a chunk, as its TID and payload: try the index
   first (all non-vacuumed versions are indexed); for historical snapshots
   fall back to scanning the heap + archive when vacuuming removed the
   version we need. *)
let find_visible t snap ~chunkno =
  match
    Index.Indexed.probe t.rel t.chunks snap ~key:(Index.Key.of_int64 chunkno) (fun r ->
        Some (r.H.tid, r.H.payload))
  with
  | Some _ as hit -> hit
  | None ->
    if Index.Indexed.historical snap then begin
      let hit = ref None in
      Index.Indexed.scan ~where:(Chunk.holds ~chunkno) t.rel snap (fun r ->
          hit := Some (r.H.tid, r.H.payload));
      !hit
    end
    else None

(* Memo fast path: still fetches the record (visibility check + normal
   record-read charge), but skips the B-tree probe and — when the bytes
   match — the decode/decompress. *)
let read_chunk t snap ~chunkno =
  let via_memo =
    match t.memo with
    | Some m when Int64.equal m.m_chunkno chunkno -> (
      match H.fetch (heap t) snap m.m_tid with
      | Some r when Bytes.equal r.H.payload m.m_payload -> Some (Bytes.copy m.m_data)
      | Some _ | None -> None)
    | _ -> None
  in
  match via_memo with
  | Some _ as hit -> hit
  | None -> (
    match find_visible t snap ~chunkno with
    | None -> None
    | Some (tid, payload) ->
      let data = decode_chunk payload in
      t.memo <-
        Some { m_chunkno = chunkno; m_tid = tid; m_payload = payload; m_data = data };
      Some (Bytes.copy data))

let encode_for_storage t ~chunkno data =
  let plain = Chunk.make_plain ~chunkno data in
  if not t.compressed then plain
  else begin
    let packed = Compress.compress data in
    if Bytes.length packed < Bytes.length data then
      Chunk.make_compressed ~chunkno ~uncompressed_len:(Bytes.length data) packed
    else plain
  end

let write_chunk t txn ~chunkno data =
  if Bytes.length data > Chunk.capacity then
    invalid_arg "Inv_file.write_chunk: data exceeds chunk capacity";
  let snap = Relstore.Txn.snapshot txn in
  (* Stamp the currently visible version dead, if any.  The probe
     re-identifies the record as this chunk before we kill it: after a
     crash the index can hold stale entries whose heap slot was reused by
     a different chunk, and stamping through one would destroy an
     unrelated write. *)
  Option.iter (H.delete (heap t) txn)
    (Index.Indexed.probe t.rel t.chunks snap ~key:(Index.Key.of_int64 chunkno) (fun r ->
         Some r.H.tid));
  let payload = Chunk.encode (encode_for_storage t ~chunkno data) in
  let tid = Index.Indexed.insert t.rel txn ~oid:t.oid payload in
  t.memo <-
    Some { m_chunkno = chunkno; m_tid = tid; m_payload = payload; m_data = Bytes.copy data }

let delete_chunks_from t txn ~chunkno =
  t.memo <- None;
  let snap = Relstore.Txn.snapshot txn in
  let doomed = ref [] in
  Index.Btree.scan_range (index t) ~lo:(Index.Key.of_int64 chunkno)
    ~hi:(Index.Key.max_key ~width:8)
    (fun _ v ->
      let tid = Relstore.Tid.decode v in
      (* doom by the record's own chunk number, not the index key it was
         found under: stale post-crash entries must not widen the kill *)
      match H.fetch (heap t) snap tid with
      | Some r when Int64.compare (Chunk.peek_chunkno r.H.payload) chunkno >= 0 ->
        doomed := tid :: !doomed
      | Some _ | None -> ());
  List.iter
    (fun tid -> H.delete (heap t) txn tid)
    (List.sort_uniq compare !doomed)

let iter_chunks t snap f =
  Index.Indexed.scan t.rel snap (fun r ->
      let c = Chunk.decode r.H.payload in
      f c.Chunk.chunkno (decode_chunk r.H.payload))

(* The chunk memo caches a version the vacuum may remove or a crash may
   lose, so both drop it along with the index state. *)
let on_vacuum t r =
  t.memo <- None;
  Index.Indexed.on_vacuum t.rel r

let crash t =
  t.memo <- None;
  Index.Indexed.crash t.rel

let hint_sequential t = H.hint_sequential (heap t)

(* The copy is built under a temporary name and renamed into place once
   the old relation is dropped. *)
let migrate t ~device =
  let tmp = relname t.oid ^ ".migrating" in
  let copy = Relstore.Db.create_relation t.db ~name:tmp ~device () in
  let dst =
    make t.db ~oid:t.oid copy ~archive:(Index.Indexed.archive t.rel) ~compressed:t.compressed
  in
  H.scan_raw (heap t) (fun r ->
      ignore
        (Index.Indexed.append_raw dst.rel ~oid:r.H.oid ~xmin:r.H.xmin ~xmax:r.H.xmax
           r.H.payload
          : Relstore.Tid.t));
  let cache = Relstore.Db.cache t.db in
  let dev = H.device (heap t) in
  Pagestore.Bufcache.invalidate_segment cache dev ~segid:(index_segid t);
  Pagestore.Device.drop_segment dev (index_segid t);
  Relstore.Db.drop_relation t.db (relname t.oid);
  Relstore.Db.rename_relation t.db ~old_name:tmp ~new_name:(relname t.oid);
  dst

let stored_bytes t snap =
  let total = ref 0 in
  Index.Indexed.scan t.rel snap (fun r ->
      let c = Chunk.decode r.H.payload in
      total := !total + Bytes.length c.Chunk.data);
  !total
