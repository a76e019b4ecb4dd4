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
  heap : H.t;
  index : Index.Btree.t;
  compressed : bool;
  mutable write_through : bool;
  mutable memo : memo option;
}

let relname oid = Printf.sprintf "inv%Ld" oid

let create_named db ~oid ~relname ~device ~compressed =
  let heap = Relstore.Db.create_relation db ~name:relname ~device () in
  let index =
    Index.Btree.create ~cache:(Relstore.Db.cache db) ~device:(H.device heap) ~klen:8
  in
  { db; oid; heap; index; compressed; write_through = false; memo = None }

let create db ~oid ~device ~compressed =
  create_named db ~oid ~relname:(relname oid) ~device ~compressed

let attach db ~oid ~index_segid ~compressed =
  let heap = Relstore.Db.find_relation db (relname oid) in
  let index =
    Index.Btree.attach ~cache:(Relstore.Db.cache db) ~device:(H.device heap)
      ~segid:index_segid
  in
  { db; oid; heap; index; compressed; write_through = false; memo = None }

let set_write_through t v = t.write_through <- v
let write_through t = t.write_through

let oid t = t.oid
let heap t = t.heap
let index t = t.index
let index_segid t = Index.Btree.segid t.index
let device_name t = Pagestore.Device.name (H.device t.heap)
let is_compressed t = t.compressed

let decode_chunk payload =
  let c = Chunk.decode payload in
  if c.Chunk.compressed then begin
    let data = Compress.decompress c.Chunk.data in
    if Bytes.length data <> c.Chunk.uncompressed_len then
      invalid_arg "Inv_file: compressed chunk length mismatch";
    data
  end
  else c.Chunk.data

let historical = function Relstore.Snapshot.As_of _ -> true | _ -> false

(* All indexed versions of a chunk, newest (highest TID) first: the
   common case — reading or replacing the current version — then finds it
   on the first probe instead of walking the whole version chain. *)
let versions_newest_first t ~chunkno =
  List.rev (Index.Btree.lookup t.index ~key:(Index.Key.of_int64 chunkno))

(* The visible version of a chunk: try the index first (all non-vacuumed
   versions are indexed); for historical snapshots fall back to scanning
   the heap + archive when vacuuming removed the version we need. *)
let find_visible t snap ~chunkno =
  let via_index =
    let hit = ref None in
    (try
       List.iter
         (fun v ->
           let tid = Relstore.Tid.decode v in
           match H.fetch t.heap snap tid with
           (* Cross-check the record against the key it was found under: a
              stale or rebuilt-from-elsewhere index entry must never make
              us return the wrong chunk.  Only the header is needed for
              that, so peek instead of decoding the whole payload. *)
           | Some r when Int64.equal (Chunk.peek_chunkno r.H.payload) chunkno ->
             hit := Some (tid, r.H.payload);
             raise Exit
           | Some _ | None -> ())
         (versions_newest_first t ~chunkno)
     with Exit -> ());
    !hit
  in
  match via_index with
  | Some _ as hit -> hit
  | None ->
    if historical snap then begin
      let hit = ref None in
      H.scan t.heap snap (fun r ->
          if Int64.equal (Chunk.peek_chunkno r.H.payload) chunkno then
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
      match H.fetch t.heap snap m.m_tid with
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
  (* Stamp the currently visible version dead, if any.  The record must
     re-identify as this chunk before we kill it: after a crash the index
     can hold stale entries whose heap slot was reused by a different
     chunk, and stamping through one would destroy an unrelated write. *)
  (try
     List.iter
       (fun v ->
         let tid = Relstore.Tid.decode v in
         match H.fetch t.heap snap tid with
         | Some r when Int64.equal (Chunk.peek_chunkno r.H.payload) chunkno ->
           H.delete t.heap txn tid;
           raise Exit
         | Some _ | None -> ())
       (versions_newest_first t ~chunkno)
   with Exit -> ());
  let payload = Chunk.encode (encode_for_storage t ~chunkno data) in
  let tid = H.insert t.heap txn ~oid:t.oid payload in
  Index.Btree.insert_logged t.index txn ~key:(Index.Key.of_int64 chunkno)
    ~value:(Relstore.Tid.encode tid);
  t.memo <-
    Some { m_chunkno = chunkno; m_tid = tid; m_payload = payload; m_data = Bytes.copy data };
  (* POSTGRES interleaved B-tree page writes with data file writes --
     the head movement Figure 3 blames for Inversion's slower creates.
     Benchmarks can ablate this with [set_write_through]. *)
  if t.write_through then
    Pagestore.Bufcache.flush_segment (Relstore.Db.cache t.db) (H.device t.heap)
      ~segid:(Index.Btree.segid t.index)

let delete_chunks_from t txn ~chunkno =
  t.memo <- None;
  let snap = Relstore.Txn.snapshot txn in
  let doomed = ref [] in
  Index.Btree.scan_range t.index ~lo:(Index.Key.of_int64 chunkno)
    ~hi:(Index.Key.max_key ~width:8)
    (fun _ v ->
      let tid = Relstore.Tid.decode v in
      (* doom by the record's own chunk number, not the index key it was
         found under: stale post-crash entries must not widen the kill *)
      match H.fetch t.heap snap tid with
      | Some r when Int64.compare (Chunk.peek_chunkno r.H.payload) chunkno >= 0 ->
        doomed := tid :: !doomed
      | Some _ | None -> ());
  List.iter
    (fun tid -> H.delete t.heap txn tid)
    (List.sort_uniq compare !doomed)

let iter_chunks t snap f =
  H.scan t.heap snap (fun r ->
      let c = Chunk.decode r.H.payload in
      f c.Chunk.chunkno (decode_chunk r.H.payload))

let copy_all_versions_to src dst =
  H.scan_raw src.heap (fun r ->
      let chunkno = Chunk.peek_chunkno r.H.payload in
      let tid = H.append_raw dst.heap ~oid:r.H.oid ~xmin:r.H.xmin ~xmax:r.H.xmax r.H.payload in
      Index.Btree.insert dst.index ~key:(Index.Key.of_int64 chunkno)
        ~value:(Relstore.Tid.encode tid))

let index_maintenance_on_vacuum t (r : H.record) =
  t.memo <- None;
  ignore
    (Index.Btree.delete t.index
       ~key:(Index.Key.of_int64 (Chunk.peek_chunkno r.H.payload))
       ~value:(Relstore.Tid.encode r.H.tid)
      : bool)

let crash_reset t =
  t.memo <- None;
  Index.Btree.crash t.index

let hint_sequential t = H.hint_sequential t.heap

(* The chunk index is update-in-place (unlike the heap), so a crash while
   its pages were half-flushed can leave it structurally damaged or
   missing entries for committed records.  [audit] detects both;
   [rebuild_index] reconstructs the index from the heap, the sole source
   of truth.  A heap with nothing committed makes the index irrelevant:
   a file created by a transaction that never committed before a crash
   has an all-zero index segment (debris, eventually vacuumed), which is
   not an inconsistency. *)
let audit_indexes t =
  [ { Index.Audit.name = "chunks"; tree = t.index;
      key_of = (fun r -> Index.Key.of_int64 (Chunk.peek_chunkno r.H.payload)) } ]

let audit t = Index.Audit.run t.heap (audit_indexes t)

let rebuild_index t =
  Index.Btree.reinit t.index;
  H.scan_raw t.heap (fun r ->
      Index.Btree.insert t.index
        ~key:(Index.Key.of_int64 (Chunk.peek_chunkno r.H.payload))
        ~value:(Relstore.Tid.encode r.H.tid))

let drop t =
  let cache = Relstore.Db.cache t.db in
  let dev = H.device t.heap in
  Pagestore.Bufcache.invalidate_segment cache dev ~segid:(Index.Btree.segid t.index);
  Pagestore.Device.drop_segment dev (Index.Btree.segid t.index);
  Relstore.Db.drop_relation t.db (relname t.oid)

let stored_bytes t snap =
  let total = ref 0 in
  H.scan t.heap snap (fun r ->
      let c = Chunk.decode r.H.payload in
      total := !total + Bytes.length c.Chunk.data);
  !total
