type t = {
  cache : Pagestore.Bufcache.t;
  device : Pagestore.Device.t;
  log : Status_log.t;
  mutable name : string;
  relid : int64;
  segid : int;
  mutable insert_hint : int; (* block most likely to have room *)
  mutable archive : t option;
  mutable append_only : bool; (* WORM archive tier: appends only, EROFS-like *)
}

exception Append_only of string

type record = {
  tid : Tid.t;
  oid : int64;
  xmin : Xid.t;
  xmax : Xid.t;
  payload : bytes;
}

let create ~cache ~device ~log ~name ~relid =
  let segid = Pagestore.Device.create_segment device in
  { cache; device; log; name; relid; segid; insert_hint = -1; archive = None;
    append_only = false }

let name t = t.name
let rename t new_name = t.name <- new_name
let relid t = t.relid
let device t = t.device
let segid t = t.segid
let nblocks t = Pagestore.Device.nblocks t.device t.segid
let status_log t = t.log
let resource t = "rel:" ^ t.name

(* The cache treats an append-only (archive) segment as probationary
   forever: history faulting through the pool must never evict the hot
   working set.  The flag on the cache is volatile; [arm_cache_policy] is
   re-run by recovery. *)
let arm_cache_policy t =
  if t.append_only then
    Pagestore.Bufcache.set_cold_only t.cache t.device ~segid:t.segid

let set_archive t a =
  a.append_only <- true;
  arm_cache_policy a;
  t.archive <- Some a

let archive t = t.archive

let reject_if_append_only t op =
  if t.append_only then
    raise (Append_only (Printf.sprintf "%s: %s is a WORM archive tier" op t.name))

let read_lock t txn = Txn.lock txn ~resource:(resource t) Lock_mgr.Shared
let write_lock t txn = Txn.lock txn ~resource:(resource t) Lock_mgr.Exclusive

let with_page t blkno f =
  Pagestore.Bufcache.with_page t.cache t.device ~segid:t.segid ~blkno f

let dirty t blkno = Pagestore.Bufcache.mark_dirty t.cache t.device ~segid:t.segid ~blkno

let record_of_page_record blkno (r : Heap_page.record) =
  {
    tid = Tid.make ~blkno ~slot:r.slot;
    oid = r.oid;
    xmin = r.xmin;
    xmax = r.xmax;
    payload = r.payload;
  }

let fresh_block t =
  let blkno = Pagestore.Bufcache.new_block t.cache t.device ~segid:t.segid in
  with_page t blkno (fun page ->
      Heap_page.init page ~relid:t.relid ~blkno;
      Heap_page.seal page);
  dirty t blkno;
  blkno

let try_insert_on t blkno ~oid ~xmin payload =
  with_page t blkno (fun page ->
      if not (Heap_page.is_initialized page) then Heap_page.init page ~relid:t.relid ~blkno;
      match Heap_page.insert page ~oid ~xmin ~payload with
      | Some slot ->
        Heap_page.seal page;
        dirty t blkno;
        Some (Tid.make ~blkno ~slot)
      | None -> None)

let insert_payload t ~oid ~xmin payload =
  let from_hint =
    if t.insert_hint >= 0 && t.insert_hint < nblocks t then
      try_insert_on t t.insert_hint ~oid ~xmin payload
    else None
  in
  match from_hint with
  | Some tid -> tid
  | None ->
    let blkno = fresh_block t in
    t.insert_hint <- blkno;
    (match try_insert_on t blkno ~oid ~xmin payload with
    | Some tid -> tid
    | None -> invalid_arg "Heap.insert: payload exceeds page capacity")

let clock t = Pagestore.Device.clock t.device

let m_insert = Obs.Metrics.counter "heap.inserts"
let m_update = Obs.Metrics.counter "heap.updates"
let m_delete = Obs.Metrics.counter "heap.deletes"
let m_scan = Obs.Metrics.counter "heap.scans"

let insert t txn ~oid payload =
  reject_if_append_only t "Heap.insert";
  write_lock t txn;
  Cpu_model.charge_record_write (clock t) ~bytes:(Bytes.length payload);
  Obs.Metrics.incr m_insert;
  if Obs.on Obs.Heap then
    Obs.event Obs.Heap "heap.insert"
      ~args:
        [ ("rel", Obs.S t.name); ("oid", Obs.I (Int64.to_int oid));
          ("bytes", Obs.I (Bytes.length payload));
        ]
      ();
  insert_payload t ~oid ~xmin:(Txn.xid txn) payload

let append_raw t ~oid ~xmin ~xmax payload =
  let tid = insert_payload t ~oid ~xmin payload in
  if Xid.is_valid xmax then begin
    with_page t tid.Tid.blkno (fun page ->
        Heap_page.set_xmax page ~slot:tid.Tid.slot xmax;
        Heap_page.seal page);
    dirty t tid.Tid.blkno
  end;
  tid

let fetch_any t (tid : Tid.t) =
  if tid.blkno < 0 || tid.blkno >= nblocks t then None
  else
    with_page t tid.blkno (fun page ->
        match Heap_page.read_record page ~slot:tid.slot with
        | Some r -> Some (record_of_page_record tid.blkno r)
        | None -> None)

let fetch t snap tid =
  match fetch_any t tid with
  | Some r when Snapshot.visible t.log snap ~xmin:r.xmin ~xmax:r.xmax ->
    Cpu_model.charge_record_read (clock t) ~bytes:(Bytes.length r.payload);
    Some r
  | Some _ | None -> None

(* Stamp an already-fetched record dead.  Locking and write charging are
   the caller's business — [delete] re-fetches for nobody this way, and
   [update] stamps the record it already holds instead of fetching it a
   second time through [delete]. *)
let delete_stamped t txn (tid : Tid.t) r =
  reject_if_append_only t "Heap.delete";
  if Xid.is_valid r.xmax && (r.xmax = Txn.xid txn || Status_log.is_committed t.log r.xmax)
  then invalid_arg "Heap.delete: record already deleted";
  with_page t tid.blkno (fun page ->
      Heap_page.set_xmax page ~slot:tid.slot (Txn.xid txn);
      Heap_page.seal page);
  dirty t tid.blkno

let delete t txn (tid : Tid.t) =
  reject_if_append_only t "Heap.delete";
  write_lock t txn;
  Cpu_model.charge_record_write (clock t) ~bytes:0;
  match fetch_any t tid with
  | None -> raise Not_found
  | Some r ->
    Obs.Metrics.incr m_delete;
    if Obs.on Obs.Heap then
      Obs.event Obs.Heap "heap.delete"
        ~args:[ ("rel", Obs.S t.name); ("oid", Obs.I (Int64.to_int r.oid)) ]
        ();
    delete_stamped t txn tid r

let update t txn tid payload =
  reject_if_append_only t "Heap.update";
  write_lock t txn;
  match fetch_any t tid with
  | None -> raise Not_found
  | Some old ->
    Cpu_model.charge_record_write (clock t) ~bytes:0;
    Obs.Metrics.incr m_update;
    if Obs.on Obs.Heap then
      Obs.event Obs.Heap "heap.update"
        ~args:[ ("rel", Obs.S t.name); ("oid", Obs.I (Int64.to_int old.oid)) ]
        ();
    delete_stamped t txn tid old;
    insert t txn ~oid:old.oid payload

let hint_sequential t =
  Pagestore.Bufcache.hint_sequential t.cache t.device ~segid:t.segid

let scan_raw t f =
  Obs.Metrics.incr m_scan;
  (* The span wraps the whole pass so device reads issued for the scan's
     pages nest inside it in the trace tree. *)
  Obs.span Obs.Heap "heap.scan"
    ~args:[ ("rel", Obs.S t.name); ("blocks", Obs.I (nblocks t)) ]
    (fun () ->
      hint_sequential t;
      for blkno = 0 to nblocks t - 1 do
        (* Collect under the pin, apply after releasing it, so [f] may itself
           touch the cache (e.g. follow the record into another relation). *)
        let records = ref [] in
        with_page t blkno (fun page ->
            Heap_page.iter page (fun r ->
                records := record_of_page_record blkno r :: !records));
        List.iter f (List.rev !records)
      done)

let scan_block t blkno f =
  if blkno >= 0 && blkno < nblocks t then begin
    let records = ref [] in
    with_page t blkno (fun page ->
        Heap_page.iter page (fun r ->
            records := record_of_page_record blkno r :: !records));
    List.iter f (List.rev !records)
  end

let scan t snap f =
  match (snap, t.archive) with
  | Snapshot.As_of _, Some arch ->
    (* Historical read-through: archived versions join the scan.  A crash
       between the vacuum's archive-copy commit and its main-heap kill
       legitimately leaves the same version in both heaps (and a re-run
       can even archive it twice), so duplicates are collapsed on the
       version's identity — stamps plus payload. *)
    let seen = Hashtbl.create 64 in
    let emit r =
      if Snapshot.visible t.log snap ~xmin:r.xmin ~xmax:r.xmax then begin
        let key = (r.oid, r.xmin, r.xmax, Bytes.to_string r.payload) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          f r
        end
      end
    in
    scan_raw t emit;
    scan_raw arch emit
  | _ ->
    scan_raw t (fun r ->
        if Snapshot.visible t.log snap ~xmin:r.xmin ~xmax:r.xmax then f r)

let kill_tid t (tid : Tid.t) =
  reject_if_append_only t "Heap.kill_tid";
  with_page t tid.blkno (fun page ->
      Heap_page.kill_slot page ~slot:tid.slot;
      Heap_page.seal page);
  dirty t tid.blkno

let compact_block t blkno =
  reject_if_append_only t "Heap.compact_block";
  with_page t blkno (fun page ->
      Heap_page.compact page;
      Heap_page.seal page);
  dirty t blkno

let verify ?on_record t =
  let result = ref (Ok ()) in
  for blkno = 0 to nblocks t - 1 do
    (* As in [scan_raw]: collect under the pin, apply after releasing it. *)
    let records = ref [] in
    with_page t blkno (fun page ->
        let page_ok =
          match Heap_page.verify page ~expect_relid:t.relid ~expect_blkno:blkno with
          | Ok () -> true
          | Error msg ->
            if Result.is_ok !result then
              result := Error (Printf.sprintf "%s block %d: %s" t.name blkno msg);
            false
        in
        if Option.is_some on_record then
          try
            Heap_page.iter page (fun r -> records := record_of_page_record blkno r :: !records)
          with Invalid_argument _ when not page_ok -> records := []);
    Option.iter (fun f -> List.iter f (List.rev !records)) on_record
  done;
  !result
