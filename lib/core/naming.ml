module H = Relstore.Heap

type t = {
  heap : H.t;
  by_dir : Index.Btree.t; (* (parentid, crc32 name) -> tid *)
  by_oid : Index.Btree.t; (* file oid -> tid *)
}

type entry = {
  name : string;
  parentid : int64;
  file : int64;
  tid : Relstore.Tid.t;
}

let root_parent = 0L

let encode ~parentid ~file ~name =
  let b = Bytes.create (16 + String.length name) in
  Bytes.set_int64_le b 0 parentid;
  Bytes.set_int64_le b 8 file;
  Bytes.blit_string name 0 b 16 (String.length name);
  b

let decode tid payload =
  if Bytes.length payload < 16 then invalid_arg "Naming: malformed record";
  {
    parentid = Bytes.get_int64_le payload 0;
    file = Bytes.get_int64_le payload 8;
    name = Bytes.sub_string payload 16 (Bytes.length payload - 16);
    tid;
  }

let create db ?device () =
  let heap = Relstore.Db.create_relation db ~name:"naming" ?device () in
  let cache = Relstore.Db.cache db in
  let dev = H.device heap in
  {
    heap;
    by_dir = Index.Btree.create ~cache ~device:dev ~klen:12;
    by_oid = Index.Btree.create ~cache ~device:dev ~klen:8;
  }

let heap t = t.heap

let indexes t = [ t.by_dir; t.by_oid ]

let insert t txn ~parentid ~file ~name =
  let payload = encode ~parentid ~file ~name in
  let tid = H.insert t.heap txn ~oid:file payload in
  Index.Btree.insert t.by_dir ~key:(Index.Key.dir_name ~parentid ~name)
    ~value:(Relstore.Tid.encode tid);
  Index.Btree.insert t.by_oid ~key:(Index.Key.of_int64 file)
    ~value:(Relstore.Tid.encode tid);
  { name; parentid; file; tid }

let remove t txn entry = H.delete t.heap txn entry.tid

let fetch_entry t snap tid =
  match H.fetch t.heap snap tid with
  | Some r -> Some (decode r.tid r.payload)
  | None -> None

let historical = function Relstore.Snapshot.As_of _ -> true | _ -> false

(* Historical snapshots scan (including the archive, via Heap.scan) so
   vacuumed entries stay reachable; current snapshots use the indexes. *)
let scan_filter t snap pred =
  let acc = ref [] in
  H.scan t.heap snap (fun r ->
      let e = decode r.tid r.payload in
      if pred e then acc := e :: !acc);
  List.rev !acc

(* The visible entry under [key] of [tree] satisfying [pred].  A
   current snapshot sees at most one version per name and per file, so
   the indexed versions are probed newest (highest TID) first: the live
   one is nearly always the latest. *)
let find_indexed t snap tree ~key pred =
  List.find_map
    (fun v ->
      match fetch_entry t snap (Relstore.Tid.decode v) with
      | Some e when pred e -> Some e
      | Some _ | None -> None)
    (List.rev (Index.Btree.lookup tree ~key))

let lookup t snap ~parentid ~name =
  let is_it e = e.parentid = parentid && String.equal e.name name in
  if historical snap then
    match scan_filter t snap is_it with e :: _ -> Some e | [] -> None
  else find_indexed t snap t.by_dir ~key:(Index.Key.dir_name ~parentid ~name) is_it

let list_dir t snap ~parentid =
  let entries =
    if historical snap then scan_filter t snap (fun e -> e.parentid = parentid)
    else begin
      let acc = ref [] in
      Index.Btree.scan_range t.by_dir
        ~lo:(Index.Key.dir_prefix_lo ~parentid)
        ~hi:(Index.Key.dir_prefix_hi ~parentid)
        (fun _ v ->
          match fetch_entry t snap (Relstore.Tid.decode v) with
          | Some e when e.parentid = parentid -> acc := e :: !acc
          | Some _ | None -> ());
      !acc
    end
  in
  List.sort (fun a b -> String.compare a.name b.name) entries

let by_oid t snap ~file =
  let is_it e = e.file = file in
  if historical snap then
    match scan_filter t snap is_it with e :: _ -> Some e | [] -> None
  else find_indexed t snap t.by_oid ~key:(Index.Key.of_int64 file) is_it

let iter_all t snap f = H.scan t.heap snap (fun r -> f (decode r.tid r.payload))

let crash_reset t =
  Index.Btree.crash t.by_dir;
  Index.Btree.crash t.by_oid

let audit_indexes t =
  let entry (r : H.record) = decode r.tid r.payload in
  [
    { Index.Audit.name = "by_dir"; tree = t.by_dir;
      key_of = (fun r ->
        let e = entry r in
        Index.Key.dir_name ~parentid:e.parentid ~name:e.name) };
    { name = "by_oid"; tree = t.by_oid; key_of = (fun r -> Index.Key.of_int64 (entry r).file) };
  ]

let audit t = Index.Audit.run t.heap (audit_indexes t)

let rebuild_indexes t =
  Index.Btree.reinit t.by_dir;
  Index.Btree.reinit t.by_oid;
  H.scan_raw t.heap (fun r ->
      let e = decode r.tid r.payload in
      let v = Relstore.Tid.encode r.tid in
      Index.Btree.insert t.by_dir
        ~key:(Index.Key.dir_name ~parentid:e.parentid ~name:e.name)
        ~value:v;
      Index.Btree.insert t.by_oid ~key:(Index.Key.of_int64 e.file) ~value:v)

let index_maintenance_on_vacuum t (r : H.record) =
  let e = decode r.tid r.payload in
  let v = Relstore.Tid.encode r.tid in
  ignore
    (Index.Btree.delete t.by_dir
       ~key:(Index.Key.dir_name ~parentid:e.parentid ~name:e.name)
       ~value:v
      : bool);
  ignore (Index.Btree.delete t.by_oid ~key:(Index.Key.of_int64 e.file) ~value:v : bool)
