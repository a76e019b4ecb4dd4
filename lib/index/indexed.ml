module H = Relstore.Heap

type t = { heap : H.t; indexes : Audit.index list }

let create heap indexes = { heap; indexes }
let heap t = t.heap
let indexes t = t.indexes

let file t (r : H.record) =
  let v = Relstore.Tid.encode r.tid in
  List.iter (fun (ix : Audit.index) -> Btree.insert ix.tree ~key:(ix.key_of r) ~value:v) t.indexes

let filed t ~oid ~xmin ~xmax payload tid =
  file t { H.tid; oid; xmin; xmax; payload };
  tid

let insert t txn ~oid payload =
  filed t ~oid ~xmin:(Relstore.Txn.xid txn) ~xmax:Relstore.Xid.invalid payload
    (H.insert t.heap txn ~oid payload)

let update t txn tid ~oid payload =
  filed t ~oid ~xmin:(Relstore.Txn.xid txn) ~xmax:Relstore.Xid.invalid payload
    (H.update t.heap txn tid payload)

let append_raw t ~oid ~xmin ~xmax payload =
  filed t ~oid ~xmin ~xmax payload (H.append_raw t.heap ~oid ~xmin ~xmax payload)

let probe t (ix : Audit.index) snap ~key f =
  List.find_map
    (fun v ->
      match H.fetch t.heap snap (Relstore.Tid.decode v) with
      | Some r when String.equal (ix.key_of r) key -> f r
      | Some _ | None -> None)
    (List.rev (Btree.lookup ix.tree ~key))

let historical = function Relstore.Snapshot.As_of _ -> true | _ -> false

let on_vacuum t (r : H.record) =
  let v = Relstore.Tid.encode r.tid in
  List.iter
    (fun (ix : Audit.index) -> ignore (Btree.delete ix.tree ~key:(ix.key_of r) ~value:v : bool))
    t.indexes

let crash t = List.iter (fun (ix : Audit.index) -> Btree.crash ix.tree) t.indexes

let rebuild t =
  List.iter (fun (ix : Audit.index) -> Btree.reinit ix.tree) t.indexes;
  H.scan_raw t.heap (file t)

let audit t = Audit.run t.heap t.indexes
