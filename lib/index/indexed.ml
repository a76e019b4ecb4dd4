module H = Relstore.Heap

type t = { heap : H.t; archive : H.t Lazy.t; indexes : Audit.index list }

let create heap ~archive indexes = { heap; archive; indexes }
let heap t = t.heap
let archive t = t.archive
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

let scan ?where t snap f =
  if historical snap && Lazy.is_val t.archive then begin
    (* Historical read-through: archived versions join the scan.  A crash
       between the vacuum's archive-copy commit and its main-heap kill
       legitimately leaves the same version in both heaps (and a re-run
       can even archive it twice), so duplicates are collapsed on the
       version's identity — stamps plus payload.  Only records that pass
       the key test are copied out, so only those are remembered. *)
    let seen = Hashtbl.create 16 in
    let emit (r : H.record) =
      let key = (r.oid, r.xmin, r.xmax, Bytes.to_string r.payload) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        f r
      end
    in
    H.scan ?where t.heap snap emit;
    H.scan ?where (Lazy.force t.archive) snap emit
  end
  else H.scan ?where t.heap snap f

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
