module H = Relstore.Heap
module Indexed = Index.Indexed

type t = {
  rel : Indexed.t;
  by_dir : Index.Audit.index; (* (parentid, crc32 name) -> tid *)
  by_oid : Index.Audit.index; (* file oid -> tid *)
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

let entry (r : H.record) = decode r.tid r.payload

(* The same layout, tested in place by a historical scan's key test
   (see [H.scan]): parentid at payload offset 0, file at 8, the name from
   16 on. *)
module View = Relstore.Heap_page

let in_dir ~parentid v = View.payload_i64_is v ~at:0 parentid
let named ~parentid ~name v = in_dir ~parentid v && View.payload_ends_with v ~at:16 name
let names_file ~file v = View.payload_i64_is v ~at:8 file

let create db =
  let heap = Relstore.Db.create_relation db ~name:"naming" () in
  let tree klen =
    Index.Btree.create ~cache:(Relstore.Db.cache db) ~device:(H.device heap) ~klen
  in
  (* [by_oid]'s segment is allocated before [by_dir]'s: the device
     layout, and with it every simulated seek, follows from this order. *)
  let by_oid =
    { Index.Audit.name = "by_oid"; tree = tree 8;
      key_of = (fun r -> Index.Key.of_int64 (entry r).file) }
  in
  let by_dir =
    { Index.Audit.name = "by_dir"; tree = tree 12;
      key_of = (fun r ->
        let e = entry r in
        Index.Key.dir_name ~parentid:e.parentid ~name:e.name) }
  in
  { rel = Indexed.create heap ~archive:(Relstore.Db.archive db heap) [ by_dir; by_oid ];
    by_dir; by_oid }

let heap t = Indexed.heap t.rel
let relation t = t.rel
let indexes t = [ t.by_dir.tree; t.by_oid.tree ]

let insert t txn ~parentid ~file ~name =
  let tid = Indexed.insert t.rel txn ~oid:file (encode ~parentid ~file ~name) in
  { name; parentid; file; tid }

let remove t txn entry = H.delete (heap t) txn entry.tid

let fetch_entry t snap tid =
  match H.fetch (heap t) snap tid with
  | Some r -> Some (entry r)
  | None -> None

(* Historical snapshots scan (the archive included) so vacuumed entries
   stay reachable, copying out only the records [where] passes; current
   snapshots probe the indexes.  [where] and [pred] are one test, on the
   record in place and on its decoded entry. *)
let find t snap (ix : Index.Audit.index) ~key ~where pred =
  if Indexed.historical snap then begin
    let hit = ref None in
    Indexed.scan ~where t.rel snap (fun r -> if !hit = None then hit := Some (entry r));
    !hit
  end
  else
    Indexed.probe t.rel ix snap ~key (fun r ->
        let e = entry r in
        if pred e then Some e else None)

let lookup t snap ~parentid ~name =
  find t snap t.by_dir ~key:(Index.Key.dir_name ~parentid ~name) ~where:(named ~parentid ~name)
    (fun e -> e.parentid = parentid && String.equal e.name name)

let list_dir t snap ~parentid =
  let acc = ref [] in
  let add e = if e.parentid = parentid then acc := e :: !acc in
  if Indexed.historical snap then
    Indexed.scan ~where:(in_dir ~parentid) t.rel snap (fun r -> add (entry r))
  else
    Index.Btree.scan_range t.by_dir.tree
      ~lo:(Index.Key.dir_prefix_lo ~parentid)
      ~hi:(Index.Key.dir_prefix_hi ~parentid)
      (fun _ v -> Option.iter add (fetch_entry t snap (Relstore.Tid.decode v)));
  List.sort (fun a b -> String.compare a.name b.name) !acc

let by_oid t snap ~file =
  find t snap t.by_oid ~key:(Index.Key.of_int64 file) ~where:(names_file ~file) (fun e ->
      e.file = file)

let iter_all t snap f = Indexed.scan t.rel snap (fun r -> f (entry r))
