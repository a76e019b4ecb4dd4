(* Wall-clock probes of single layers, timed on a workload's final state
   after its traced run: path resolution and its parts, the naming B-tree,
   a buffer-pool hit, and the wire codec. *)

open Bench
module Naming = Invfs.Naming
module Btree = Index.Btree

(* Mean seconds per call of [f], as the median of five timed rounds. *)
let per_call ~iters f =
  median
    (List.init 5 (fun _ ->
         let w0 = wall () in
         for i = 1 to iters do
           f i
         done;
         (wall () -. w0) /. float_of_int iters))

let split path =
  match String.rindex_opt path '/' with
  | Some 0 | None -> ("/", String.sub path 1 (String.length path - 1))
  | Some i -> (String.sub path 0 i, String.sub path (i + 1) (String.length path - i - 1))

let components path = List.length (String.split_on_char '/' path) - 1

let run (t : target) =
  let sys = t.t_sys in
  let fs = sys.fs in
  let s = Fs.new_session fs in
  let naming = Fs.naming_catalog fs and fileatt = Fs.fileatt_catalog fs in
  let paths = t.t_paths in
  let n = Array.length paths in
  let keys =
    Array.map
      (fun p ->
        let dir, name = split p in
        (Fs.lookup_oid s dir, name, Fs.lookup_oid s p))
      paths
  in
  let pick i = keys.(i mod n) in
  let iters = 200 in
  let stat = per_call ~iters (fun i -> ignore (Fs.stat s paths.(i mod n) : Invfs.Fileatt.att)) in
  let asof () = Relstore.Snapshot.As_of (Relstore.Db.now sys.db) in
  let lookup snap =
    per_call ~iters (fun i ->
        let parentid, name, _ = pick i in
        ignore (Naming.lookup naming snap ~parentid ~name : Naming.entry option))
  in
  let txn = Relstore.Db.begin_txn sys.db in
  let lookup_cur = lookup (Relstore.Txn.snapshot txn) in
  Relstore.Txn.abort txn;
  let lookup_asof = lookup (asof ()) in
  let snap = asof () in
  let fileatt_get =
    per_call ~iters (fun i ->
        let _, _, oid = pick i in
        ignore (Invfs.Fileatt.get fileatt snap ~file:oid : Invfs.Fileatt.att option))
  in
  let tree = List.hd (Naming.indexes naming) in
  let btree_key i =
    let parentid, name, _ = pick i in
    Index.Key.dir_name ~parentid ~name
  in
  let cache = Relstore.Db.cache sys.db in
  let gets0 = (Pagestore.Bufcache.stats cache).s_gets in
  let btree = per_call ~iters (fun i -> ignore (Btree.lookup tree ~key:(btree_key i) : int64 list)) in
  let gets_per_lookup =
    float_of_int ((Pagestore.Bufcache.stats cache).s_gets - gets0) /. float_of_int (5 * iters)
  in
  let chunk_height =
    match Fs.file_handle fs ~oid:(Fs.lookup_oid s t.t_chunk_path) with
    | Some inv -> Btree.height (Invfs.Inv_file.index inv)
    | None -> 0
  in
  let heap = Naming.heap naming in
  let dev = Relstore.Heap.device heap and segid = Relstore.Heap.segid heap in
  let cache_hit =
    per_call ~iters:20_000 (fun _ ->
        Pagestore.Bufcache.with_page cache dev ~segid ~blkno:0 (fun (_ : Pagestore.Page.t) -> ()))
  in
  let data = String.make Fs.chunk_capacity 'x' in
  let codec =
    per_call ~iters (fun i ->
        let rid = Int64.of_int i in
        let frames =
          Remote.Wire.encode_request ~sid:1L ~rid (Remote.Wire.Write { fd = 3; off = 0L; data })
        in
        let asm = Remote.Wire.Assembly.create () in
        List.iter
          (fun f ->
            match Remote.Wire.decode_header f with
            | None -> failwith "codec probe: frame failed its CRC"
            | Some h -> (
              match Remote.Wire.Assembly.add asm h with
              | `Pending -> ()
              | `Complete payload -> (
                match Remote.Wire.decode_request_any payload with
                | `Req _ -> ()
                | `Unknown _ | `Malformed -> failwith "codec probe: payload did not decode")))
          frames)
  in
  let us x = x *. 1e6 in
  let per_component = float_of_int (components paths.(0)) in
  [
    ("core.stat_wall_us", us stat, "us");
    ("core.naming_lookup_wall_us", us lookup_cur, "us");
    ("core.naming_lookup_asof_wall_us", us lookup_asof, "us");
    ("core.fileatt_get_wall_us", us fileatt_get, "us");
    ( "core.stat_self_wall_us",
      us (stat -. (per_component *. (lookup_asof +. fileatt_get))),
      "us" );
    ("index.btree_lookup_wall_us", us btree, "us");
    ("index.cache_gets_per_lookup", gets_per_lookup, "count");
    ("index.naming_height", float_of_int (Btree.height tree), "count");
    ("index.chunk_height", float_of_int chunk_height, "count");
    ("pagestore.cache_hit_wall_ns", cache_hit *. 1e9, "ns");
    ("remote.codec_wall_us", us codec, "us");
  ]
