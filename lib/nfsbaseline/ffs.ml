module Device = Pagestore.Device
module Page = Pagestore.Page

let block_size = Page.size
let direct_blocks = 12
let pointers_per_indirect = block_size / 4

type write_mode = Sync | Async | Absorbed of Presto.t

(* Small LRU over device block numbers: resident = read is free. *)
module Lru = struct
  type t = {
    cap : int;
    table : (int, int) Hashtbl.t; (* blkno -> stamp *)
    mutable stamp : int;
  }

  let create cap = { cap; table = Hashtbl.create (2 * cap); stamp = 0 }
  let mem t b = Hashtbl.mem t.table b

  let touch t b =
    t.stamp <- t.stamp + 1;
    Hashtbl.replace t.table b t.stamp

  let evict_victim t =
    let victim = ref (-1) and oldest = ref max_int in
    Hashtbl.iter
      (fun b s ->
        if s < !oldest then begin
          oldest := s;
          victim := b
        end)
      t.table;
    if !victim >= 0 then Hashtbl.remove t.table !victim;
    !victim

  let add t b =
    let evicted = ref None in
    if not (mem t b) then
      if Hashtbl.length t.table >= t.cap then begin
        let v = evict_victim t in
        if v >= 0 then evicted := Some v
      end;
    touch t b;
    !evicted

  let clear t = Hashtbl.reset t.table
end

type inode = {
  ino : int;
  mutable isize : int64;
  mutable blocks : int array; (* logical index -> device blkno, -1 = hole *)
  proxies : (int, int) Hashtbl.t; (* indirect window -> pointer-block blkno *)
}

type t = {
  device : Device.t;
  segid : int;
  cache : Lru.t;
  dirty : (int, unit) Hashtbl.t; (* async-written blocks awaiting charge *)
  inodes : (int, inode) Hashtbl.t;
  names : (string, int) Hashtbl.t;
  mutable next_ino : int;
}

let device t = t.device

(* The server buffer cache's size in pages (16 MB), and the metadata
   region reserved at the start of the disk; the root directory's block
   comes right after it. *)
let cache_pages = 2048
let inode_area_blocks = 64
let root_dir_block = inode_area_blocks

let create ~device =
  let segid = Device.create_segment device in
  (* reserve metadata region up front so data blocks sit beyond it *)
  for _ = 0 to inode_area_blocks do
    ignore (Device.allocate_block device segid : int)
  done;
  {
    device;
    segid;
    cache = Lru.create cache_pages;
    dirty = Hashtbl.create 64;
    inodes = Hashtbl.create 64;
    names = Hashtbl.create 64;
    next_ino = 2;
  }

(* ---- cache + charging primitives ---- *)

let charge_write_now t blkno = Device.charge_write t.device ~segid:t.segid ~blkno

(* NVRAM drains are sorted and overlapped by the driver: marginal cost is
   one transfer, not a synchronous seek. *)
let charge_drain t = Device.charge_drain t.device

let cache_insert t blkno =
  match Lru.add t.cache blkno with
  | Some victim when Hashtbl.mem t.dirty victim ->
    Hashtbl.remove t.dirty victim;
    charge_write_now t victim
  | Some _ | None -> ()

(* A read access: free if resident, else a disk read + cache fill. *)
let access_read t blkno =
  if Lru.mem t.cache blkno then Lru.touch t.cache blkno
  else begin
    Device.charge_read t.device ~segid:t.segid ~blkno;
    cache_insert t blkno
  end

let inode_block ino = (ino / 64) mod inode_area_blocks

let charge_meta_update t blkno = function
  | Sync -> charge_write_now t blkno
  | Async ->
    Hashtbl.replace t.dirty blkno ();
    cache_insert t blkno
  | Absorbed presto ->
    Presto.write presto
      ~key:(Printf.sprintf "meta:%d" blkno)
      ~bytes:128
      ~flush:(fun () -> charge_drain t)

(* ---- inode / block-map management ---- *)

let get_inode t ino =
  match Hashtbl.find_opt t.inodes ino with
  | Some i -> i
  | None -> raise Not_found

let ensure_capacity inode idx =
  let n = Array.length inode.blocks in
  if idx >= n then begin
    let bigger = Array.make (max (idx + 1) (2 * max n 8)) (-1) in
    Array.blit inode.blocks 0 bigger 0 n;
    inode.blocks <- bigger
  end

(* The pointer block an access to logical index [idx] must consult, if
   any.  Allocated lazily on writes; reads of cold indirect blocks cost a
   disk I/O, which is what degrades FFS random reads on big files. *)
let proxy_for t inode idx ~allocate ~mode =
  if idx < direct_blocks then None
  else begin
    let window = (idx - direct_blocks) / pointers_per_indirect in
    match Hashtbl.find_opt inode.proxies window with
    | Some b -> Some b
    | None ->
      if allocate then begin
        let b = Device.allocate_block t.device t.segid in
        Hashtbl.replace inode.proxies window b;
        charge_meta_update t b mode;
        Some b
      end
      else None
  end

let data_block t inode idx ~allocate ~mode =
  ensure_capacity inode idx;
  (match proxy_for t inode idx ~allocate ~mode with
  | Some proxy when not allocate -> access_read t proxy
  | Some _ | None -> ());
  if inode.blocks.(idx) >= 0 then Some inode.blocks.(idx)
  else if allocate then begin
    let b = Device.allocate_block t.device t.segid in
    inode.blocks.(idx) <- b;
    Some b
  end
  else None

(* ---- namespace ---- *)

let create_file t name ~mode =
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "Ffs.create_file: %s exists" name);
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  Hashtbl.replace t.names name ino;
  Hashtbl.replace t.inodes ino
    { ino; isize = 0L; blocks = Array.make 8 (-1); proxies = Hashtbl.create 4 };
  (* directory entry + new inode hit the metadata area *)
  charge_meta_update t root_dir_block mode;
  charge_meta_update t (inode_block ino) mode;
  ino

let lookup t name = Hashtbl.find_opt t.names name

let size t ino = (get_inode t ino).isize

(* ---- data path ---- *)

let write t ~ino ~off ~data ~mode =
  let inode = get_inode t ino in
  let len = Bytes.length data in
  if len > 0 then begin
    let first = Int64.to_int (Int64.div off (Int64.of_int block_size)) in
    let last =
      Int64.to_int (Int64.div (Int64.add off (Int64.of_int (len - 1))) (Int64.of_int block_size))
    in
    for idx = first to last do
      let blkno = Option.get (data_block t inode idx ~allocate:true ~mode) in
      let block_start = Int64.mul (Int64.of_int idx) (Int64.of_int block_size) in
      let lo = max off block_start in
      let hi =
        min (Int64.add off (Int64.of_int len)) (Int64.add block_start (Int64.of_int block_size))
      in
      let in_block = Int64.to_int (Int64.sub lo block_start) in
      let slice = Int64.to_int (Int64.sub hi lo) in
      let partial = slice < block_size in
      (* read-modify-write pays a read when the block is cold *)
      if partial && Int64.compare block_start inode.isize < 0 then access_read t blkno;
      let page = Page.create () in
      Device.peek_block t.device ~segid:t.segid ~blkno page;
      Page.blit_in page in_block data (Int64.to_int (Int64.sub lo off)) slice;
      Device.poke_block t.device ~segid:t.segid ~blkno page;
      (match mode with
      | Sync ->
        charge_write_now t blkno;
        cache_insert t blkno
      | Async ->
        Hashtbl.replace t.dirty blkno ();
        cache_insert t blkno
      | Absorbed presto ->
        cache_insert t blkno;
        Presto.write presto
          ~key:(Printf.sprintf "data:%d:%d" ino idx)
          ~bytes:slice
          ~flush:(fun () -> charge_drain t))
    done;
    let new_end = Int64.add off (Int64.of_int len) in
    if Int64.compare new_end inode.isize > 0 then inode.isize <- new_end;
    (* the inode (size, mtime) is metadata: forced under NFS *)
    charge_meta_update t (inode_block ino) mode
  end

let read t ~ino ~off ~buf ~len =
  let inode = get_inode t ino in
  let avail = Int64.sub inode.isize off in
  let n = Int64.to_int (min (Int64.of_int len) (max 0L avail)) in
  if n > 0 then begin
    Bytes.fill buf 0 n '\000';
    let first = Int64.to_int (Int64.div off (Int64.of_int block_size)) in
    let last =
      Int64.to_int (Int64.div (Int64.add off (Int64.of_int (n - 1))) (Int64.of_int block_size))
    in
    for idx = first to last do
      match data_block t inode idx ~allocate:false ~mode:Sync with
      | None -> () (* hole *)
      | Some blkno ->
        access_read t blkno;
        let page = Page.create () in
        Device.peek_block t.device ~segid:t.segid ~blkno page;
        let block_start = Int64.mul (Int64.of_int idx) (Int64.of_int block_size) in
        let lo = max off block_start in
        let hi =
          min (Int64.add off (Int64.of_int n)) (Int64.add block_start (Int64.of_int block_size))
        in
        Page.blit_out page
          (Int64.to_int (Int64.sub lo block_start))
          buf
          (Int64.to_int (Int64.sub lo off))
          (Int64.to_int (Int64.sub hi lo))
    done
  end;
  n

let sync t =
  let doomed = Hashtbl.fold (fun b () acc -> b :: acc) t.dirty [] in
  List.iter (fun b -> charge_write_now t b) (List.sort compare doomed);
  Hashtbl.reset t.dirty

let drop_caches t =
  sync t;
  Lru.clear t.cache
