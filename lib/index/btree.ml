module Page = Pagestore.Page
module Bufcache = Pagestore.Bufcache
module Device = Pagestore.Device

(* Block 0 is the meta page; nodes live in blocks >= 1, so child/next
   pointer 0 doubles as "none". *)
let meta_magic = 0x424D
let node_magic = 0x424E
let no_block = 0

(* meta page offsets *)
let m_magic = 0
let m_klen = 2
let m_root = 4
let m_height = 8
let m_count = 12

(* node page offsets *)
let n_magic = 0
let n_level = 2
let n_nitems = 4
let n_next = 6
let n_child0 = 10
let items_base = 16

type t = {
  cache : Bufcache.t;
  device : Device.t;
  segid : int;
  klen : int;
  isize : int; (* klen + 8-byte value suffix *)
  mutable mem_count : int; (* -1 = unknown (recount from leaves) *)
}

let klen t = t.klen
let segid t = t.segid
let device t = t.device

let leaf_cap t = (Page.size - items_base) / t.isize
let internal_cap t = (Page.size - items_base) / (t.isize + 4)

let with_page t blkno f = Bufcache.with_page t.cache t.device ~segid:t.segid ~blkno f
let dirty t blkno = Bufcache.mark_dirty t.cache t.device ~segid:t.segid ~blkno

(* ---- items: key bytes ++ big-endian value ---- *)

let item_of t ~key ~value =
  if String.length key <> t.klen then
    invalid_arg
      (Printf.sprintf "Btree: key is %d bytes, tree wants %d" (String.length key) t.klen);
  let b = Bytes.create t.isize in
  Bytes.blit_string key 0 b 0 t.klen;
  Bytes.set_int64_be b t.klen value;
  Bytes.unsafe_to_string b

let item_key t item = String.sub item 0 t.klen
let item_value t item = Bytes.get_int64_be (Bytes.of_string item) t.klen

(* ---- meta page ---- *)

let read_meta t =
  with_page t 0 (fun p ->
      if Page.get_u16 p m_magic <> meta_magic then failwith "Btree: bad meta page";
      (Page.get_u32 p m_root, Page.get_u16 p m_height, Int64.to_int (Page.get_i64 p m_count)))

let write_meta t ~root ~height ~count =
  with_page t 0 (fun p ->
      Page.set_u16 p m_magic meta_magic;
      Page.set_u16 p m_klen t.klen;
      Page.set_u32 p m_root root;
      Page.set_u16 p m_height height;
      Page.set_i64 p m_count (Int64.of_int count));
  dirty t 0


(* ---- node primitives ---- *)

let alloc_node t ~level =
  let blkno = Bufcache.new_block t.cache t.device ~segid:t.segid in
  with_page t blkno (fun p ->
      Page.set_u16 p n_magic node_magic;
      Page.set_u16 p n_level level;
      Page.set_u16 p n_nitems 0;
      Page.set_u32 p n_next no_block;
      Page.set_u32 p n_child0 no_block);
  dirty t blkno;
  blkno

let node_level p = Page.get_u16 p n_level
let node_nitems p = Page.get_u16 p n_nitems

let leaf_item t p i = Page.get_string p (items_base + (i * t.isize)) t.isize

let leaf_set_item t p i item =
  Page.set_string p (items_base + (i * t.isize)) item

let int_entry_size t = t.isize + 4
let int_item t p i = Page.get_string p (items_base + (i * int_entry_size t)) t.isize
let int_child t p i = Page.get_u32 p (items_base + (i * int_entry_size t) + t.isize)

let int_set_entry t p i ~item ~child =
  Page.set_string p (items_base + (i * int_entry_size t)) item;
  Page.set_u32 p (items_base + (i * int_entry_size t) + t.isize) child

(* First index whose item is >= target (binary search). *)
let lower_bound n get target =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (get mid) target < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* The entry count lives in memory: updating the meta page per insert
   would dirty block 0 on every operation and distort the I/O model.
   After a crash it is recounted from the leaves on demand. *)
let bump_count t delta = if t.mem_count >= 0 then t.mem_count <- t.mem_count + delta

let rec count_leaves t blkno acc =
  let n, next = with_page t blkno (fun p -> (node_nitems p, Page.get_u32 p n_next)) in
  if next = no_block then acc + n else count_leaves t next (acc + n)

let leftmost_leaf t =
  let root, _, _ = read_meta t in
  let rec descend blkno =
    let level = with_page t blkno node_level in
    if level = 0 then blkno
    else descend (with_page t blkno (fun p -> Page.get_u32 p n_child0))
  in
  descend root

let count t =
  if t.mem_count < 0 then t.mem_count <- count_leaves t (leftmost_leaf t) 0;
  t.mem_count

let height t =
  let _, h, _ = read_meta t in
  h

(* ---- construction ---- *)

let create ~cache ~device ~klen =
  if klen < 1 || klen > 64 then invalid_arg "Btree.create: klen out of range";
  let segid = Device.create_segment device in
  let t = { cache; device; segid; klen; isize = klen + 8; mem_count = 0 } in
  let meta_blk = Bufcache.new_block cache device ~segid in
  assert (meta_blk = 0);
  let root = alloc_node t ~level:0 in
  write_meta t ~root ~height:1 ~count:0;
  t

let crash t = t.mem_count <- -1

let reinit t =
  (* Point the meta page at a fresh empty leaf.  The old nodes are left
     behind in the segment (block reclamation would need a free list);
     rebuilds are rare — crash recovery only — so the leak is accepted. *)
  let root = alloc_node t ~level:0 in
  t.mem_count <- 0;
  write_meta t ~root ~height:1 ~count:0

(* ---- descent ---- *)

(* Child to follow for [item]: the child whose separator is the greatest
   one <= item, or child0 if item precedes all separators. *)
let find_child t blkno item =
  with_page t blkno (fun p ->
      let n = node_nitems p in
      let pos = lower_bound n (fun i -> int_item t p i) item in
      (* pos = first separator >= item.  Exact match routes right (the
         separator is the first item of its child). *)
      let pos =
        if pos < n && String.equal (int_item t p pos) item then pos + 1 else pos
      in
      if pos = 0 then Page.get_u32 p n_child0 else int_child t p (pos - 1))

let rec find_leaf t blkno item =
  let level = with_page t blkno node_level in
  if level = 0 then blkno else find_leaf t (find_child t blkno item) item

(* ---- insertion ---- *)

type promotion = (string * int) option (* separator item, new right sibling *)

let insert_leaf t blkno item : promotion option =
  (* Some promo = inserted (with optional split); None = duplicate no-op. *)
  with_page t blkno (fun p ->
      let n = node_nitems p in
      let pos = lower_bound n (fun i -> leaf_item t p i) item in
      if pos < n && String.equal (leaf_item t p pos) item then None
      else if n < leaf_cap t then begin
        let raw = Page.raw p in
        Bytes.blit raw (items_base + (pos * t.isize)) raw
          (items_base + ((pos + 1) * t.isize))
          ((n - pos) * t.isize);
        leaf_set_item t p pos item;
        Page.set_u16 p n_nitems (n + 1);
        dirty t blkno;
        Some None
      end
      else begin
        (* Split: gather items with the new one in place, distribute. *)
        let all = Array.make (n + 1) "" in
        for i = 0 to pos - 1 do
          all.(i) <- leaf_item t p i
        done;
        all.(pos) <- item;
        for i = pos to n - 1 do
          all.(i + 1) <- leaf_item t p i
        done;
        let total = n + 1 in
        let left_n = total / 2 in
        let right_n = total - left_n in
        let right = alloc_node t ~level:0 in
        let old_next = Page.get_u32 p n_next in
        with_page t right (fun rp ->
            for i = 0 to right_n - 1 do
              leaf_set_item t rp i all.(left_n + i)
            done;
            Page.set_u16 rp n_nitems right_n;
            Page.set_u32 rp n_next old_next);
        dirty t right;
        for i = 0 to left_n - 1 do
          leaf_set_item t p i all.(i)
        done;
        Page.set_u16 p n_nitems left_n;
        Page.set_u32 p n_next right;
        dirty t blkno;
        Some (Some (all.(left_n), right))
      end)

let insert_internal t blkno ~sep ~right : promotion =
  with_page t blkno (fun p ->
      let n = node_nitems p in
      let pos = lower_bound n (fun i -> int_item t p i) sep in
      if n < internal_cap t then begin
        let esz = int_entry_size t in
        let raw = Page.raw p in
        Bytes.blit raw (items_base + (pos * esz)) raw
          (items_base + ((pos + 1) * esz))
          ((n - pos) * esz);
        int_set_entry t p pos ~item:sep ~child:right;
        Page.set_u16 p n_nitems (n + 1);
        dirty t blkno;
        None
      end
      else begin
        let entries = Array.make (n + 1) ("", 0) in
        for i = 0 to pos - 1 do
          entries.(i) <- (int_item t p i, int_child t p i)
        done;
        entries.(pos) <- (sep, right);
        for i = pos to n - 1 do
          entries.(i + 1) <- (int_item t p i, int_child t p i)
        done;
        let total = n + 1 in
        let mid = total / 2 in
        let promoted_item, promoted_child = entries.(mid) in
        let right_blk = alloc_node t ~level:(node_level p) in
        with_page t right_blk (fun rp ->
            Page.set_u32 rp n_child0 promoted_child;
            let rn = total - mid - 1 in
            for i = 0 to rn - 1 do
              let item, child = entries.(mid + 1 + i) in
              int_set_entry t rp i ~item ~child
            done;
            Page.set_u16 rp n_nitems rn);
        dirty t right_blk;
        for i = 0 to mid - 1 do
          let item, child = entries.(i) in
          int_set_entry t p i ~item ~child
        done;
        Page.set_u16 p n_nitems mid;
        dirty t blkno;
        Some (promoted_item, right_blk)
      end)

let rec insert_at t blkno item : promotion option =
  let level = with_page t blkno node_level in
  if level = 0 then insert_leaf t blkno item
  else begin
    let child = find_child t blkno item in
    match insert_at t child item with
    | None -> None
    | Some None -> Some None
    | Some (Some (sep, right)) -> Some (insert_internal t blkno ~sep ~right)
  end

let insert t ~key ~value =
  Relstore.Cpu_model.charge_index_op (Device.clock t.device);
  let item = item_of t ~key ~value in
  let root, hgt, cnt = read_meta t in
  match insert_at t root item with
  | None -> () (* exact duplicate *)
  | Some promo ->
    bump_count t 1;
    (match promo with
    | None -> ()
    | Some (sep, right) ->
      let new_root = alloc_node t ~level:hgt in
      with_page t new_root (fun p ->
          Page.set_u32 p n_child0 root;
          int_set_entry t p 0 ~item:sep ~child:right;
          Page.set_u16 p n_nitems 1);
      dirty t new_root;
      write_meta t ~root:new_root ~height:(hgt + 1) ~count:cnt)

(* ---- deletion (lazy: leaves may become underfull or empty) ---- *)

let delete t ~key ~value =
  let item = item_of t ~key ~value in
  let root, _, _ = read_meta t in
  let leaf = find_leaf t root item in
  let removed =
    with_page t leaf (fun p ->
        let n = node_nitems p in
        let pos = lower_bound n (fun i -> leaf_item t p i) item in
        if pos < n && String.equal (leaf_item t p pos) item then begin
          let raw = Page.raw p in
          Bytes.blit raw
            (items_base + ((pos + 1) * t.isize))
            raw
            (items_base + (pos * t.isize))
            ((n - pos - 1) * t.isize);
          Page.set_u16 p n_nitems (n - 1);
          dirty t leaf;
          true
        end
        else false)
  in
  if removed then bump_count t (-1);
  removed

(* ---- scans ---- *)

let scan_range t ~lo ~hi f =
  let lo_item = item_of t ~key:lo ~value:Int64.min_int in
  (* min_int's BE encoding starts 0x80...; we want the smallest suffix, so
     use explicit zero bytes instead. *)
  let lo_item = item_key t lo_item ^ String.make 8 '\x00' in
  let hi_item = hi ^ String.make 8 '\xff' in
  let visit item = f (item_key t item) (item_value t item) in
  let root, _, _ = read_meta t in
  let leaf = ref (find_leaf t root lo_item) in
  let stop = ref false in
  while (not !stop) && !leaf <> no_block do
    let batch = ref [] in
    let next =
      with_page t !leaf (fun p ->
          let n = node_nitems p in
          for i = 0 to n - 1 do
            let item = leaf_item t p i in
            if String.compare item lo_item >= 0 then
              if String.compare item hi_item <= 0 then batch := item :: !batch
              else stop := true
          done;
          Page.get_u32 p n_next)
    in
    List.iter visit (List.rev !batch);
    leaf := next
  done

let lookup t ~key =
  Relstore.Cpu_model.charge_index_op (Device.clock t.device);
  let acc = ref [] in
  scan_range t ~lo:key ~hi:key (fun _ v -> acc := v :: !acc);
  List.rev !acc

let iter t f =
  scan_range t ~lo:(String.make t.klen '\x00') ~hi:(String.make t.klen '\xff') f

let min_entry t =
  let result = ref None in
  (try
     iter t (fun k v ->
         result := Some (k, v);
         raise Exit)
   with Exit -> ());
  !result

let max_entry t =
  let result = ref None in
  iter t (fun k v -> result := Some (k, v));
  !result

(* ---- structural audit ---- *)

let check_invariants t =
  let root, hgt, _ = read_meta t in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Walk the tree checking levels, in-node order and subtree bounds
     (which together put the leaves it reaches in key order); collect
     those leaves, left to right, and count their items. *)
  let walk_leaves = ref [] in
  let leaf_items = ref 0 in
  let rec walk blkno expected_level ~lo ~hi =
    with_page t blkno (fun p ->
        if Page.get_u16 p n_magic <> node_magic then fail "block %d: bad node magic" blkno;
        let level = node_level p in
        if level <> expected_level then
          fail "block %d: level %d, expected %d" blkno level expected_level;
        let n = node_nitems p in
        let get i = if level = 0 then leaf_item t p i else int_item t p i in
        for i = 0 to n - 2 do
          if String.compare (get i) (get (i + 1)) >= 0 then
            fail "block %d: items %d/%d out of order" blkno i (i + 1)
        done;
        for i = 0 to n - 1 do
          let item = get i in
          (match lo with
          | Some l when String.compare item l < 0 ->
            fail "block %d: item %d below subtree bound" blkno i
          | _ -> ());
          match hi with
          | Some h when String.compare item h >= 0 ->
            fail "block %d: item %d above subtree bound" blkno i
          | _ -> ()
        done;
        if level = 0 then begin
          walk_leaves := blkno :: !walk_leaves;
          leaf_items := !leaf_items + n
        end
        else begin
          let children =
            Page.get_u32 p n_child0
            :: List.init n (fun i -> int_child t p i)
          in
          let bounds =
            (* child i is bounded by (sep_{i-1}, sep_i) *)
            List.init (n + 1) (fun i ->
                let l = if i = 0 then lo else Some (get (i - 1)) in
                let h = if i = n then hi else Some (get i) in
                (l, h))
          in
          List.iter2 (fun child (l, h) -> walk child (level - 1) ~lo:l ~hi:h) children bounds
        end)
  in
  walk root (hgt - 1) ~lo:None ~hi:None;
  let walk_leaves = Array.of_list (List.rev !walk_leaves) in
  (* The leaf chain from the leftmost leaf must visit exactly the leaves
     the walk reached, in the same order.  Then a lookup (descend, then
     follow the chain) and a whole-chain scan see the same entries, and
     the chain is as sorted as the walk's leaves.  The chain walk stops
     one leaf past the walk's count, so a stale next pointer that closes
     a cycle ends as a mismatch, not a loop. *)
  let nleaves = Array.length walk_leaves in
  let rec chain blkno i =
    if blkno = no_block then begin
      if i < nleaves then fail "leaf chain ends after %d of %d leaves" i nleaves
    end
    else if i >= nleaves then fail "leaf chain runs past the %d leaves of the tree walk" nleaves
    else if blkno <> walk_leaves.(i) then
      fail "leaf chain visits block %d where the tree walk reaches block %d" blkno
        walk_leaves.(i)
    else chain (with_page t blkno (fun p -> Page.get_u32 p n_next)) (i + 1)
  in
  chain (leftmost_leaf t) 0;
  match List.rev !errors with
  | [] ->
    t.mem_count <- !leaf_items;
    Ok ()
  | e :: _ -> Error e
