module Page = Pagestore.Page
module Bufcache = Pagestore.Bufcache
module Device = Pagestore.Device

(* The root is always block 0.  A root split moves the root's contents
   to a new block and rewrites block 0 in place as the parent of that
   copy and the split's right sibling, so no meta page is needed: the
   height is the root's level + 1 and the entry count lives in memory.
   Block 0 is a node, so child/next pointers use an explicit "none". *)
let node_magic = 0x424E
let root = 0
let no_block = 0xFFFF_FFFF

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
let item_value t item = String.get_int64_be item t.klen

(* ---- node primitives ---- *)

let init_node t blkno ~level =
  with_page t blkno (fun p ->
      Page.set_u16 p n_magic node_magic;
      Page.set_u16 p n_level level;
      Page.set_u16 p n_nitems 0;
      Page.set_u32 p n_next no_block;
      Page.set_u32 p n_child0 no_block);
  dirty t blkno

let alloc_node t ~level =
  let blkno = Bufcache.new_block t.cache t.device ~segid:t.segid in
  init_node t blkno ~level;
  blkno

let node_level p = Page.get_u16 p n_level

(* A node's level, read on the way down.  A page without the node magic
   (a zeroed root, say) fails loudly instead of reading as an empty leaf. *)
let checked_level blkno p =
  if Page.get_u16 p n_magic <> node_magic then
    failwith (Printf.sprintf "Btree: block %d is not a node" blkno);
  node_level p

let level_of t blkno = with_page t blkno (checked_level blkno)

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

(* [String.compare] of the [isize]-byte item at page offset [off]
   against [item], read where it lies: a probe that copied the item out
   would allocate once per comparison. *)
let rec compare_from raw off item i n =
  if i = n then 0
  else
    let c = Char.compare (Bytes.get raw (off + i)) (String.unsafe_get item i) in
    if c <> 0 then c else compare_from raw off item (i + 1) n

let compare_at t p off item = compare_from (Page.raw p) off item 0 t.isize

(* First index in [0, n) whose item is >= target (binary search), and
   whether item [i] is exactly [target], for items [stride] bytes apart
   from [items_base]: [isize] in a leaf, [int_entry_size] in an internal
   node. *)
let lower_bound t p ~stride n target =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_at t p (items_base + (mid * stride)) target < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let item_is t p ~stride n i target =
  i < n && compare_at t p (items_base + (i * stride)) target = 0

(* The entry count lives in memory: keeping it on a page would dirty
   that page on every insert and distort the I/O model.  After a crash
   it is recounted from the leaves on demand. *)
let bump_count t delta = if t.mem_count >= 0 then t.mem_count <- t.mem_count + delta

let rec count_leaves t blkno acc =
  let n, next = with_page t blkno (fun p -> (node_nitems p, Page.get_u32 p n_next)) in
  if next = no_block then acc + n else count_leaves t next (acc + n)

let rec leftmost_leaf t blkno =
  if level_of t blkno = 0 then blkno
  else leftmost_leaf t (with_page t blkno (fun p -> Page.get_u32 p n_child0))

let count t =
  if t.mem_count < 0 then t.mem_count <- count_leaves t (leftmost_leaf t root) 0;
  t.mem_count

let height t = level_of t root + 1

(* ---- construction ---- *)

let create ~cache ~device ~klen =
  if klen < 1 || klen > 64 then invalid_arg "Btree.create: klen out of range";
  let segid = Device.create_segment device in
  let t = { cache; device; segid; klen; isize = klen + 8; mem_count = 0 } in
  let blkno = alloc_node t ~level:0 in
  assert (blkno = root);
  t

let crash t = t.mem_count <- -1

let reinit t =
  (* Rewrite the root as an empty leaf.  The old nodes below it are left
     behind in the segment (block reclamation would need a free list);
     rebuilds are rare — crash recovery only — so the leak is accepted. *)
  init_node t root ~level:0;
  t.mem_count <- 0

(* ---- descent ---- *)

(* Child of internal node [p] to follow for [item]: the child whose
   separator is the greatest one <= item, or child0 if item precedes
   all separators. *)
let route t p item =
  let n = node_nitems p in
  let stride = int_entry_size t in
  let pos = lower_bound t p ~stride n item in
  (* pos = first separator >= item.  Exact match routes right (the
     separator is the first item of its child). *)
  let pos = if item_is t p ~stride n pos item then pos + 1 else pos in
  if pos = 0 then Page.get_u32 p n_child0 else int_child t p (pos - 1)

type 'a step = At_leaf of 'a | Down of int

(* One level of a descent, in one pin: check the node, then either do
   the leaf's work on it or route [item] to the child below. *)
let step t blkno item leaf =
  with_page t blkno (fun p ->
      if checked_level blkno p = 0 then At_leaf (leaf p) else Down (route t p item))

(* Descend to the leaf that holds [item] and run [f] on its block
   number and page, pinned. *)
let rec at_leaf t blkno item f =
  match step t blkno item (f blkno) with At_leaf x -> x | Down child -> at_leaf t child item f

(* ---- insertion ---- *)

type promotion = (string * int) option (* separator item, new right sibling *)

let insert_leaf t blkno item p : promotion option =
  (* Some promo = inserted (with optional split); None = duplicate no-op.
     [p] is leaf [blkno], pinned by the descent. *)
  let n = node_nitems p in
  let pos = lower_bound t p ~stride:t.isize n item in
  if item_is t p ~stride:t.isize n pos item then None
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
  end

let insert_internal t blkno ~sep ~right : promotion =
  with_page t blkno (fun p ->
      let n = node_nitems p in
      let pos = lower_bound t p ~stride:(int_entry_size t) n sep in
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
  match step t blkno item (insert_leaf t blkno item) with
  | At_leaf promo -> promo
  | Down child -> (
    match insert_at t child item with
    | None -> None
    | Some None -> Some None
    | Some (Some (sep, right)) -> Some (insert_internal t blkno ~sep ~right))

(* The root split: the root's left half moves to a new block, and block
   0 becomes an internal node one level higher over that copy and the
   split's right sibling. *)
let grow_root t ~sep ~right =
  let left = Bufcache.new_block t.cache t.device ~segid:t.segid in
  with_page t root (fun p ->
      with_page t left (fun lp -> Page.blit_in lp 0 (Page.raw p) 0 Page.size);
      Page.set_u16 p n_level (node_level p + 1);
      Page.set_u16 p n_nitems 1;
      Page.set_u32 p n_next no_block;
      Page.set_u32 p n_child0 left;
      int_set_entry t p 0 ~item:sep ~child:right);
  dirty t left;
  dirty t root

let insert t ~key ~value =
  Relstore.Cpu_model.charge_index_op (Device.clock t.device);
  let item = item_of t ~key ~value in
  match insert_at t root item with
  | None -> () (* exact duplicate *)
  | Some promo ->
    bump_count t 1;
    Option.iter (fun (sep, right) -> grow_root t ~sep ~right) promo

(* ---- deletion (lazy: leaves may become underfull or empty) ---- *)

let delete t ~key ~value =
  let item = item_of t ~key ~value in
  let removed =
    at_leaf t root item (fun leaf p ->
        let n = node_nitems p in
        let pos = lower_bound t p ~stride:t.isize n item in
        if item_is t p ~stride:t.isize n pos item then begin
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
  (* Value suffixes 0 and -1 are the smallest and largest (8 zero bytes,
     8 0xff bytes): every entry under [lo] .. [hi] lies between. *)
  let lo_item = item_of t ~key:lo ~value:0L in
  let hi_item = item_of t ~key:hi ~value:(-1L) in
  let visit item = f (item_key t item) (item_value t item) in
  let stop = ref false in
  (* The entries of leaf [p] in range, copied out, and the next leaf:
     start at [lo_item]'s lower bound, stop at the first entry past
     [hi_item]. *)
  let collect p =
    let batch = ref [] in
    let n = node_nitems p in
    let i = ref (lower_bound t p ~stride:t.isize n lo_item) in
    while (not !stop) && !i < n do
      if compare_at t p (items_base + (!i * t.isize)) hi_item > 0 then stop := true
      else begin
        batch := leaf_item t p !i :: !batch;
        incr i
      end
    done;
    (List.rev !batch, Page.get_u32 p n_next)
  in
  (* The first leaf is read in the descent's own pin. *)
  let rec walk (batch, next) =
    List.iter visit batch;
    if (not !stop) && next <> no_block then walk (with_page t next collect)
  in
  walk (at_leaf t root lo_item (fun _ p -> collect p))

let lookup t ~key =
  Relstore.Cpu_model.charge_index_op (Device.clock t.device);
  let acc = ref [] in
  scan_range t ~lo:key ~hi:key (fun _ v -> acc := v :: !acc);
  List.rev !acc

let iter t f =
  scan_range t ~lo:(String.make t.klen '\x00') ~hi:(String.make t.klen '\xff') f

(* ---- structural audit ---- *)

let check_invariants t =
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
  walk root (with_page t root node_level) ~lo:None ~hi:None;
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
  (* A clean walk reached the leftmost leaf first; past a walk error the
     verdict is already that error, and the chain may not be walkable. *)
  if !errors = [] then chain walk_leaves.(0) 0;
  match List.rev !errors with
  | [] ->
    t.mem_count <- !leaf_items;
    Ok ()
  | e :: _ -> Error e
