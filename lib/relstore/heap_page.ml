type record = {
  slot : int;
  oid : int64;
  xmin : Xid.t;
  xmax : Xid.t;
  payload : bytes;
}

let magic = 0x4850
let header_size = 24
let line_ptr_size = 4
let record_overhead = 16 (* oid i64 + xmin u32 + xmax u32 *)
let max_payload = Pagestore.Page.size - header_size - line_ptr_size - record_overhead

let off_magic = 0
let off_nslots = 2
let off_free_upper = 4
let off_relid = 8
let off_blkno = 16
let off_checksum = 20

let init page ~relid ~blkno =
  Pagestore.Page.clear page;
  Pagestore.Page.set_u16 page off_magic magic;
  Pagestore.Page.set_u16 page off_nslots 0;
  Pagestore.Page.set_u16 page off_free_upper (Pagestore.Page.size land 0xffff);
  Pagestore.Page.set_i64 page off_relid relid;
  Pagestore.Page.set_u32 page off_blkno blkno

let is_initialized page = Pagestore.Page.get_u16 page off_magic = magic
let relid page = Pagestore.Page.get_i64 page off_relid
let nslots page = Pagestore.Page.get_u16 page off_nslots

(* free_upper is stored mod 2^16; 8192 fits, but an empty page stores 8192
   which is fine in 16 bits.  Recover the true value. *)
let free_upper page =
  let v = Pagestore.Page.get_u16 page off_free_upper in
  if v = 0 then Pagestore.Page.size else v

(* Every change zeroes the checksum: 0 reads "changed in the pool since
   it was last stored", and [seal] fills it in on the way out. *)
let unseal page = Pagestore.Page.set_u32 page off_checksum 0

let set_free_upper page v = Pagestore.Page.set_u16 page off_free_upper (v land 0xffff)

let line_ptr_off slot = header_size + (slot * line_ptr_size)

let slot_entry page slot =
  let base = line_ptr_off slot in
  (Pagestore.Page.get_u16 page base, Pagestore.Page.get_u16 page (base + 2))

let set_slot_entry page slot ~off ~len =
  let base = line_ptr_off slot in
  Pagestore.Page.set_u16 page base off;
  Pagestore.Page.set_u16 page (base + 2) len

let find_dead_slot page =
  let n = nslots page in
  let rec go i =
    if i >= n then None
    else
      let _, len = slot_entry page i in
      if len = 0 then Some i else go (i + 1)
  in
  go 0

let free_space page =
  let n = nslots page in
  let ptr_end = line_ptr_off n in
  let new_ptr = if find_dead_slot page = None then line_ptr_size else 0 in
  free_upper page - ptr_end - new_ptr - record_overhead

let insert page ~oid ~xmin ~payload =
  let len = Bytes.length payload in
  if len > max_payload then invalid_arg "Heap_page.insert: payload too large";
  if free_space page < len then None
  else begin
    let slot, fresh =
      match find_dead_slot page with
      | Some s -> (s, false)
      | None -> (nslots page, true)
    in
    let total = record_overhead + len in
    let off = free_upper page - total in
    Pagestore.Page.set_i64 page off oid;
    Pagestore.Page.set_u32 page (off + 8) xmin;
    Pagestore.Page.set_u32 page (off + 12) Xid.invalid;
    Pagestore.Page.blit_in page (off + 16) payload 0 len;
    set_free_upper page off;
    set_slot_entry page slot ~off ~len:total;
    if fresh then Pagestore.Page.set_u16 page off_nslots (slot + 1);
    unseal page;
    Some slot
  end

(* A record read in place.  One view per page walk, moved from slot to
   slot, so testing a record allocates nothing. *)
type view = {
  page : Pagestore.Page.t;
  mutable vslot : int;
  mutable off : int; (* the record's header *)
  mutable len : int; (* its payload's length *)
}

let view_xmin v = Pagestore.Page.get_u32 v.page (v.off + 8)
let view_xmax v = Pagestore.Page.get_u32 v.page (v.off + 12)
let payload_length v = v.len

let payload_check v at n =
  if at < 0 || at + n > v.len then invalid_arg "Heap_page: payload offset out of bounds"

(* The integer tests compare on the raw bytes: returning the [int64]
   from a function would box it, one allocation per record tested. *)
let oid_is v oid = Int64.equal (Bytes.get_int64_le (Pagestore.Page.raw v.page) v.off) oid

let payload_i64_is v ~at x =
  payload_check v at 8;
  Int64.equal (Bytes.get_int64_le (Pagestore.Page.raw v.page) (v.off + 16 + at)) x

let payload_ends_with v ~at s =
  let n = String.length s in
  v.len = at + n
  && begin
    payload_check v at n;
    let raw = Pagestore.Page.raw v.page and base = v.off + 16 + at in
    let rec same i = i >= n || (Bytes.get raw (base + i) = String.get s i && same (i + 1)) in
    same 0
  end

let materialize v =
  let payload = Bytes.create v.len in
  Pagestore.Page.blit_out v.page (v.off + 16) payload 0 v.len;
  let oid = Pagestore.Page.get_i64 v.page v.off in
  { slot = v.vslot; oid; xmin = view_xmin v; xmax = view_xmax v; payload }

(* Point [v] at [slot]; false for a dead or out-of-range slot. *)
let seek v slot =
  slot >= 0 && slot < nslots v.page
  && begin
    (* [slot_entry]'s fields read directly: its pair would be the walk's
       one allocation per record. *)
    let base = line_ptr_off slot in
    let total = Pagestore.Page.get_u16 v.page (base + 2) in
    total <> 0
    && begin
      v.vslot <- slot;
      v.off <- Pagestore.Page.get_u16 v.page base;
      v.len <- total - record_overhead;
      true
    end
  end

let read_record page ~slot =
  let v = { page; vslot = 0; off = 0; len = 0 } in
  if seek v slot then Some (materialize v) else None

let set_xmax page ~slot xmax =
  if slot < 0 || slot >= nslots page then invalid_arg "Heap_page.set_xmax: bad slot";
  let off, total = slot_entry page slot in
  if total = 0 then invalid_arg "Heap_page.set_xmax: dead slot";
  Pagestore.Page.set_u32 page (off + 12) xmax;
  unseal page

let kill_slot page ~slot =
  if slot < 0 || slot >= nslots page then invalid_arg "Heap_page.kill_slot: bad slot";
  set_slot_entry page slot ~off:0 ~len:0;
  unseal page

let iter_views page f =
  let v = { page; vslot = 0; off = 0; len = 0 } in
  for slot = 0 to nslots page - 1 do
    if seek v slot then f v
  done

let iter page f = iter_views page (fun v -> f (materialize v))

let compact page =
  let live = ref [] in
  iter page (fun r -> live := r :: !live);
  let records = List.rev !live in
  let rid = relid page and bno = Pagestore.Page.get_u32 page off_blkno in
  let n = nslots page in
  init page ~relid:rid ~blkno:bno;
  Pagestore.Page.set_u16 page off_nslots n;
  (* Every slot starts dead, then live records are written back into their
     original slots so TIDs survive compaction. *)
  let place r =
    let len = Bytes.length r.payload in
    let total = record_overhead + len in
    let off = free_upper page - total in
    Pagestore.Page.set_i64 page off r.oid;
    Pagestore.Page.set_u32 page (off + 8) r.xmin;
    Pagestore.Page.set_u32 page (off + 12) r.xmax;
    Pagestore.Page.blit_in page (off + 16) r.payload 0 len;
    set_free_upper page off;
    set_slot_entry page r.slot ~off ~len:total
  in
  List.iter place records

(* One pass over the page: its CRC with the field read as zero is the
   checksum stored, and the stored image's own CRC, which the device
   records, follows from it by folding the four field bytes in. *)
let seal page =
  let crc =
    Pagestore.Page.crc32_zeroed (Pagestore.Page.raw page) ~off:0 ~len:Pagestore.Page.size
      ~at:off_checksum
  in
  Pagestore.Page.set_u32 page off_checksum crc;
  Pagestore.Page.crc32_xor_u32 crc ~len:Pagestore.Page.size ~at:off_checksum crc

(* An allocated-but-never-written page (e.g. from a transaction that
   crashed before committing its relation's first flush). *)
let is_all_zero page =
  let raw = Pagestore.Page.raw page in
  let rec go i = i >= Pagestore.Page.size || (Bytes.unsafe_get raw i = '\000' && go (i + 1)) in
  go 0

let verify page ~expect_relid ~expect_blkno =
  if is_all_zero page then Ok () (* allocated but never written: unused *)
  else if not (is_initialized page) then Error "bad magic"
  else if relid page <> expect_relid then
    Error
      (Printf.sprintf "relid mismatch: page says %Ld, expected %Ld" (relid page)
         expect_relid)
  else if Pagestore.Page.get_u32 page off_blkno <> expect_blkno then
    Error
      (Printf.sprintf "blkno mismatch: page says %d, expected %d"
         (Pagestore.Page.get_u32 page off_blkno) expect_blkno)
  else
    let stored = Pagestore.Page.get_u32 page off_checksum in
    if stored = 0 then Ok () (* changed in the pool since it was last stored *)
    else if
      stored
      <> Pagestore.Page.crc32_zeroed (Pagestore.Page.raw page) ~off:0 ~len:Pagestore.Page.size
           ~at:off_checksum
    then Error "checksum mismatch"
    else Ok ()
