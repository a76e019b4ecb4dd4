(** Slotted-page layout for heap relations.

    A heap page holds variable-length record versions addressed by slot
    number, so a {!Tid.t} (block, slot) stays stable while the page is
    compacted.  The header is self-identifying — it stores the owning
    relation id, its own block number, and a CRC — implementing the
    corruption-detection scheme the paper reserves space for ("every block
    could be tagged with its file identifier and block number").

    Layout (offsets in bytes):
    {v
    0  magic      u16   0x4850
    2  nslots     u16
    4  free_upper u16   data area grows down from the page end to here
    6  flags      u16
    8  relid      i64
    16 blkno      u32
    20 checksum   u32   CRC-32 with this field zeroed, or 0; see seal/verify
    24 line pointers, 4 bytes each: offset u16, length u16 (0 = dead)
    v}

    Each record is stored as [oid i64, xmin u32, xmax u32, payload].

    The checksum is paid once per trip to the device, not once per
    change.  Every change ({!insert}, {!set_xmax}, {!kill_slot},
    {!compact}, {!init}) zeroes the field, so 0 means "changed in the
    pool since it was last stored"; the heap has the buffer pool {!seal}
    the page as it writes it back, so every stored image carries the
    CRC of exactly the bytes stored. *)

type record = {
  slot : int;
  oid : int64;
  xmin : Xid.t;
  xmax : Xid.t;
  payload : bytes;
}

val header_size : int

val max_payload : int
(** Largest payload a single record can carry: one record alone on a page
    (8148 bytes).  Inversion sizes file chunks against this. *)

val init : Pagestore.Page.t -> relid:int64 -> blkno:int -> unit
(** Format an empty page. *)

val is_initialized : Pagestore.Page.t -> bool
val relid : Pagestore.Page.t -> int64
val nslots : Pagestore.Page.t -> int

val free_space : Pagestore.Page.t -> int
(** Bytes available for one more record (its line pointer accounted). *)

val insert : Pagestore.Page.t -> oid:int64 -> xmin:Xid.t -> payload:bytes -> int option
(** Add a record, returning its slot, or [None] if it does not fit.  Dead
    slots are reused (their data space is reclaimed only by {!compact}). *)

val read_record : Pagestore.Page.t -> slot:int -> record option
(** [None] if the slot is dead or out of range. *)

(** {1 Records in place}

    A scan tests each record where it lies, under the page's pin, and
    copies out only the records that pass.  A view is that in-place
    record.  It is valid only during the call it is handed to: the walk
    moves the same view on to the next slot, and once the pin is released
    the page's frame may hold another block. *)

type view

val view_xmin : view -> Xid.t
val view_xmax : view -> Xid.t
val payload_length : view -> int

val oid_is : view -> int64 -> bool
(** Whether the record's oid is this one. *)

val payload_i64_is : view -> at:int -> int64 -> bool
(** Whether the little-endian 64-bit integer at payload offset [at] is
    this one.  Raises [Invalid_argument] if it does not fit in the
    payload. *)

val payload_ends_with : view -> at:int -> string -> bool
(** Whether the payload from offset [at] to its end is exactly the
    string. *)

val materialize : view -> record
(** Copy the record out of the page. *)

val iter_views : Pagestore.Page.t -> (view -> unit) -> unit
(** Every live slot, in slot order, as an in-place view.  A slot whose
    line pointer or stamps do not decode raises [Invalid_argument] when
    read. *)

val set_xmax : Pagestore.Page.t -> slot:int -> Xid.t -> unit
(** Stamp the deleting transaction.  Raises [Invalid_argument] on a dead
    slot. *)

val kill_slot : Pagestore.Page.t -> slot:int -> unit
(** Vacuum only: mark the slot dead.  The TID is never reused for a
    different record (slot stays allocated), so stale index entries cannot
    alias a new record. *)

val iter : Pagestore.Page.t -> (record -> unit) -> unit
(** All live (non-dead-slot) records in slot order, regardless of
    visibility. *)

val compact : Pagestore.Page.t -> unit
(** Slide live records together to reclaim dead data space.  Slot numbers
    (hence TIDs) are preserved. *)

val seal : Pagestore.Page.t -> int
(** Recompute and store the checksum, with one CRC pass over the page,
    and return the CRC-32 of the page as sealed ({!Pagestore.Page.checksum}
    of the stored image), folded from that pass: the buffer pool hands it
    to the device, which then records it without a pass of its own. *)

val verify : Pagestore.Page.t -> expect_relid:int64 -> expect_blkno:int -> (unit, string) result
(** Self-identification check: magic, relid, blkno and checksum all match.
    All-zero pages pass — they are unused space, not corruption.  A page
    whose checksum field is 0 (changed in the pool, not yet stored) is
    checked on its header only, before any CRC is computed.  The page is
    only read: the CRC with the field zeroed comes from one pass over the
    page as it stands. *)
