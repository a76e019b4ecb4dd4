(** Fixed-size 8192-byte data pages.

    The page size is inherited from POSTGRES: it was chosen to make magnetic
    disk transfers fast, and Inversion sizes its file chunks so one chunk
    record fits exactly on one page (paper, "Decomposing Files into
    Tables").  All storage in this repository — heap tables, B-tree nodes,
    the FFS baseline's blocks — moves in units of [Page.size] bytes.

    Accessors use little-endian byte order and check bounds. *)

type t

val size : int
(** 8192. *)

val create : unit -> t
(** A zero-filled page. *)

val copy : t -> t

val of_bytes : bytes -> t
(** Wrap (copying) a buffer; it is padded or truncated to [size]. *)

val to_bytes : t -> bytes
(** A fresh copy of the page's contents. *)

val raw : t -> bytes
(** The underlying buffer, shared (no copy).  For I/O paths only. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
(** 32-bit read, returned as a non-negative OCaml [int]. *)

val set_u32 : t -> int -> int -> unit
val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit

val blit_in : t -> int -> bytes -> int -> int -> unit
(** [blit_in page off src srcoff len] copies bytes into the page. *)

val blit_out : t -> int -> bytes -> int -> int -> unit
(** [blit_out page off dst dstoff len] copies bytes out of the page. *)

val get_string : t -> int -> int -> string
val set_string : t -> int -> string -> unit

val clear : t -> unit
(** Zero the whole page. *)

val crc32 : bytes -> off:int -> len:int -> int
(** IEEE CRC-32 of [len] bytes of a buffer from [off], in
    [0..0xFFFFFFFF].  The one CRC in the system: page checksums, the
    name hash in {!Index.Key.dir_name} and the wire frame check all use
    it.  Slicing-by-8 (eight lookups in a 2,048-entry table fold each
    8-byte word), with each whole 8 KB block run as two independent
    streams over its 4 KB halves, joined by a 1,024-entry table that
    moves a register past 4 KB of zeros; a byte loop finishes the tail.
    Nothing is allocated.  About 5 µs per 8 KB page on a 2-core
    x86-64 machine, against 7.5–8 µs for one stream. *)

val crc32_xor_u32 : int -> len:int -> at:int -> int -> int
(** [crc32_xor_u32 crc ~len ~at v]: given the CRC-32 [crc] of some
    [len] bytes, the CRC-32 of the same bytes with the four at offset
    [at] XORed with [v] (little-endian: byte [at] with [v land 0xFF]),
    without reading the bytes again.  A few hundred integer operations,
    against a pass over the buffer. *)

val crc32_zeroed : bytes -> off:int -> len:int -> at:int -> int
(** Like {!crc32}, but reading the four bytes at [at] (inside the
    range) as zeros: the check of a buffer that carries its own
    checksum at [at], made with one pass and without writing it. *)

val checksum : t -> int
(** CRC-32 of the page contents.  Self-identifying blocks (paper, "Fast
    Recovery") store this to detect medium corruption. *)
