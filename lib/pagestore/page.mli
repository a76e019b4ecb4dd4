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
    it. *)

val checksum : t -> int
(** CRC-32 of the page contents.  Self-identifying blocks (paper, "Fast
    Recovery") store this to detect medium corruption. *)
