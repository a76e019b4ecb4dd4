(** Chunk records: how file bytes are packed into database records.

    "File data are collected into chunks slightly smaller than 8 KBytes.
    The size of the chunk is calculated so that a single record will fit
    exactly on a POSTGRES data manager page" (paper, Figure 1).  Each
    record is [(chunk number, chunk data)]; we add a small header carrying
    the compression flag and the uncompressed length for the compressed-
    chunk extension ("Services Under Investigation").

    Record payload layout:
    {v
    0  chunkno          i64
    8  data length      u32
    12 flags            u16   bit 0 = compressed
    14 uncompressed len u32   (= data length when not compressed)
    18 data
    v} *)

type t = {
  chunkno : int64;
  compressed : bool;
  uncompressed_len : int;
  data : bytes;  (** stored bytes (compressed form if [compressed]) *)
}

val header_size : int

val capacity : int
(** Usable file bytes per chunk: {!Relstore.Heap_page.max_payload} minus
    the header — 8130 bytes, "slightly smaller than 8 KB". *)

val chunkno_of_offset : int64 -> int64
(** Which chunk holds the byte at this file offset. *)

val encode : t -> bytes
(** Raises [Invalid_argument] if the data exceeds {!capacity}. *)

val decode : bytes -> t
(** Raises [Invalid_argument] on a malformed payload. *)

val peek_chunkno : bytes -> int64
(** Read just the chunk number from an encoded payload's header, without
    decoding (or decompressing) the data.  The index cross-checks in
    {!Inv_file} only need the chunk number, and a full [decode] copies —
    and for compressed chunks inflates — up to 8 KB per record.  Raises
    [Invalid_argument] on a truncated header. *)

val holds : chunkno:int64 -> Relstore.Heap_page.view -> bool
(** {!peek_chunkno} of a record in place, compared with [chunkno]: a
    file scan's key test ({!Relstore.Heap.scan}). *)

val make_plain : chunkno:int64 -> bytes -> t
val make_compressed : chunkno:int64 -> uncompressed_len:int -> bytes -> t
