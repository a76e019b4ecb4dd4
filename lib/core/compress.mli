(** Chunk compression (LZSS with hash-chain matching).

    The paper's compressed-chunk extension needs a real, lossless,
    self-contained compressor; we implement one from scratch rather than
    depending on zlib.  Format: a token stream where a control byte
    [0x00–0x7F] introduces a literal run of that many + 1 bytes, and
    [0x80 | (len - min_match)] introduces a back-reference of [len]
    (4–131) bytes at a little-endian 16-bit distance (1–65535).  Greedy
    matching with 4-byte hash chains.

    Inversion compresses each chunk independently, so random access stays
    cheap: the chunk index records compressed and uncompressed sizes and
    only the touched chunk is ever decompressed. *)

val compress : bytes -> bytes
(** Never fails; incompressible data grows by at most ~1/128 plus one
    byte. *)

val decompress : bytes -> bytes
(** Raises [Invalid_argument] on a corrupt stream. *)

val ratio : bytes -> float
(** [compressed length / original length] (1.0 for empty input). *)

