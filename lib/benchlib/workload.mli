(** The paper's benchmark ("The Benchmark"):

    - Create a 25 MByte file.
    - Measure the latency to read or write a single byte at a random
      location in the file.
    - Read 1 MByte in a single large transfer.
    - Read 1 MByte sequentially in page-sized units.
    - Read 1 MByte in page-sized units distributed at random.
    - Repeat the 1 MByte transfers, writing instead of reading.

    All caches are flushed before each test; write tests run inside one
    client transaction on systems that support them (that asymmetry — NFS
    forcing every write, Inversion committing many at once — is part of
    what the paper measures). *)

type op =
  | Create_file
  | Read_byte
  | Write_byte
  | Read_1mb_single
  | Read_1mb_seq
  | Read_1mb_rand
  | Write_1mb_single
  | Write_1mb_seq
  | Write_1mb_rand

val all_ops : op list
(** In the paper's Table 3 order. *)

val op_label : op -> string

type results = (op * float) list
(** Simulated elapsed seconds per operation. *)

val run : ?file_mb:int -> Systems.t -> results
(** Run the whole suite on one system, its random offsets drawn from one
    fixed seed.  [file_mb] defaults to the paper's 25 (smaller values are
    proportionally scaled when reported — see {!Report}); the create time
    is scaled up to the 25 MB equivalent when a smaller file is used. *)

val find : results -> op -> float
