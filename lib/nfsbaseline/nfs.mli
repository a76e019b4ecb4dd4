(** A stateless NFS v2-style server and client over the FFS model.

    "To guarantee that NFS servers remain stateless, NFS must force every
    write to stable storage synchronously" — unless the PRESTOserve NVRAM
    board takes the force.  Transfers are limited to 8 KB per RPC (the v2
    protocol and the benchmark's "page-sized units" coincide); the client
    splits larger operations.

    Every client call charges one UDP RPC round trip plus the server-side
    FFS work, on the shared simulated clock. *)

type server
type t
(** A client mount. *)

type fh = int
(** File handle = inode number (the stateless server needs no open
    state). *)

val max_transfer : int
(** 8192 bytes per RPC. *)

val make_server : ffs:Ffs.t -> ?presto:Presto.t -> unit -> server

val connect : server:server -> net:Netsim.t -> t
(** A client on the given network path. *)

val create : t -> string -> fh
val lookup : t -> string -> fh option
val getattr : t -> fh -> int64
(** File size. *)

val read : t -> fh -> off:int64 -> buf:bytes -> len:int -> int
val write : t -> fh -> off:int64 -> data:bytes -> unit

val drop_caches : server -> unit
(** Flush the server buffer cache and drain PRESTOserve — the benchmark's
    between-tests cache flush. *)

val rpc_count : t -> int
(** RPC round trips issued by this client so far. *)
