(** The three system configurations of the paper's evaluation (Table 3),
    plus ablation variants.

    - {!inversion_client_server}: the Inversion library on a remote
      client, every [p_*] call crossing a TCP/IP connection to the data
      manager (DECstation 3100 → DECsystem 5900 on 10 Mbit Ethernet).
    - {!ultrix_nfs}: ULTRIX NFS on the identical disk, write-forcing
      absorbed by a 1 MB PRESTOserve NVRAM board (on by default, as the
      production server couldn't disable it).
    - {!inversion_single_process}: the benchmark registered as
      user-defined functions running inside the data manager — no
      network, no copies out.

    Each constructor builds a fresh simulated machine; all times accrue
    on the system's own clock. *)

type file

type t = {
  sys_name : string;
  clock : Simclock.Clock.t;
  io_unit : int;
      (** "page size ... chosen to be efficient for the file system under
          test": Inversion's chunk capacity or NFS's 8 KB transfer *)
  net_stats : unit -> (string * int) list;
      (** live counters from the network the system's calls cross —
          real messages/bytes on the simulated wire, plus the client's
          retry/timeout/reconnect counts where there is a retrying
          client.  Empty for the single-process configuration. *)
  create : string -> file;
  open_file : string -> file;
  read : file -> off:int64 -> len:int -> int;
  write : file -> off:int64 -> bytes -> unit;
  begin_batch : unit -> unit;
      (** open a client transaction (no-op for NFS: "the NFS protocol
          makes every operation an atomic transaction") *)
  end_batch : unit -> unit;
  flush_caches : unit -> unit;  (** "All caches were flushed before each test" *)
}

val inversion_client_server :
  ?cache_pages:int ->
  ?os_cache_pages:int ->
  ?index_write_through:bool ->
  ?cpu_scale:float ->
  ?compressed:bool ->
  ?deferred_index:bool ->
  unit ->
  t

val inversion_single_process :
  ?cache_pages:int ->
  ?os_cache_pages:int ->
  ?index_write_through:bool ->
  ?cpu_scale:float ->
  ?compressed:bool ->
  ?deferred_index:bool ->
  unit ->
  t
(** [deferred_index] (staged index inserts applied at the batched force)
    is threaded to {!Relstore.Db.create}; commits always run in groups —
    DESIGN.md's "Group commit & logical recovery".
    Phase boundaries ([flush_caches]) and explicit single-process commits
    ([end_batch]) settle the pipeline so no cost leaks across
    measurements. *)

val ultrix_nfs : ?presto:bool -> ?cache_pages:int -> unit -> t
(** [presto:false] is the ablation the paper couldn't run ("political
    considerations made it impossible to reconfigure the Ultrix NFS
    server"). *)
