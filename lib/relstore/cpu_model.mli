(** Data-manager CPU cost model.

    The paper's profiling found "extra work ... in allocating and copying
    buffers in Inversion"; on the evaluation hardware (a ~20 MIPS
    DECsystem 5900) tuple formation, visibility checks and 8 KB buffer
    copies are milliseconds, not microseconds, and they shape the results
    as much as the disk does.  Heap and B-tree operations charge these
    costs to the shared clock under ["dbms.cpu"].

    [scale] multiplies every charge: 1.0 is the 1993 machine, 0.0 is an
    infinitely fast CPU (an ablation knob for the benchmark harness). *)

val scale : float ref

val charge_record_write : Simclock.Clock.t -> bytes:int -> unit
(** Tuple formation + copy into the page on insert/update. *)

val charge_record_read : Simclock.Clock.t -> bytes:int -> unit
(** Visibility check + copy out, charged by {!Heap.fetch} on a visible
    record only.  {!Heap.scan} charges nothing, so scans are unpriced
    on the simulated clock (ROADMAP item 2(b)). *)

val charge_index_op : Simclock.Clock.t -> unit
(** One B-tree descent/modification's comparisons and bookkeeping. *)

val charge_txn_overhead : Simclock.Clock.t -> unit
(** Start/commit bookkeeping of a writing transaction (catalog snapshot,
    lock release, status update).  Read-only transactions skip it. *)
