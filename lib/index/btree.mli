(** Page-based B+tree index.

    "In order to speed up seeks on files, Inversion maintains a Btree index
    on the chunk number attribute" (paper).  The same structure indexes the
    [naming] table.  Nodes are 8 KB pages living on a device segment and
    accessed through the shared buffer cache, so index maintenance costs
    real (simulated) I/O — interleaving B-tree writes with heap writes is
    exactly the overhead the paper measures in Figure 3.

    Keys are fixed-width byte strings (see {!Key}) compared
    lexicographically.  Values are 64-bit payloads (encoded {!Relstore.Tid}
    s).  Duplicate keys are supported by suffixing the value onto the key
    internally, so each (key, value) pair is unique and historical versions
    of the same chunk coexist in the index — "an index on all of the
    file's available data, including both old and current blocks".

    The root is always block 0 of the tree's segment, so a tree costs
    one block until its root first splits; there is no meta page.  A
    root split copies the root into a new block and rewrites block 0 as
    their parent.  The entry count lives in memory.  A descent that
    meets a page without the node magic (a zeroed root, say) raises
    [Failure] rather than reading it as an empty tree. *)

type t

val create :
  cache:Pagestore.Bufcache.t -> device:Pagestore.Device.t -> klen:int -> t
(** A fresh empty tree on a new segment: one block, the root leaf.
    [klen] between 1 and 64 bytes. *)

val crash : t -> unit
(** Forget volatile per-tree state (the cached entry count) after a
    simulated machine crash.  The durable pages are untouched; the count
    is recounted from the leaves on demand. *)

val reinit : t -> unit
(** Reset the tree to empty in place: block 0 is rewritten as an empty
    root leaf, so the segment id stays valid for anyone holding it.  The
    old nodes below the root are abandoned in the segment (accepted
    leak; used only by crash recovery to rebuild a damaged index before
    re-inserting entries from the heap). *)

val klen : t -> int
val segid : t -> int
val device : t -> Pagestore.Device.t

val count : t -> int
(** Number of (key, value) entries. *)

val height : t -> int
(** The root's level + 1: 1 for a leaf-only tree. *)

val insert : t -> key:string -> value:int64 -> unit
(** Add an entry.  Inserting an exact (key, value) duplicate is a no-op.
    Raises [Invalid_argument] if [key] is not [klen] bytes. *)

val delete : t -> key:string -> value:int64 -> bool
(** Remove the exact entry; [false] if absent.  Deletion is lazy (no node
    merging) — the vacuum cleaner rebuilds indexes when it compacts. *)

val lookup : t -> key:string -> int64 list
(** All values stored under exactly [key], ascending. *)

val scan_range : t -> lo:string -> hi:string -> (string -> int64 -> unit) -> unit
(** Visit every entry with [lo <= key <= hi] in key order.  The callback
    may raise to stop early. *)

val iter : t -> (string -> int64 -> unit) -> unit
(** Whole-tree scan in key order. *)

val check_invariants : t -> (unit, string) result
(** Structural audit of the durable pages: node levels, sort order and
    separator bounds from a walk down the tree, and a leaf chain (from
    the leftmost leaf) that visits exactly the leaves the walk reaches,
    in the same order — so membership in one chain scan ({!iter}) agrees
    with {!lookup}.  A cyclic chain is reported, not followed forever.
    Used by the index audit, tests and the property suite. *)
